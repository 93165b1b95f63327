import numpy as np
import pytest

import blockspec.decoder
from blockspec import (
    BlockCompleteError,
    ConfigError,
    DecodeState,
    ProgressError,
    RangeError,
    RunConfig,
    ScriptedModel,
    ScriptedSchedule,
    StepOutcome,
    apply_truncation,
    decode,
    tau_leaping_step,
    threshold_step,
)
from blockspec.decoder import apply_outcome, decision_entries, threshold_decide
from blockspec.errors import from_document
from blockspec.layout import full_sequence_layout
from blockspec.model import scripted_forward

from conftest import comparable_dict, random_state


def make_scripted(toy_config, entries):
    sched = ScriptedSchedule(steps=entries, vocab_size=toy_config.vocab_size,
                             mask_token_id=toy_config.mask_token_id)
    return ScriptedModel(toy_config, sched)


def constant_entry(positions, conf, token_of=lambda p: 10 + (p % 50)):
    return {p: (token_of(p), conf) for p in positions}


# --- tau leaping --------------------------------------------------------------

def test_tau_step_s_zero_unmasks_everything(toy_model, toy_config):
    rng = np.random.default_rng(0)
    state = random_state(rng, toy_config)
    view, _ = toy_model.forward(state.tokens, full_sequence_layout(state.seq_len))
    out = tau_leaping_step(state, view, 0.0, np.random.default_rng(1))
    assert not out.masked.any()
    assert out.t == 0.0


def test_tau_step_never_touches_unmasked(toy_model, toy_config):
    rng = np.random.default_rng(3)
    state = random_state(rng, toy_config, n_decoded=6)
    before = state.tokens.copy()
    unmasked = ~state.masked
    view, _ = toy_model.forward(state.tokens, full_sequence_layout(state.seq_len))
    out = tau_leaping_step(state, view, 0.25, np.random.default_rng(2))
    assert np.array_equal(out.tokens[unmasked], before[unmasked])
    assert not out.masked[unmasked].any()


def test_tau_step_time_order_enforced(toy_model, toy_config):
    rng = np.random.default_rng(4)
    state = random_state(rng, toy_config)
    state.t = 0.5
    view, _ = toy_model.forward(state.tokens, full_sequence_layout(state.seq_len))
    with pytest.raises(RangeError):
        tau_leaping_step(state, view, 0.5, np.random.default_rng(0))
    with pytest.raises(RangeError):
        tau_leaping_step(state, view, 0.7, np.random.default_rng(0))


def test_tau_step_unmask_fraction_matches_expectation(toy_config):
    """t=0.5 -> s=0.25 unmasks each position w.p. (t-s)/t = 0.5; with 1000
    positions the observed fraction sits within 3 sigma of one half."""
    state = DecodeState.new([1], 1000, 1000, toy_config.mask_token_id)
    state.t = 0.5
    sched = ScriptedSchedule(steps=[constant_entry(range(1, 1001), 0.9)],
                             vocab_size=128, mask_token_id=126)
    view = scripted_forward(sched, 0, list(range(1, 1001)))
    out = tau_leaping_step(state, view, 0.25, np.random.default_rng(42))
    frac = 1.0 - out.masked[1:].mean()
    assert 0.45 <= frac <= 0.55


def test_tau_full_chain_uniform_schedule(toy_config):
    """k uniform steps from t=1 fully unmask in <= k steps, exactly k when
    positions survive to the forced final step."""
    sched = ScriptedSchedule(steps=[constant_entry(range(4, 68), 0.9)],
                             vocab_size=128, mask_token_id=126)
    model = ScriptedModel(toy_config, sched)
    config = RunConfig(strategy="vanilla", gen_length=64, block_size=32,
                       tau_steps=8, seed=5)
    traj = decode(model, [1, 2, 3, 4], config)
    assert traj.nfe <= 8
    state_masks = 64
    for step in traj.steps:
        state_masks -= len(step.accepted)
    assert state_masks == 0
    # a fatter schedule keeps masks alive until the last step
    config2 = RunConfig(strategy="vanilla", gen_length=256, block_size=32,
                        tau_steps=4, seed=5)
    sched2 = ScriptedSchedule(steps=[constant_entry(range(4, 260), 0.9)],
                              vocab_size=128, mask_token_id=126)
    traj2 = decode(ScriptedModel(toy_config, sched2), [1, 2, 3, 4], config2)
    assert traj2.nfe == 4


# --- threshold step -------------------------------------------------------------

def _five_token_state(toy_config):
    return DecodeState.new([1, 2, 3, 4], 5, 5, toy_config.mask_token_id)


def test_threshold_step_spec_example(toy_config):
    """Confidences [0.95, 0.30, 0.92, 0.50, 0.88] at threshold 0.9 accept
    offsets {0, 2}; the rest rank by confidence."""
    state = _five_token_state(toy_config)
    confs = [0.95, 0.30, 0.92, 0.50, 0.88]
    entry = {4 + i: (20 + i, confs[i]) for i in range(5)}
    sched = ScriptedSchedule(steps=[entry], vocab_size=128, mask_token_id=126)
    view = scripted_forward(sched, 0, [4, 5, 6, 7, 8])
    outcome = threshold_step(state, view, 0.9)
    assert [p - 4 for p, _, _ in outcome.accepted] == [0, 2]
    assert [p - 4 for p, _, _ in outcome.rejected_top] == [4, 3, 1]
    for (_, _, got), want in zip(outcome.rejected_top, (0.88, 0.50, 0.30)):
        assert got == pytest.approx(want, abs=2e-6)


def test_threshold_step_progress_rule(toy_config):
    state = _five_token_state(toy_config)
    confs = [0.1, 0.2, 0.3, 0.85, 0.05]
    entry = {4 + i: (20 + i, confs[i]) for i in range(5)}
    sched = ScriptedSchedule(steps=[entry], vocab_size=128, mask_token_id=126)
    view = scripted_forward(sched, 0, [4, 5, 6, 7, 8])
    outcome = threshold_step(state, view, 0.9)
    assert [p - 4 for p, _, _ in outcome.accepted] == [3]
    assert len(outcome.rejected_top) == 4


def test_threshold_step_all_above_completes_block(toy_config):
    state = _five_token_state(toy_config)
    entry = {4 + i: (20 + i, 0.95) for i in range(5)}
    sched = ScriptedSchedule(steps=[entry], vocab_size=128, mask_token_id=126)
    view = scripted_forward(sched, 0, [4, 5, 6, 7, 8])
    outcome = threshold_step(state, view, 0.9)
    assert len(outcome.accepted) == 5
    assert outcome.rejected_top == []


def test_threshold_step_requires_masked_positions(toy_config):
    state = _five_token_state(toy_config)
    state.tokens[4:] = 9
    sched = ScriptedSchedule(steps=[{}], vocab_size=128, mask_token_id=126)
    view = scripted_forward(sched, 0, [4])
    with pytest.raises(BlockCompleteError):
        threshold_step(state, view, 0.9)


def test_threshold_decide_tie_breaks_to_lower_position():
    positions, tokens = np.array([5, 7, 9]), np.array([2, 3, 1])
    confs = np.float32([0.7, 0.2, 0.7])
    high, low = float(confs[0]), float(confs[1])
    accept = threshold_decide(confs[None], 0.9)[0]
    assert accept.tolist() == [True, False, False]
    assert decision_entries(positions, tokens, confs, accept) == [(5, 2, high)]
    rejected = decision_entries(positions, tokens, confs, ~accept, ranked=True)
    assert rejected == [(9, 1, high), (7, 3, low)]


# --- decode loops ---------------------------------------------------------------

def test_vanilla_every_step_full_sequence(toy_config):
    entries = [constant_entry(range(4, 68), 0.95)]
    model = make_scripted(toy_config, entries)
    config = RunConfig(strategy="vanilla", gen_length=64, block_size=32)
    traj = decode(model, [1, 2, 3, 4], config)
    assert all(s.t_tokens == s.c_tokens == 68 for s in traj.steps)
    assert traj.nfe == len(traj.steps)
    assert traj.prefill_steps == 0


def test_vanilla_decides_like_fast_without_cache(toy_config):
    """vanilla runs the block loop with every step a full-sequence forward:
    the same per-block step ordinals and decisions as fast, no refreshes."""
    positions = range(4, 68)
    entries = [
        {p: (10 + p % 50, 0.95 if p % 5 == 0 else 0.2 + 0.01 * (p % 13)) for p in positions},
        {p: (10 + p % 50, 0.95 if p % 3 == 0 else 0.5 + 0.01 * (p % 7)) for p in positions},
        constant_entry(positions, 0.95),
    ]
    model = make_scripted(toy_config, entries)
    vanilla = decode(model, [1, 2, 3, 4], RunConfig(strategy="vanilla", gen_length=64, block_size=32))
    fast = decode(model, [1, 2, 3, 4], RunConfig(strategy="fast", gen_length=64, block_size=32))

    def decisions(steps):
        return [(s.accepted, s.kind, s.block) for s in steps]

    fast_decode = [s for s in fast.steps if s.kind != "refresh"]
    assert len(vanilla.steps) == 6  # three steps per block
    assert decisions(vanilla.steps) == decisions(fast_decode)
    assert vanilla.final_tokens == fast.final_tokens
    assert all(s.kind == "threshold" and s.epoch == 0 for s in vanilla.steps)
    assert all(s.t_tokens == s.c_tokens == 68 for s in vanilla.steps)


def test_fast_has_one_refresh_per_block(toy_config):
    entries = [constant_entry(range(4, 260), 0.95)]
    model = make_scripted(toy_config, entries)
    config = RunConfig(strategy="fast", gen_length=256, block_size=32)
    traj = decode(model, [1, 2, 3, 4], config)
    assert traj.prefill_steps == 8
    decode_steps = [s for s in traj.steps if s.phase == "decode"]
    assert len(decode_steps) == 8  # every token clears the threshold at first sight
    assert traj.nfe == 16


def test_monotonic_unmasking_and_token_conservation(toy_model, toy_config):
    prompt = [3, 1, 4, 1, 5, 9, 2, 6]
    config = RunConfig(strategy="fast", gen_length=64, block_size=32,
                       accept_threshold=0.05)
    traj = decode(toy_model, prompt, config)
    assert traj.final_tokens[:8] == prompt
    assert not any(t == toy_config.mask_token_id for t in traj.final_tokens)
    total_unmasked = sum(len(s.accepted) for s in traj.steps)
    assert total_unmasked == 64
    seen = set()
    for step in traj.steps:
        for p, _, _ in step.accepted:
            assert p not in seen
            seen.add(p)
    decode_steps = [s for s in traj.steps if s.phase == "decode"]
    assert len(decode_steps) <= 64


def test_odb_equals_fast_when_alp_and_spec_idle(toy_config):
    """Speculation never fires without rejections and a >1 truncate threshold
    never truncates, so the trajectories coincide bit for bit."""
    entries = [constant_entry(range(4, 132), 0.95)]
    model = make_scripted(toy_config, entries)
    fast = decode(model, [1, 2, 3, 4],
                  RunConfig(strategy="fast", gen_length=128, block_size=32))
    odb = decode(model, [1, 2, 3, 4],
                 RunConfig(strategy="odb", gen_length=128, block_size=32,
                           truncate_threshold=1.1))
    assert comparable_dict(fast) == comparable_dict(odb)


def test_decode_is_deterministic(toy_model):
    config = RunConfig(strategy="fast", gen_length=32, block_size=32,
                       accept_threshold=0.05)
    a = decode(toy_model, [5, 6, 7], config)
    b = decode(toy_model, [5, 6, 7], config)
    assert a.to_dict() == b.to_dict()


# --- run config ------------------------------------------------------------------

def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(strategy="fast", gen_length=33, block_size=32)
    with pytest.raises(ConfigError):
        RunConfig(strategy="fast", gen_length=32, block_size=32, tau_steps=4)
    with pytest.raises(ConfigError):
        RunConfig(strategy="warp", gen_length=32, block_size=32)
    with pytest.raises(ConfigError):
        from_document(RunConfig, {"strategy": "fast", "gen_length": 32,
                                  "block_size": 32, "mystery": 1}, "run config")
    cfg = from_document(RunConfig, {"strategy": "odb", "gen_length": 64, "block_size": 32},
                        "run config")
    assert cfg.stage2_threshold == 8


def test_decode_state_invariants(toy_config):
    state = DecodeState.new([1, 2], 32, 32, toy_config.mask_token_id)
    assert state.seq_len == 34
    assert state.masked[2:].all()
    assert not state.masked[:2].any()
    state.check_invariants()
    with pytest.raises(ConfigError):
        DecodeState.new([], 32, 32, toy_config.mask_token_id)


# --- safety checks ------------------------------------------------------------

def test_apply_outcome_refuses_a_position_accepted_twice(toy_config):
    state = DecodeState.new([1, 2], 32, 32, toy_config.mask_token_id)
    with pytest.raises(ProgressError, match="position 5 accepted twice"):
        apply_outcome(state, StepOutcome(accepted=[(5, 9, 0.9), (5, 10, 0.8)], rejected_top=[]))
    apply_outcome(state, StepOutcome(accepted=[(6, 9, 0.9)], rejected_top=[]))
    with pytest.raises(ProgressError, match="position 6 accepted twice"):
        apply_outcome(state, StepOutcome(accepted=[(6, 9, 0.9)], rejected_top=[]))
    with pytest.raises(ProgressError, match="position 0 accepted twice"):
        apply_outcome(state, StepOutcome(accepted=[(0, 9, 0.9)], rejected_top=[]))


def test_apply_outcome_refuses_the_mask_token(toy_config):
    mask = toy_config.mask_token_id
    state = DecodeState.new([1, 2], 32, 32, mask)
    with pytest.raises(ProgressError, match="mask token"):
        apply_outcome(state, StepOutcome(accepted=[(4, mask, 0.9)], rejected_top=[]))
    assert state.tokens[4] == mask


@pytest.mark.parametrize("strategy", ["vanilla", "fast", "odb"])
def test_decode_refuses_a_step_that_accepts_nothing(toy_model, monkeypatch, strategy):
    monkeypatch.setattr(
        blockspec.decoder, "threshold_step",
        lambda state, logits, threshold: StepOutcome(accepted=[], rejected_top=[]),
    )
    config = RunConfig(strategy=strategy, gen_length=32, block_size=32)
    with pytest.raises(ProgressError, match="unmasked zero tokens"):
        decode(toy_model, [5, 6, 7], config)


def test_mask_flags_are_read_only_and_follow_tokens(toy_config):
    mask = toy_config.mask_token_id
    state = DecodeState.new([1, 2, 3, 4], 128, 32, mask)
    with pytest.raises(ValueError):
        state.masked[5] = False
    apply_outcome(state, StepOutcome(accepted=[(5, 9, 0.9), (100, 11, 0.9)], rejected_top=[]))
    assert np.array_equal(np.flatnonzero(~state.masked), [0, 1, 2, 3, 5, 100])
    assert np.array_equal(state.block_decoded_positions(), [5])
    # the cut to 64 would delete the token at 100
    _, event = apply_truncation(state, (40, 0.99))
    assert event is None
    state.tokens[100] = mask
    short, event = apply_truncation(state, (40, 0.99))
    assert event is not None and short.seq_len == 4 + 64
    assert np.array_equal(np.flatnonzero(~short.masked), [0, 1, 2, 3, 5])
    assert np.array_equal(state.block_masked_positions(), short.block_masked_positions())
