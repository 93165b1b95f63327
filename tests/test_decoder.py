import numpy as np
import pytest

import blockspec.engine
from blockspec import (
    BlockCompleteError,
    ConfigError,
    DecodeState,
    ProgressError,
    RunConfig,
    ScriptedModel,
    ScriptedSchedule,
    StepOutcome,
    ToyModel,
    apply_truncation,
    decode,
    threshold_step,
)
from blockspec.decoder import apply_outcome, decision_entries, threshold_decide
from blockspec.errors import from_document
from blockspec.model import MAX_POSITION, scripted_forward

from conftest import block_decoded_positions, comparable_dict, rising_schedule


def make_scripted(toy_config, entries):
    sched = ScriptedSchedule(steps=entries, vocab_size=toy_config.vocab_size,
                             mask_token_id=toy_config.mask_token_id)
    return ScriptedModel(toy_config, sched)


def constant_entry(positions, conf, token_of=lambda p: 10 + (p % 50)):
    return {p: (token_of(p), conf) for p in positions}


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


@pytest.mark.parametrize("strategy", ["vanilla", "fast", "odb"])
@pytest.mark.parametrize("kind", ["toy", "scripted"])
def test_step_records_take_epoch_and_phase_from_the_block_cycle(toy_config, kind, strategy):
    """A cached cycle's epoch is its block + 1 and an uncached one's 0; a
    step is prefill exactly when it is a refresh; a truncation names the
    refresh whose draft cut the length."""
    prompt = [3, 14, 15, 92, 65, 35, 89, 79, 32]
    if kind == "toy":
        model, gen_length = ToyModel(toy_config), 64
    else:
        model, gen_length = ScriptedModel(toy_config, rising_schedule(len(prompt), 96)), 96
    traj = decode(model, prompt, RunConfig(strategy, gen_length, 32))
    cached = strategy != "vanilla"
    for s in traj.steps:
        assert s.epoch == (s.block + 1 if cached else 0)
        assert (s.phase == "prefill") == (s.kind == "refresh")
    refreshes = {s.epoch: s for s in traj.steps if s.kind == "refresh"}
    assert len(refreshes) == traj.prefill_steps == (traj.gen_length_final // 32 if cached else 0)
    for event in traj.truncations:
        assert refreshes[event.refresh_epoch].t_tokens == len(prompt) + event.old_gen_length
        after = refreshes.get(event.refresh_epoch + 1)
        assert after is None or after.t_tokens == len(prompt) + event.new_gen_length
    assert bool(traj.truncations) == (kind == "scripted" and strategy == "odb")


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
        RunConfig(strategy="warp", gen_length=32, block_size=32)
    with pytest.raises(ConfigError):
        from_document(RunConfig, {"strategy": "fast", "gen_length": 32,
                                  "block_size": 32, "mystery": 1})
    cfg = from_document(RunConfig, {"strategy": "odb", "gen_length": 64, "block_size": 32})
    assert cfg.stage2_min_decoded == 8


def test_decode_state_invariants(toy_config):
    state = DecodeState.new([1, 2], 32, 32, toy_config.mask_token_id)
    assert state.seq_len == 34
    assert state.masked[2:].all()
    assert not state.masked[:2].any()
    state.check_invariants()
    with pytest.raises(ConfigError):
        DecodeState.new([], 32, 32, toy_config.mask_token_id)


def test_decode_state_holds_at_most_max_position_tokens(toy_config):
    """Every position a forward rotates or a schedule scripts lies below
    MAX_POSITION, so the state refuses a task that reaches past it."""
    mask = toy_config.mask_token_id
    assert DecodeState.new([1] * (MAX_POSITION - 32), 32, 32, mask).seq_len == MAX_POSITION
    with pytest.raises(ConfigError, match=f"{MAX_POSITION - 31} prompt_tokens and gen_length 32"):
        DecodeState.new([1] * (MAX_POSITION - 31), 32, 32, mask)


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
        blockspec.engine, "threshold_step",
        lambda state, logits, threshold: StepOutcome(accepted=[], rejected_top=[]),
    )
    config = RunConfig(strategy=strategy, gen_length=32, block_size=32)
    with pytest.raises(ProgressError, match="unmasked zero tokens"):
        decode(toy_model, [5, 6, 7], config)


@pytest.mark.parametrize("strategy", ["vanilla", "fast", "odb"])
def test_decode_refuses_an_outcome_naming_a_decoded_position(toy_model, monkeypatch, strategy):
    """Every step unmasks through apply_outcome, so an outcome that writes
    over a prompt token is refused under each strategy."""
    monkeypatch.setattr(
        blockspec.engine, "threshold_step",
        lambda state, logits, threshold: StepOutcome(accepted=[(1, 9, 0.9)], rejected_top=[]),
    )
    config = RunConfig(strategy=strategy, gen_length=32, block_size=32)
    with pytest.raises(ProgressError, match="position 1 accepted twice"):
        decode(toy_model, [5, 6, 7], config)


def test_mask_flags_are_read_only_and_follow_tokens(toy_config):
    mask = toy_config.mask_token_id
    state = DecodeState.new([1, 2, 3, 4], 128, 32, mask)
    with pytest.raises(ValueError):
        state.masked[5] = False
    apply_outcome(state, StepOutcome(accepted=[(5, 9, 0.9), (100, 11, 0.9)], rejected_top=[]))
    assert np.array_equal(np.flatnonzero(~state.masked), [0, 1, 2, 3, 5, 100])
    assert np.array_equal(block_decoded_positions(state), [5])
    # the cut to 64 would delete the token at 100
    with pytest.raises(ProgressError, match="would delete unmasked tokens"):
        apply_truncation(state, (40, 0.99))
    state.tokens[100] = mask
    short, event = apply_truncation(state, (40, 0.99))
    assert event is not None and short.seq_len == 4 + 64
    assert np.array_equal(np.flatnonzero(~short.masked), [0, 1, 2, 3, 5])
    assert np.array_equal(state.block_masked_positions(), short.block_masked_positions())
