import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockspec import (
    DecodeState,
    ProgressError,
    RangeError,
    RunConfig,
    ScriptedModel,
    ScriptedSchedule,
    apply_truncation,
    decode,
    scan_eos,
)
from blockspec.alp import cut_window
from blockspec.cache import refresh_dual_cache
from blockspec.decoder import masked_greedy
from blockspec.model import LogitsView

from conftest import comparable_dict, rising_schedule


def eos_schedule(toy_config, prompt_len, gen_length, fill_conf=0.95,
                 eos_offsets=(), eos_conf=0.99, steps=1):
    """Constant schedule: confident filler everywhere, EOS at given offsets."""
    entry = {}
    for off in range(gen_length):
        pos = prompt_len + off
        entry[pos] = (10 + (off % 50), fill_conf)
    for off in eos_offsets:
        entry[prompt_len + off] = (toy_config.eos_token_id, eos_conf)
    sched = ScriptedSchedule(steps=[dict(entry) for _ in range(steps)],
                             vocab_size=toy_config.vocab_size,
                             mask_token_id=toy_config.mask_token_id)
    return ScriptedModel(toy_config, sched)


def fresh_state(toy_config, prompt_len=4, gen_length=256, block_size=32):
    return DecodeState.new(list(range(1, prompt_len + 1)), gen_length,
                           block_size, toy_config.mask_token_id)


def draft_for(model, state):
    _, draft = refresh_dual_cache(model, state, state.block_range())
    return draft


# --- scan_eos ------------------------------------------------------------------

def test_scan_finds_confident_eos(toy_config):
    state = fresh_state(toy_config)
    model = eos_schedule(toy_config, 4, 256, eos_offsets=(87,), eos_conf=0.97)
    cut = scan_eos(draft_for(model, state), state, 0.9, toy_config.eos_token_id)
    assert cut is not None
    offset, conf = cut
    assert offset == 87
    assert conf == pytest.approx(0.97, abs=1e-5)


def test_scan_ignores_low_confidence_eos(toy_config):
    state = fresh_state(toy_config)
    model = eos_schedule(toy_config, 4, 256, eos_offsets=(87,), eos_conf=0.50)
    assert scan_eos(draft_for(model, state), state, 0.9, toy_config.eos_token_id) is None


def test_scan_without_eos_returns_none(toy_config):
    state = fresh_state(toy_config)
    model = eos_schedule(toy_config, 4, 256)
    assert scan_eos(draft_for(model, state), state, 0.9, toy_config.eos_token_id) is None


def test_scan_skips_positions_inside_active_block(toy_config):
    """EOS inside the active block never truncates the block being decoded."""
    state = fresh_state(toy_config)
    model = eos_schedule(toy_config, 4, 256, eos_offsets=(10, 90), eos_conf=0.99)
    cut = scan_eos(draft_for(model, state), state, 0.9, toy_config.eos_token_id)
    assert cut is not None and cut[0] == 90


def test_scan_returns_earliest_qualifying_eos(toy_config):
    state = fresh_state(toy_config)
    model = eos_schedule(toy_config, 4, 256, eos_offsets=(120, 87), eos_conf=0.99)
    cut = scan_eos(draft_for(model, state), state, 0.9, toy_config.eos_token_id)
    assert cut is not None and cut[0] == 87


def test_scan_refuses_a_draft_of_another_length(toy_config):
    state = fresh_state(toy_config)
    model = eos_schedule(toy_config, 4, 256, eos_offsets=(87,), eos_conf=0.99)
    draft = draft_for(model, state)
    short, _ = apply_truncation(state, (87, 0.99))
    with pytest.raises(RangeError, match="does not cover"):
        scan_eos(draft, short, 0.9, toy_config.eos_token_id)


def test_scan_threshold_above_one_never_fires(toy_config):
    state = fresh_state(toy_config)
    model = eos_schedule(toy_config, 4, 256, eos_offsets=(87,), eos_conf=0.99)
    assert scan_eos(draft_for(model, state), state, 1.1, toy_config.eos_token_id) is None


def test_scan_of_the_rows_that_can_cut_equals_the_all_rows_scan(toy_config):
    """scan_eos greedy-decodes only the rows of the cut window, from the
    block end to the last block's start; on random drafts with EOS planted
    around both, the cut equals the one an all-rows scan finds, and the
    draft is left as it was.  The last two blocks leave no row to scan,
    and the scan finds nothing there."""
    eos, mask = toy_config.eos_token_id, toy_config.mask_token_id
    rng = np.random.default_rng(5)
    for _ in range(60):
        state = fresh_state(toy_config, prompt_len=int(rng.integers(1, 12)),
                            gen_length=128, block_size=16)
        state.active_block = int(rng.integers(0, state.n_blocks))
        _, block_end = state.block_range()
        last_start = state.seq_len - state.block_size
        logits = rng.standard_normal((state.seq_len, toy_config.vocab_size)).astype(np.float32)
        for edge in (block_end, last_start):
            for pos in edge + rng.integers(-3, 8, size=int(rng.integers(1, 4))):
                if pos < state.seq_len:
                    logits[pos, eos] = rng.uniform(2.0, 14.0)
        draft = LogitsView(logits, np.arange(state.seq_len), np.zeros(state.seq_len))
        before = draft.logits.copy()
        threshold = float(rng.uniform(0.3, 0.99))

        tokens, confs = masked_greedy(draft, mask, np.arange(state.seq_len))
        hits = np.flatnonzero((draft.positions >= block_end) & (draft.positions < last_start)
                              & (tokens == eos) & (confs > threshold))
        want = (int(hits[0]) - state.prompt_len, float(confs[hits[0]])) if hits.size else None
        assert scan_eos(draft, state, threshold, eos) == want
        assert draft.logits.tobytes() == before.tobytes()


# --- apply_truncation -------------------------------------------------------------

def test_truncation_rounds_up_to_block_multiple(toy_config):
    state = fresh_state(toy_config)
    new_state, event = apply_truncation(state, (87, 0.97), refresh_epoch=1)
    assert event is not None
    assert new_state.gen_length == 96
    assert event.old_gen_length == 256
    assert event.new_gen_length == 96
    assert event.eos_position == 4 + 87
    assert new_state.seq_len == 4 + 96


def test_truncation_boundary_keeps_eos(toy_config):
    state = fresh_state(toy_config)
    new_state, event = apply_truncation(state, (95, 0.97))
    assert new_state.gen_length == 96
    assert new_state.seq_len > 4 + 95  # the EOS position survives


def test_truncation_sequence_is_monotone(toy_config):
    state = fresh_state(toy_config)
    state, e1 = apply_truncation(state, (200, 0.95), refresh_epoch=1)
    assert state.gen_length == 224 and e1 is not None
    state.active_block = 1
    state, e2 = apply_truncation(state, (120, 0.95), refresh_epoch=2)
    assert state.gen_length == 128 and e2 is not None
    state.active_block = 2
    # a later cut that rounds to the current length lies outside the window
    with pytest.raises(RangeError, match="outside the cut window"):
        apply_truncation(state, (126, 0.95), refresh_epoch=3)
    assert state.gen_length == 128


def test_truncation_never_cuts_decoded_region(toy_config):
    state = fresh_state(toy_config)
    state.active_block = 2  # blocks 0..1 decoded
    with pytest.raises(RangeError, match="outside the cut window"):
        apply_truncation(state, (40, 0.99))
    assert state.gen_length == 256


def test_truncation_never_deletes_unmasked_tokens(toy_config):
    state = fresh_state(toy_config)
    state.tokens[4 + 200] = 9
    with pytest.raises(ProgressError, match="would delete unmasked tokens"):
        apply_truncation(state, (87, 0.97))
    assert state.gen_length == 256


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_truncation_succeeds_on_exactly_the_cut_window(toy_config, data):
    """A cut at a response offset succeeds exactly when its position lies
    after the active block and before the last block, and every success
    shrinks the length and keeps the active block; every other offset,
    past the sequence included, is a RangeError."""
    block_size = data.draw(st.integers(1, 8), label="block_size")
    n_blocks = data.draw(st.integers(1, 6), label="n_blocks")
    state = fresh_state(toy_config, prompt_len=data.draw(st.integers(1, 12), label="prompt_len"),
                        gen_length=n_blocks * block_size, block_size=block_size)
    state.active_block = data.draw(st.integers(0, n_blocks - 1), label="active_block")
    start, stop = cut_window(state)
    assert start == state.block_range()[1] and stop == state.seq_len - block_size
    for offset in range(-1, state.gen_length + block_size):
        if start <= state.prompt_len + offset < stop:
            short, event = apply_truncation(state, (offset, 0.99))
            assert event.new_gen_length == short.gen_length < state.gen_length
            assert short.gen_length > offset and short.gen_length % block_size == 0
            assert short.active_block < short.n_blocks
            assert short.block_range() == state.block_range()
        else:
            with pytest.raises(RangeError, match="outside the cut window"):
                apply_truncation(state, (offset, 0.99))


# --- end-to-end ALP ------------------------------------------------------------------

def test_alp_golden_scenario(toy_config):
    """0.99-confidence EOS at offset 87 from the first refresh: final length
    96, lengths monotone across refreshes, nothing unmasked is deleted, and
    a 1.1 truncate threshold reproduces fast exactly."""
    model = eos_schedule(toy_config, 4, 1024, eos_offsets=(87,), eos_conf=0.99)
    odb = decode(model, [1, 2, 3, 4],
                 RunConfig(strategy="odb", gen_length=1024, block_size=32,
                           truncate_threshold=0.9))
    assert odb.gen_length_final == 96
    assert len(odb.truncations) == 1
    lengths = [e.new_gen_length for e in odb.truncations]
    assert lengths == sorted(lengths, reverse=True)
    assert len(odb.final_tokens) == 4 + 96
    assert odb.prefill_steps == 3  # blocks 0..2 after the first-cycle cut
    # every committed token survives to the end
    committed = {p: t for s in odb.steps for p, t, _ in s.accepted}
    for p, t in committed.items():
        assert odb.final_tokens[p] == t

    fast = decode(model, [1, 2, 3, 4],
                  RunConfig(strategy="fast", gen_length=1024, block_size=32))
    odb_idle = decode(model, [1, 2, 3, 4],
                      RunConfig(strategy="odb", gen_length=1024, block_size=32,
                                truncate_threshold=1.1))
    assert comparable_dict(odb_idle) == comparable_dict(fast)


def test_alp_truncation_tracks_latest_draft(toy_config):
    """A schedule whose EOS prediction moves earlier on later steps keeps
    shrinking the response, never growing it."""
    prompt_len, gen = 4, 256
    entries = []
    for eos_off in (200, 120, 120, 120, 120, 120, 120, 120):
        entry = {}
        for off in range(gen):
            entry[prompt_len + off] = (10 + (off % 50), 0.95)
        entry[prompt_len + eos_off] = (toy_config.eos_token_id, 0.99)
        entries.append(entry)
    sched = ScriptedSchedule(steps=entries, vocab_size=toy_config.vocab_size,
                             mask_token_id=toy_config.mask_token_id)
    model = ScriptedModel(toy_config, sched)
    traj = decode(model, [1, 2, 3, 4],
                  RunConfig(strategy="odb", gen_length=gen, block_size=32,
                            truncate_threshold=0.9))
    # refresh drafts read successive schedule entries: 200 -> 224, then 120
    # -> 128, then no further shrink
    assert [e.new_gen_length for e in traj.truncations] == [224, 128]
    assert traj.gen_length_final == 128


@pytest.mark.parametrize("kind", ["toy", "scripted"])
def test_odb_refresh_drafts_only_while_a_cut_can_shorten(monkeypatch, toy_model, toy_config,
                                                         kind):
    """An odb refresh asks its forward for the logits draft exactly when its
    cut window, from the block end to the last block's start, is not empty:
    a cut rounds up to a block multiple, so the last two cycles' drafts
    could shorten nothing."""
    prompt = [3, 14, 15, 92, 65, 35, 89, 79, 32]
    if kind == "toy":
        model, gen_length = toy_model, 96
    else:
        # its EOS cuts the length to two blocks at the first refresh
        model, gen_length = ScriptedModel(toy_config, rising_schedule(len(prompt), 96)), 96
    drafts = []
    forward = model.forward

    def recording(tokens, layout, cache=None, step=0, logits=True):
        if cache is None:  # only refreshes run without a cache under odb
            drafts.append(logits)
        return forward(tokens, layout, cache, step=step, logits=logits)

    monkeypatch.setattr(model, "forward", recording)
    traj = decode(model, prompt, RunConfig("odb", gen_length, 32))
    refreshes = [s for s in traj.steps if s.kind == "refresh"]
    block_ends = [len(prompt) + 32 * (s.block + 1) for s in refreshes]
    assert drafts == [end < s.t_tokens - 32 for end, s in zip(block_ends, refreshes)]
    # the scripted cut at the first refresh leaves two blocks
    assert drafts == ([True, False, False] if kind == "toy" else [True, False])
    assert bool(traj.truncations) == (kind == "scripted")
