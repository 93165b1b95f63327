"""The one-pass decision path against its per-row reference, bitwise."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blockspec.alp
import blockspec.engine
import blockspec.speculative
import reference_decide
from blockspec import RunConfig, ScriptedModel, ScriptedSchedule, ToyModel, decode
from blockspec.cache import refresh_dual_cache
from blockspec.decoder import StepOutcome, decision_entries, masked_greedy, threshold_decide
from blockspec.model import LogitsView, _conf_floor, scripted_forward
from blockspec.speculative import Candidate, spec_step

from conftest import TOY, copy_state, random_state, rising_schedule, same_step
from dense_forward import softmax


@pytest.mark.parametrize("strategy", ["vanilla", "fast", "odb"])
@pytest.mark.parametrize("kind", ["toy", "scripted"])
def test_live_decode_steps_match_per_tag_reference(monkeypatch, toy_config, kind, strategy):
    prompt = [3, 14, 15, 92, 65, 35, 89, 79, 32]
    if kind == "toy":
        model = ToyModel(toy_config)
    else:
        model = ScriptedModel(toy_config, rising_schedule(len(prompt), 96))
    seen = {"threshold": 0, "greedy": 0, "applied": 0, "stages": set()}
    real_apply = blockspec.engine.apply_outcome
    real_threshold = blockspec.engine.threshold_step
    real_spec = blockspec.engine.spec_step
    real_greedy = blockspec.alp.masked_greedy

    def checked_threshold(state, logits, threshold):
        got = real_threshold(state, logits, threshold)
        assert got == reference_decide.threshold_step(state, logits, threshold)
        seen["threshold"] += 1
        return got

    def checked_spec(model, state, cache, previous, config, *, step=0):
        before = copy_state(state)
        got = real_spec(model, state, cache, previous, config, step=step)
        candidates, stage = reference_decide.spec_size(before, previous, config)
        want = reference_decide.spec_step(model, before, cache, candidates, stage, config, step=step)
        assert same_step(got, want)
        seen["stages"].add(stage)
        return got

    def checked_greedy(view, mask_token_id, rows):
        got = real_greedy(view, mask_token_id, rows)
        # scan_eos passes the rows that can cut
        want = tuple(a[rows] for a in reference_decide.masked_greedy(view, mask_token_id))
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        seen["greedy"] += 1
        return got

    def checked_apply(state, outcome):
        real_apply(state, outcome)
        # the decode loop ends a block cycle on a step that rejects nothing
        rejected = sorted(p for p, _, _ in outcome.rejected_top)
        assert rejected == state.block_masked_positions().tolist()
        seen["applied"] += 1

    monkeypatch.setattr(blockspec.engine, "apply_outcome", checked_apply)
    monkeypatch.setattr(blockspec.engine, "threshold_step", checked_threshold)
    monkeypatch.setattr(blockspec.engine, "spec_step", checked_spec)
    monkeypatch.setattr(blockspec.alp, "masked_greedy", checked_greedy)
    # three blocks, so odb's first refresh has a cut window to scan
    traj = decode(model, prompt, RunConfig(strategy, 96, 32))
    assert traj.completed and seen["threshold"] > 0
    assert seen["applied"] == sum(step.kind != "refresh" for step in traj.steps)
    if strategy == "odb":
        assert seen["stages"] == {1, 2} and seen["greedy"] > 0
        if kind == "scripted":
            assert traj.truncations and traj.total_jumps > 0


# (stage, candidates): every lattice of up to four candidates at either
# stage.  spec_stage takes two at stage 1 and four at stage 2, and short
# rejection lists give fewer; a per-step sizing rule may take more.
_LATTICES = [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3), (2, 4)]


@pytest.mark.parametrize("stage,m", _LATTICES)
@pytest.mark.parametrize("kind", ["toy", "scripted"])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_spec_step_matches_reference_on_random_blocks(toy_model, toy_config, kind, stage, m, data):
    sizes = [b for b in (4, 8, 16) if b >= m + stage - 1]
    block_size = data.draw(st.sampled_from(sizes), label="block_size")
    n_decoded = data.draw(st.integers(stage - 1, block_size - m), label="n_decoded")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    state = random_state(rng, toy_config, prompt_len=int(rng.integers(1, 10)),
                         gen_length=2 * block_size, block_size=block_size,
                         active_block=int(rng.integers(0, 2)), n_decoded=n_decoded)
    ordinary = [t for t in range(toy_config.vocab_size)
                if t not in (toy_config.mask_token_id, toy_config.eos_token_id)]
    if kind == "toy":
        model = toy_model
    else:
        # confidences on both sides of every drawn threshold
        entry = {p: (int(rng.choice(ordinary)), float(rng.choice([0.2, 0.6, 0.95]) + 0.04 * rng.random()))
                 for p in range(state.prompt_len, state.seq_len)}
        model = ScriptedModel(toy_config, ScriptedSchedule(
            steps=[entry], vocab_size=toy_config.vocab_size, mask_token_id=toy_config.mask_token_id))
    cache, draft = refresh_dual_cache(model, state, state.block_range())
    # a candidate token is usually the draft's own prediction, so that blocks
    # accept candidates and the jump walk leaves the main block
    predicted, _ = masked_greedy(draft, toy_config.mask_token_id, np.arange(state.seq_len))
    positions = rng.choice(state.block_masked_positions(), size=m, replace=False).tolist()
    # the previous step's rejections are the m candidates, in drawn order
    previous = StepOutcome(accepted=[], rejected_top=[
        (p, int(predicted[p]) if rng.random() < 0.8 else int(rng.choice(ordinary)),
         data.draw(st.floats(0.0, 1.0), label="confidence"))
        for p in positions
    ])
    threshold = data.draw(st.sampled_from([0.0, 0.5, 0.9]), label="threshold")
    # a stage-2 threshold that puts n_decoded on the drawn stage's side
    stage2_min = (data.draw(st.integers(1, n_decoded), label="stage2_min_decoded")
                  if stage == 2 else n_decoded + 1)
    config = RunConfig("odb", 2 * block_size, block_size, accept_threshold=threshold,
                       stage2_min_decoded=stage2_min)
    candidates, sized = reference_decide.spec_size(state, previous, config)
    assert sized == stage and candidates == tuple(previous.rejected_top)[:len(candidates)]

    with pytest.MonkeyPatch.context() as patch:
        if len(candidates) < m:
            # a lattice wider than the stage's budget: only the sizing rule changes
            patch.setattr(blockspec.speculative, "spec_stage", lambda n, config: (stage, m))
            candidates = tuple(Candidate(*c) for c in previous.rejected_top)
        got = spec_step(model, state, cache, previous, config)
    want = reference_decide.spec_step(model, state, cache, candidates, stage, config)
    assert same_step(got, want)


_TIE_VALUES = [-3.0, 0.0, 0.5, 2.0, 7.25]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_masked_greedy_confidence_is_full_softmax_at_argmax(data):
    n_rows = data.draw(st.integers(1, 6))
    vocab = data.draw(st.integers(2, 40))
    mask_id = data.draw(st.integers(0, vocab - 1))
    value = st.one_of(
        st.sampled_from(_TIE_VALUES),
        st.floats(-60, 60, allow_nan=False, width=32),
    )
    logits = np.asarray(
        data.draw(st.lists(st.lists(value, min_size=vocab, max_size=vocab),
                           min_size=n_rows, max_size=n_rows)),
        dtype=np.float32,
    )
    if data.draw(st.booleans()):
        logits[:, mask_id] = logits.max() + 1.0
    view = LogitsView(logits, np.arange(n_rows), np.zeros(n_rows))

    tokens, confs = masked_greedy(view, mask_id, np.arange(n_rows))
    ref_tokens, ref_confs = reference_decide.masked_greedy(view, mask_id)
    assert tokens.dtype == np.int64 and confs.dtype == np.float32
    assert tokens.tobytes() == ref_tokens.tobytes()
    assert confs.tobytes() == ref_confs.tobytes()
    assert not np.any(tokens == mask_id)
    without_mask = logits.copy()
    without_mask[:, mask_id] = -np.inf
    full = softmax(without_mask, axis=1)[np.arange(n_rows), tokens]
    assert confs.tobytes() == full.tobytes()

    rows = data.draw(st.lists(st.integers(0, n_rows - 1), max_size=8))
    sub_tokens, sub_confs = masked_greedy(view, mask_id, rows)
    assert sub_tokens.tobytes() == tokens[rows].tobytes()
    assert sub_confs.tobytes() == confs[rows].tobytes()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_scripted_forward_equals_stacked_two_level_rows(data):
    vocab = data.draw(st.integers(2, 200))
    mask_id = data.draw(st.integers(0, vocab - 1))
    floor = _conf_floor(vocab)
    conf = st.one_of(
        st.sampled_from([0.0, 1.0, floor, floor / 2, min(2 * floor, 1.0), 1.0 - 1e-9, 0.5]),
        st.floats(0.0, 1.0),
        st.integers(0, 1),
    )
    token = st.one_of(st.just(mask_id), st.integers(0, vocab - 1))
    # scheduled positions lie in [5, 30]; queries reach below and above that
    entry = st.dictionaries(st.integers(5, 30), st.tuples(token, conf), max_size=12)
    steps = data.draw(st.lists(entry, min_size=1, max_size=3))
    schedule = ScriptedSchedule(steps=steps, vocab_size=vocab, mask_token_id=mask_id)
    # each step is asked twice, the second time from its compiled arrays
    order = data.draw(st.permutations(range(len(steps))))
    for step in [*order, *order]:
        block = data.draw(st.lists(st.integers(0, 40), min_size=1, max_size=20))
        # a spec layout repeats a block's positions once per tag
        positions = block * data.draw(st.integers(1, 4))
        got = scripted_forward(schedule, step, positions)
        want = reference_decide.scripted_forward(schedule, step, positions)
        assert got.logits.dtype == np.float32
        assert got.logits.tobytes() == want.logits.tobytes()
        assert got.positions.tolist() == positions and not got.tags.any()


# Confidences a float32 comparison would misjudge next to a Python-float
# threshold: float32(0.1) and float32(0.3) lie just above 0.1 and 0.3, but
# each equals its threshold once the threshold is rounded to float32.
_EDGE_CONFIDENCES = [0.0, 1.0, float(np.float32(0.1)), float(np.float32(0.3)), 0.5, 0.95]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_threshold_decide_matches_list_oracle(data):
    n_blocks = data.draw(st.integers(1, 8))
    n = data.draw(st.integers(1, 12))
    positions = np.asarray(sorted(data.draw(
        st.sets(st.integers(0, 200), min_size=n, max_size=n))), dtype=np.int64)
    conf = st.one_of(st.sampled_from(_EDGE_CONFIDENCES), st.floats(0.0, 1.0, width=32))
    confs = np.asarray(data.draw(st.lists(
        st.lists(conf, min_size=n, max_size=n), min_size=n_blocks, max_size=n_blocks)),
        dtype=np.float32)
    tokens = np.asarray(data.draw(st.lists(
        st.lists(st.integers(0, 9), min_size=n, max_size=n),
        min_size=n_blocks, max_size=n_blocks)), dtype=np.int64)
    valid = np.asarray(data.draw(st.lists(
        st.lists(st.booleans(), min_size=n, max_size=n),
        min_size=n_blocks, max_size=n_blocks)), dtype=bool)
    if data.draw(st.booleans()):
        valid[data.draw(st.integers(0, n_blocks - 1))] = False
    threshold = data.draw(st.sampled_from([0.0, 1.0, 0.1, 0.3, 0.9, 0.5]))

    accept = threshold_decide(confs, threshold, valid)
    assert accept.shape == confs.shape and not np.any(accept & ~valid)
    for b in range(n_blocks):
        entries = [
            (int(p), int(t), float(c))
            for p, t, c, ok in zip(positions, tokens[b], confs[b], valid[b]) if ok
        ]
        want_accepted, want_rejected = reference_decide.threshold_decide(entries, threshold)
        assert decision_entries(positions, tokens[b], confs[b], accept[b]) == want_accepted
        rest = valid[b] & ~accept[b]
        assert decision_entries(
            positions, tokens[b], confs[b], rest, ranked=True
        ) == want_rejected
    if valid.all():
        assert np.array_equal(threshold_decide(confs, threshold), accept)


@pytest.mark.parametrize("threshold", [0.1, 0.3])
def test_threshold_decide_compares_float32_confidences_exactly(threshold):
    # a higher second cell, so the edge cell can only be accepted by the
    # threshold, not as the forced top-1
    confs = np.float32([[threshold, threshold + 0.05]])
    assert float(confs[0, 0]) > threshold and not confs[0, 0] > threshold
    assert threshold_decide(confs, threshold)[0].tolist() == [True, True]
