import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockspec import (
    ConfigError,
    HardwareProfile,
    ModelConfig,
    RangeError,
    RunConfig,
    ScriptedModel,
    ScriptedSchedule,
    ShapeError,
    ToyModel,
    count_params,
    scripted_forward,
)
from blockspec.errors import from_document, load_document
from blockspec.layout import full_sequence_layout

from conftest import (
    TOY, block_decoded_positions, logits_to_prediction, random_state,
    rel_err, select, weight_checksum,
)
from dense_forward import softmax


# --- config -----------------------------------------------------------------

def test_config_rejects_bad_head_split():
    with pytest.raises(ConfigError):
        ModelConfig(**{**TOY, "n_heads": 3})


def test_config_rejects_clashing_special_tokens():
    with pytest.raises(ConfigError):
        ModelConfig(**{**TOY, "eos_token_id": TOY["mask_token_id"]})
    with pytest.raises(ConfigError):
        ModelConfig(**{**TOY, "eos_token_id": 128})


def test_config_round_trips_through_dict(toy_config):
    assert from_document(ModelConfig, toy_config.to_dict()) == toy_config
    with pytest.raises(ConfigError):
        from_document(ModelConfig, {**toy_config.to_dict(), "bogus": 1})


@pytest.mark.parametrize("cls,what,valid,required", [
    (ModelConfig, "model config", TOY, "seed"),
    (RunConfig, "run config", {"strategy": "fast", "gen_length": 32, "block_size": 32},
     "block_size"),
    (HardwareProfile, "profile", {"name": "x", "peak_flops": 1e12, "mem_bandwidth": 1e11},
     "mem_bandwidth"),
], ids=["model-config", "run-config", "profile"])
def test_from_document_names_the_document_and_the_key(tmp_path, cls, what, valid, required):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(valid))
    assert load_document(cls, path, what) == from_document(cls, valid) == cls(**valid)
    missing = {k: v for k, v in valid.items() if k != required}
    for raw, named in (([1, 2], "JSON object"), (missing, f"'{required}'"),
                       ({**valid, "bogus": 1}, "'bogus'")):
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError) as err:
            load_document(cls, path, what)
        assert str(err.value).startswith(f"{what} {path}: ") and named in str(err.value)


# --- parameter count ---------------------------------------------------------

def test_param_count_matches_hand_computation(toy_config, toy_model):
    # embedding 128*64, per layer 4*(64*64) attention + 64*256 + 256*64 MLP,
    # output projection 64*128; four layers.
    embedding = 128 * 64
    attention = 4 * 64 * 64
    mlp = 64 * 256 + 256 * 64
    out_proj = 64 * 128
    expected = embedding + 4 * (attention + mlp) + out_proj
    assert expected == 212992
    assert count_params(toy_config) == expected
    total = toy_model.emb.size + toy_model.wout.size
    for layer in toy_model.layers:
        total += sum(w.size for w in layer.values())
    assert total == expected


def test_toy_model_bounds_parameters_before_allocating(toy_config, monkeypatch):
    import blockspec.model as model_mod

    huge = ModelConfig(**{**TOY, "d_model": 200000, "n_heads": 1})
    with pytest.raises(ConfigError, match="parameters"):
        ToyModel(huge)
    monkeypatch.setattr(model_mod, "MAX_TOY_PARAMS", count_params(toy_config) - 1)
    with pytest.raises(ConfigError):
        ToyModel(toy_config)
    monkeypatch.setattr(model_mod, "MAX_TOY_PARAMS", count_params(toy_config))
    ToyModel(toy_config)


def test_init_is_deterministic(toy_config):
    a = ToyModel(toy_config)
    b = ToyModel(toy_config)
    assert weight_checksum(a) == weight_checksum(b)
    other = ToyModel(ModelConfig(**{**TOY, "seed": 8}))
    assert weight_checksum(a) != weight_checksum(other)


# --- logits_to_prediction -----------------------------------------------------

def test_prediction_uniform_scores_tie_to_token_zero():
    token, conf = logits_to_prediction(np.zeros(128, dtype=np.float32))
    assert token == 0
    assert conf == pytest.approx(1.0 / 128, abs=1e-7)


def test_prediction_one_hot_saturates():
    scores = np.zeros(128, dtype=np.float32)
    scores[5] = 20.0
    token, conf = logits_to_prediction(scores)
    assert token == 5
    assert conf > 0.999


def test_prediction_two_logit_softmax():
    token, conf = logits_to_prediction(np.array([2.0, 1.0], dtype=np.float32))
    expected = math.exp(2.0) / (math.exp(2.0) + math.exp(1.0))
    assert token == 0
    assert conf == pytest.approx(expected, abs=1e-6)
    assert conf == pytest.approx(0.7311, abs=1e-4)


def test_prediction_rejects_empty_and_nonfinite():
    with pytest.raises(ShapeError):
        logits_to_prediction(np.array([], dtype=np.float32))
    with pytest.raises(ShapeError):
        logits_to_prediction(np.array([1.0, np.nan], dtype=np.float32))


def test_softmax_normalizes():
    rng = np.random.default_rng(0)
    for _ in range(50):
        vec = rng.normal(size=128).astype(np.float32) * rng.uniform(0.1, 10)
        probs = softmax(vec)
        assert abs(float(probs.sum()) - 1.0) < 1e-6
        token, conf = logits_to_prediction(vec)
        assert 0.0 < conf <= 1.0


def test_logits_view_row_lookup():
    from blockspec.model import LogitsView

    logits = np.arange(15, dtype=np.float32).reshape(5, 3)
    view = LogitsView(logits, [5, 6, 5, 7, 7], [0, 0, 1, 0, 0])
    assert view.row(5) == 0 and view.row(np.int64(5), 1) == 2 and view.row(6) == 1
    picked = select(view, [6, 5])
    assert picked.logits.tolist() == [[3, 4, 5], [0, 1, 2]]
    assert picked.positions.tolist() == [6, 5] and picked.tags.tolist() == [0, 0]
    with pytest.raises(ShapeError, match="position 8 tag 0: 0 rows"):
        view.row(8)
    with pytest.raises(ShapeError, match="position 6 tag 1: 0 rows"):
        select(view, [5, 6], tag=1)
    with pytest.raises(ShapeError, match="position 7 tag 0: 2 rows"):
        view.row(7)


def _shape_error(call):
    with pytest.raises(ShapeError) as err:
        call()
    return str(err.value)


def test_logits_view_rows_raise_like_row():
    from blockspec.model import LogitsView

    view = LogitsView(np.zeros((5, 3), np.float32), [5, 6, 5, 7, 7], [0, 0, 1, 0, 0])
    assert view.rows([6, 5]).tolist() == [1, 0]
    assert view.rows([5], np.array([[0], [1]])).tolist() == [[0], [2]]
    for position, tag in [(8, 0), (6, 1), (4, 1), (7, 0)]:
        want = _shape_error(lambda: view.row(position, tag))
        assert _shape_error(lambda: view.rows([5, position], tag)) == want
        assert _shape_error(lambda: view.rows([[position, 5]], [[tag], [0]])) == want
    assert "2 rows" in _shape_error(lambda: view.rows([6, 7]))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_logits_view_rows_equal_pairwise_lookup(data):
    from blockspec.model import LogitsView

    pairs = data.draw(st.lists(st.tuples(st.integers(-5, 40), st.integers(0, 7)), min_size=1,
                               max_size=30))
    positions, tags = (np.array(a, dtype=np.int64) for a in zip(*pairs))
    view = LogitsView(np.zeros((len(pairs), 2), np.float32), positions, tags)
    query = data.draw(st.lists(st.integers(-8, 45), min_size=1, max_size=12))
    tag = data.draw(st.integers(-1, 8))
    hits = [[i for i, pair in enumerate(pairs) if pair == (p, tag)] for p in query]
    bad = [(p, len(h)) for p, h in zip(query, hits) if len(h) != 1]
    if bad:
        position, count = bad[0]
        want = f"position {position} tag {tag}: {count} rows"
        assert _shape_error(lambda: view.rows(query, tag)) == want
    else:
        assert view.rows(query, tag).tolist() == [h[0] for h in hits]
        assert [view.row(p, tag) for p in query] == [h[0] for h in hits]


# --- toy forward ---------------------------------------------------------------

def test_forward_single_token_shape(toy_model):
    view, kv = toy_model.forward([3], full_sequence_layout(1))
    assert view.logits.shape == (1, 128)
    assert len(kv) == 4 and kv[0][0].shape == (1, 4, 16)


def test_forward_is_pure(toy_model):
    """Equal inputs give equal outputs, and later forwards, with other
    tokens on the same layout and on a two-tag layout, leave every array an
    earlier forward returned as it was: no buffer outlives its call."""
    from blockspec.layout import AttentionLayout

    layout = full_sequence_layout(9)
    toks = np.arange(9)
    a, a_kv = toy_model.forward(toks, layout)
    returned = [a.logits] + [x for kv in a_kv for x in kv]
    kept = [x.tobytes() for x in returned]
    two_tags = AttentionLayout(query_positions=np.arange(12) % 6,
                               query_tags=np.arange(12) // 6,
                               query_shared=np.zeros(12, dtype=bool))
    toy_model.forward(toks[::-1], layout)
    toy_model.forward(np.arange(12) + 40, two_tags)
    assert [x.tobytes() for x in returned] == kept
    b, _ = toy_model.forward(toks, layout)
    assert np.array_equal(a.logits, b.logits)


def test_forward_rejects_bad_tokens(toy_model):
    with pytest.raises(ShapeError):
        toy_model.forward([999], full_sequence_layout(1))
    with pytest.raises(ShapeError):
        toy_model.forward([1, 2], full_sequence_layout(1))


def test_forward_rejects_positions_outside_the_rope_range(toy_model):
    from blockspec.layout import AttentionLayout
    from blockspec.model import MAX_POSITION

    for position in (-1, MAX_POSITION):
        layout = AttentionLayout(query_positions=[position], query_tags=[0],
                                 query_shared=[False])
        with pytest.raises(RangeError, match="position IDs"):
            toy_model.forward([3], layout)


def test_rope_table_grows_without_rewriting_rows(toy_config):
    model = ToyModel(toy_config)
    model.forward(np.arange(5), full_sequence_layout(5))
    small = model._rope_table
    kept = [a.tobytes() for a in small]
    model.forward(np.arange(7), full_sequence_layout(7))
    grown = model._rope_table
    assert len(small[0]) == 5 and len(grown[0]) == 7
    assert [a.tobytes() for a in small] == kept
    for old, new in zip(small[:2], grown[:2]):
        assert new[:5].tobytes() == old.tobytes()


def test_mask_soundness_invisible_keys_never_matter(toy_model, toy_config):
    """Changing tokens at positions a query cannot see leaves its logits
    unchanged (perturbation over a two-block mutually-invisible layout)."""
    from blockspec.layout import AttentionLayout

    n = 6
    layout = AttentionLayout(
        query_positions=tuple(range(n)) * 2,
        query_tags=(0,) * n + (1,) * n,
        query_shared=(False,) * (2 * n),
    )
    rng = np.random.default_rng(5)
    toks = rng.integers(0, 100, size=2 * n)
    base, _ = toy_model.forward(toks, layout)
    perturbed = toks.copy()
    perturbed[n:] = rng.integers(0, 100, size=n)
    new, _ = toy_model.forward(perturbed, layout)
    assert np.array_equal(base.logits[:n], new.logits[:n])
    assert not np.array_equal(base.logits[n:], new.logits[n:])


def test_cache_equivalence_dense_vs_cached(toy_model, toy_config):
    """Full forward == cached-prefix + query-suffix forward within 1e-5."""
    from blockspec.cache import cache_view, refresh_dual_cache
    from blockspec.layout import build_block_layout

    rng = np.random.default_rng(17)
    for _ in range(5):
        state = random_state(rng, toy_config, gen_length=64, block_size=32,
                             n_decoded=int(rng.integers(0, 8)))
        block = state.block_range()
        cache, _ = refresh_dual_cache(toy_model, state, block)
        view = cache_view(cache, block)
        layout = build_block_layout(block, view.positions)
        cached, _ = toy_model.forward(state.tokens[block[0]:block[1]], layout, view)

        dense, _ = toy_model.forward(state.tokens, full_sequence_layout(state.seq_len))
        rows = [dense.row(p) for p in range(block[0], block[1])]
        assert rel_err(cached.logits, dense.logits[rows]) <= 1e-5


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 70), st.integers(1, 130), st.floats(1e-3, 1e3), st.integers(0, 2**32 - 1))
def test_layer_norm_matches_mean_var_form_bitwise(rows, width, scale, seed):
    import dense_forward
    from blockspec.model import _layer_norm

    rng = np.random.default_rng(seed)
    x = (rng.standard_normal((rows, width)) * scale).astype(np.float32)
    assert _layer_norm(x).tobytes() == dense_forward._layer_norm(x).tobytes()


# Key counts where numpy's pairwise sum of a row changes shape: a row under
# one group of 8, one leaf of at most 128 values, and a second split.
KEY_EDGES = [1, 7, 8, 9, 127, 128, 129, 255, 256, 257]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_key_reductions_equal_numpy_over_contiguous_rows(data):
    """``_key_sum`` and the column max over the keys of [keys, heads, rows]
    scores equal numpy's sum and max of each contiguous row of keys byte
    for byte, on any trailing slice of the heads, with -inf
    scores and exact zero weights where masked keys are."""
    from blockspec.model import _key_sum

    keys = data.draw(st.one_of(st.sampled_from(KEY_EDGES), st.integers(1, 1100)), label="keys")
    rows = data.draw(st.integers(1, 160), label="rows")
    heads = data.draw(st.integers(1, 4), label="heads")
    first = data.draw(st.integers(0, heads - 1), label="first head")
    spread = data.draw(st.floats(0.1, 30.0), label="spread")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    scores = (rng.standard_normal((keys, heads, rows)) * spread).astype(np.float32)
    scores[rng.random(scores.shape) < data.draw(st.floats(0.0, 0.5), label="masked")] = -np.inf
    scores[rng.integers(keys)] = 0.0  # every column sees a key
    part = scores[:, first:]
    by_row = np.ascontiguousarray(np.moveaxis(part, 0, -1))
    assert part.max(axis=0).tobytes() == by_row.max(-1).tobytes()
    weights = np.exp(part - by_row.max(-1))
    by_row = np.ascontiguousarray(np.moveaxis(weights, 0, -1))
    assert _key_sum(weights).tobytes() == by_row.sum(-1).tobytes()


def _within_ulps(got: np.ndarray, want: np.ndarray, ulps: int) -> bool:
    """Bitwise equal at 0 ulps; else no entry further from `want` than
    `ulps` float32 spacings of want's largest magnitude."""
    if not ulps:
        return got.tobytes() == want.tobytes()
    scale = np.spacing(np.abs(want).max())
    return bool(np.abs(got.astype(np.float64) - want).max() <= ulps * scale)


# At d_head 1, V·P is a matrix-vector product whose BLAS rounding follows
# the weights' layout, so the fast path and the dense one round apart.  On
# these shapes and layouts the default (AVX-512), Haswell and Sandybridge
# kernels differ by at most 156 spacings in the logits and 191 in the K/V.
D_HEAD_1_ULPS = 256


@pytest.mark.parametrize("shape,ulps", [
    ({}, 0),
    ({"d_model": 60, "n_heads": 4}, 0),               # d_head 15: RoPE passes its last column
    ({"d_model": 32, "n_heads": 4, "d_ff": 80}, 0),   # d_head 8, d_ff not 4 * d_model
    ({"d_model": 48, "n_heads": 3}, 0),               # an odd number of heads
    ({"d_model": 8, "n_heads": 4}, 0),                # d_head 2, the smallest held bitwise
    ({"d_model": 4, "n_heads": 4}, D_HEAD_1_ULPS),
    ({"d_model": 8, "n_heads": 8}, D_HEAD_1_ULPS),
], ids=["toy", "odd-d_head", "d_head-8", "3-heads", "d_head-2", "d_head-1", "d_head-1-8-heads"])
def test_forward_matches_dense_reference_bitwise(shape, ulps):
    """The head-major in-place attention path equals the dense einsum /
    np.where / softmax forward bit for bit at d_head >= 2, logits and every
    layer's K/V, over the full, block, stage-1 and stage-2 layouts of a
    live decode, and within ``D_HEAD_1_ULPS`` at d_head 1; a forward
    without logits returns the same K/V and no view."""
    from blockspec import DecodeState
    from blockspec.cache import cache_view, refresh_dual_cache
    from blockspec.decoder import apply_outcome, threshold_step
    from blockspec.layout import build_block_layout, build_spec_layout
    from blockspec.speculative import SpecSet, select_candidates
    from dense_forward import dense_forward

    config = ModelConfig(**{**TOY, **shape})
    model = ToyModel(config)
    rng = np.random.default_rng(23)
    cases = []
    for prompt_len, gen_length in ((19, 96), (40, 96), (19, 256), (40, 256)):
        prompt = rng.integers(0, 120, size=prompt_len)
        state = DecodeState.new(prompt, gen_length, 32, config.mask_token_id)
        block = state.block_range()
        cache, _ = refresh_dual_cache(model, state, block)
        view = cache_view(cache, block)
        cases.append((state.tokens.copy(), full_sequence_layout(state.seq_len), None))
        block_layout = build_block_layout(block, view.positions)
        while block_decoded_positions(state).size < 8:
            tokens = state.tokens[block[0]:block[1]].copy()
            cases.append((tokens, block_layout, view))
            logits, _ = model.forward(tokens, block_layout, view)
            outcome = threshold_step(state, logits, 0.9)
            apply_outcome(state, outcome)
        for stage, k in ((1, 2), (2, 4)):
            spec_set = SpecSet.build(select_candidates(outcome, k), stage)
            layout = build_spec_layout(block, spec_set, block_decoded_positions(state),
                                       view.positions)
            cand = {c.position: c.token for c in spec_set.candidates}
            subsets = {tag: {spec_set.candidates[j - 1].position for j in subset}
                       for tag, subset in spec_set.blocks}
            tokens = np.array([cand[p] if p in subsets.get(t, ()) else state.tokens[p]
                               for p, t in zip(layout.query_positions, layout.query_tags)])
            cases.append((tokens, layout, view))
    # full-sequence forwards under one group of 8 keys and at the edge of
    # numpy's 128-value pairwise leaf
    for n in (1, 5, 128, 129):
        cases.append((rng.integers(0, 120, size=n), full_sequence_layout(n), None))
    # a block of one query row, whose weights BLAS takes as a vector
    state = DecodeState.new(rng.integers(0, 120, size=19), 4, 1, config.mask_token_id)
    block = state.block_range()
    view = cache_view(refresh_dual_cache(model, state, block)[0], block)
    cases.append((state.tokens[block[0]:block[1]].copy(), build_block_layout(block, view.positions),
                  view))
    assert {layout.stage for _, layout, _ in cases} == {0, 1, 2}
    for tokens, layout, ctx in cases:
        got, got_kv = model.forward(tokens, layout, ctx)
        want, want_kv = dense_forward(model, tokens, layout, ctx)
        assert _within_ulps(got.logits, want.logits, ulps)
        assert len(got_kv) == len(want_kv) == config.n_layers
        for (gk, gv), (wk, wv) in zip(got_kv, want_kv):
            assert _within_ulps(gk, wk, ulps) and _within_ulps(gv, wv, ulps)
        no_view, kv_only = model.forward(tokens, layout, ctx, logits=False)
        assert no_view is None and len(kv_only) == config.n_layers
        for (gk, gv), (k, v) in zip(got_kv, kv_only):
            assert gk.tobytes() == k.tobytes() and gv.tobytes() == v.tobytes()


# --- scripted model -------------------------------------------------------------

def _schedule(entries, vocab=128, mask_id=126):
    return ScriptedSchedule(steps=entries, vocab_size=vocab, mask_token_id=mask_id)


def test_scripted_round_trip():
    sched = _schedule([{3: (17, 0.95)}])
    view = scripted_forward(sched, 0, [3])
    token, conf = logits_to_prediction(view.logits[0])
    assert token == 17
    assert conf == pytest.approx(0.95, abs=1e-6)


def test_scripted_unlisted_position_defaults_to_never_accept():
    sched = _schedule([{3: (17, 0.95)}])
    view = scripted_forward(sched, 0, [9])
    token, conf = logits_to_prediction(view.logits[0])
    assert token == 126
    assert conf < 0.05


def test_scripted_is_deterministic_and_bounded():
    sched = _schedule([{3: (17, 0.95)}, {3: (17, 0.99)}])
    a = scripted_forward(sched, 1, [3])
    b = scripted_forward(sched, 1, [3])
    assert np.array_equal(a.logits, b.logits)
    with pytest.raises(RangeError):
        scripted_forward(sched, 2, [3])


def test_scripted_out_of_range_step_compiles_nothing():
    sched = _schedule([{3: (17, 0.95)}, {3: (17, 0.99)}])
    for step in (2, -1):
        with pytest.raises(RangeError):
            scripted_forward(sched, step, [3])
    assert not sched._compiled
    scripted_forward(sched, 1, [3])
    assert list(sched._compiled) == [1]


def _compile_step_reference(entry, vocab, mask_id):
    """A schedule step's span arrays built from a list of (token,
    confidence) tuples, one ``math.log`` per slot into a float32 list."""
    positions = np.fromiter(entry, dtype=np.int64, count=len(entry))
    base = int(positions.min()) if entry else 0
    span = int(positions.max()) - base + 1 if entry else 0
    pairs = np.empty((span + 1, 2), dtype=np.float64)
    pairs[:] = (mask_id, 0.0)
    if entry:
        pairs[positions - base] = list(entry.values())
    tokens = pairs[:, 0].astype(np.int32)
    c = np.minimum(np.maximum(pairs[:, 1], 2.0 / vocab), 1.0 - 1e-9)
    n = np.where(tokens == mask_id, vocab - 1, vocab - 2)
    peaks = np.array([math.log(x) for x in (c * n / (1.0 - c)).tolist()], dtype=np.float32)
    return base, tokens, peaks


@st.composite
def _schedule_steps(draw):
    vocab = draw(st.integers(3, 300))
    mask_id = draw(st.integers(0, vocab - 1))
    # spans from one slot to a few thousand, densely or sparsely filled
    base = draw(st.integers(0, 60_000))
    width = draw(st.integers(1, 4_000))
    token = st.one_of(st.just(mask_id), st.integers(0, vocab - 1))
    conf = st.one_of(st.sampled_from([0.0, 1.0, 1e-300, 1.0 - 1e-12]),
                     st.floats(0.0, 1.0))
    steps = draw(st.lists(
        st.dictionaries(st.integers(base, base + width - 1), st.tuples(token, conf), max_size=300),
        min_size=1, max_size=3,
    ))
    return vocab, mask_id, steps


@settings(max_examples=200, deadline=None)
@given(_schedule_steps())
def test_compiled_step_equals_the_list_of_tuples_construction(case):
    vocab, mask_id, steps = case
    sched = _schedule(steps, vocab=vocab, mask_id=mask_id)
    for step, entry in enumerate(steps):
        base, tokens, peaks = sched.compiled(step)
        want_base, want_tokens, want_peaks = _compile_step_reference(entry, vocab, mask_id)
        assert base == want_base
        assert tokens.dtype == want_tokens.dtype and tokens.tobytes() == want_tokens.tobytes()
        assert peaks.dtype == want_peaks.dtype and peaks.tobytes() == want_peaks.tobytes()


def test_scripted_confidence_survives_mask_suppression(toy_config):
    """The decode path drops the mask token before decisions; scripted rows
    are built so that does not move their confidence."""
    from blockspec.decoder import masked_greedy

    sched = _schedule([{3: (17, 0.95), 4: (2, 0.30)}])
    view = scripted_forward(sched, 0, [3, 4])
    toks, confs = masked_greedy(view, toy_config.mask_token_id, np.arange(2))
    assert toks.tolist() == [17, 2]
    assert confs[0] == pytest.approx(0.95, abs=1e-6)
    assert confs[1] == pytest.approx(0.30, abs=1e-6)


def test_scripted_model_repeats_last_entry(toy_config):
    sched = _schedule([{3: (17, 0.95)}])
    model = ScriptedModel(toy_config, sched)
    layout = full_sequence_layout(5)
    view, _ = model.forward([0, 1, 2, 3, 4], layout, step=40)
    assert logits_to_prediction(view.logits[view.row(3)])[0] == 17


def test_scripted_model_kv_is_read_only_zeros(toy_config):
    model = ScriptedModel(toy_config, _schedule([{3: (17, 0.95)}]))
    _, new_kv = model.forward([0, 1, 2, 3, 4], full_sequence_layout(5))
    assert len(new_kv) == toy_config.n_layers
    for k, v in new_kv:
        for a in (k, v):
            assert a.shape == (5, toy_config.n_heads, toy_config.d_head)
            assert a.dtype == np.float32 and not a.any()
            with pytest.raises(ValueError):
                a[0] = 1.0
    no_view, kv_only = model.forward([0, 1, 2, 3, 4], full_sequence_layout(5), logits=False)
    assert no_view is None and len(kv_only) == toy_config.n_layers
    assert all(k.shape == v.shape == (5, toy_config.n_heads, toy_config.d_head)
               and not k.any() and not v.any() for k, v in kv_only)


def test_scripted_model_rejects_schedule_with_other_mask_token(toy_config):
    with pytest.raises(ConfigError):
        ScriptedModel(toy_config, _schedule([{3: (17, 0.95)}], mask_id=125))


def test_scripted_schedule_validates_confidence():
    with pytest.raises(ConfigError):
        _schedule([{3: (17, 1.5)}])
