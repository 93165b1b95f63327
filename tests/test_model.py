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
from blockspec.errors import from_document
from blockspec.layout import full_sequence_layout
from blockspec.model import softmax

from conftest import TOY, logits_to_prediction, random_state, rel_err, select, weight_checksum


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
    assert from_document(ModelConfig, toy_config.to_dict(), "model config") == toy_config
    with pytest.raises(ConfigError):
        from_document(ModelConfig, {**toy_config.to_dict(), "bogus": 1}, "model config")


@pytest.mark.parametrize("cls,what,valid,required", [
    (ModelConfig, "model config", TOY, "seed"),
    (RunConfig, "run config", {"strategy": "fast", "gen_length": 32, "block_size": 32},
     "block_size"),
    (HardwareProfile, "profile", {"name": "x", "peak_flops": 1e12, "mem_bandwidth": 1e11},
     "mem_bandwidth"),
], ids=["model-config", "run-config", "profile"])
def test_from_document_names_the_document_and_the_key(cls, what, valid, required):
    assert from_document(cls, valid, what) == cls(**valid)
    missing = {k: v for k, v in valid.items() if k != required}
    for raw, named in (([1, 2], "JSON object"), (missing, f"'{required}'"),
                       ({**valid, "bogus": 1}, "'bogus'")):
        with pytest.raises(ConfigError) as err:
            from_document(cls, raw, what)
        assert what in str(err.value) and named in str(err.value)


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
    layout = full_sequence_layout(9)
    toks = np.arange(9)
    a, _ = toy_model.forward(toks, layout)
    b, _ = toy_model.forward(toks, layout)
    assert np.array_equal(a.logits, b.logits)


def test_forward_rejects_bad_tokens(toy_model):
    with pytest.raises(ShapeError):
        toy_model.forward([999], full_sequence_layout(1))
    with pytest.raises(ShapeError):
        toy_model.forward([1, 2], full_sequence_layout(1))


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
        cache, _ = refresh_dual_cache(toy_model, state, block, epoch=1)
        view = cache_view(cache, epoch=1)
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


def test_forward_matches_dense_reference_bitwise(toy_model, toy_config):
    """The head-major in-place attention path equals the dense einsum /
    np.where / softmax forward bit for bit, logits and every layer's K/V,
    over the full, block, stage-1 and stage-2 layouts of a live decode."""
    from blockspec import DecodeState
    from blockspec.cache import cache_view, refresh_dual_cache
    from blockspec.decoder import apply_outcome, threshold_step
    from blockspec.layout import build_block_layout, build_spec_layout
    from blockspec.speculative import SpecSet, select_candidates
    from dense_forward import dense_forward

    rng = np.random.default_rng(23)
    cases = []
    for prompt_len in (19, 40):
        prompt = rng.integers(0, 120, size=prompt_len)
        state = DecodeState.new(prompt, 96, 32, toy_config.mask_token_id)
        block = state.block_range()
        cache, _ = refresh_dual_cache(toy_model, state, block, epoch=1)
        view = cache_view(cache, epoch=1)
        cases.append((state.tokens.copy(), full_sequence_layout(state.seq_len), None))
        block_layout = build_block_layout(block, view.positions)
        while state.block_decoded_positions().size < 8:
            tokens = state.tokens[block[0]:block[1]].copy()
            cases.append((tokens, block_layout, view))
            logits, _ = toy_model.forward(tokens, block_layout, view)
            outcome = threshold_step(state, logits, 0.9)
            apply_outcome(state, outcome)
        for stage, k in ((1, 2), (2, 4)):
            spec_set = SpecSet.build(select_candidates(outcome, k), stage)
            layout = build_spec_layout(block, spec_set, stage,
                                       state.block_decoded_positions(), view.positions)
            cand = {c.position: c.token for c in spec_set.candidates}
            subsets = {tag: {spec_set.candidates[j - 1].position for j in subset}
                       for tag, subset in spec_set.blocks}
            tokens = np.array([cand[p] if p in subsets.get(t, ()) else state.tokens[p]
                               for p, t in zip(layout.query_positions, layout.query_tags)])
            cases.append((tokens, layout, view))
    assert {layout.stage for _, layout, _ in cases} == {0, 1, 2}
    for tokens, layout, ctx in cases:
        got, got_kv = toy_model.forward(tokens, layout, ctx)
        want, want_kv = dense_forward(toy_model, tokens, layout, ctx)
        assert np.array_equal(got.logits, want.logits)
        assert len(got_kv) == len(want_kv) == toy_config.n_layers
        for (gk, gv), (wk, wv) in zip(got_kv, want_kv):
            assert np.array_equal(gk, wk) and np.array_equal(gv, wv)


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


def test_scripted_confidence_survives_mask_suppression(toy_config):
    """The decode path drops the mask token before decisions; scripted rows
    are built so that does not move their confidence."""
    from blockspec.decoder import masked_greedy

    sched = _schedule([{3: (17, 0.95), 4: (2, 0.30)}])
    view = scripted_forward(sched, 0, [3, 4])
    toks, confs = masked_greedy(view, toy_config.mask_token_id)
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


def test_scripted_model_rejects_schedule_with_other_mask_token(toy_config):
    with pytest.raises(ConfigError):
        ScriptedModel(toy_config, _schedule([{3: (17, 0.95)}], mask_id=125))


def test_scripted_schedule_validates_confidence():
    with pytest.raises(ConfigError):
        _schedule([{3: (17, 1.5)}])
