import numpy as np
import pytest

from blockspec import ShapeError, StaleCacheError
from blockspec.cache import cache_view, refresh_dual_cache
from blockspec.layout import build_block_layout, full_sequence_layout
from blockspec.model import check_compatible

from conftest import n_prefix, n_suffix, random_state, rel_err
from shared_kv import EmptySharedError, build_shared_kv, shared_view


@pytest.fixture
def refreshed(toy_model, toy_config):
    rng = np.random.default_rng(23)
    state = random_state(rng, toy_config, prompt_len=20, gen_length=128,
                         block_size=32, n_decoded=10)
    cache, draft = refresh_dual_cache(toy_model, state, state.block_range(), epoch=1)
    return state, cache, draft


def test_refresh_region_sizes(refreshed):
    state, cache, draft = refreshed
    assert n_prefix(cache) == 20
    assert n_suffix(cache) == 96
    assert cache.size == 20 + 96
    assert draft.n_rows == state.seq_len


def test_refresh_epoch_increments(toy_model, toy_config):
    rng = np.random.default_rng(2)
    state = random_state(rng, toy_config)
    c1, _ = refresh_dual_cache(toy_model, state, state.block_range(), epoch=1)
    c2, _ = refresh_dual_cache(toy_model, state, state.block_range(), epoch=2)
    assert c1.refresh_epoch == 1
    assert c2.refresh_epoch == 2


def test_region_union_is_exact_partition(refreshed):
    state, cache, _ = refreshed
    start, end = cache.block_range
    block = set(range(start, end))
    cached = set(int(p) for p in cache.positions)
    assert cached & block == set()
    assert cached | block == set(range(state.seq_len))


def test_cached_decode_equals_dense_snapshot(toy_model, toy_config):
    rng = np.random.default_rng(31)
    for _ in range(5):
        state = random_state(rng, toy_config, gen_length=96, block_size=32,
                             active_block=int(rng.integers(0, 2)),
                             n_decoded=int(rng.integers(0, 10)))
        block = state.block_range()
        cache, _ = refresh_dual_cache(toy_model, state, block, epoch=1)
        view = cache_view(cache, epoch=1)
        layout = build_block_layout(block, view.positions)
        cached, _ = toy_model.forward(state.tokens[block[0]:block[1]], layout, view)
        dense, _ = toy_model.forward(state.tokens, full_sequence_layout(state.seq_len))
        rows = [dense.row(p) for p in range(block[0], block[1])]
        assert rel_err(cached.logits, dense.logits[rows]) <= 1e-5


def test_cache_is_immutable_across_decode_steps(refreshed, toy_model):
    state, cache, _ = refreshed
    block = state.block_range()
    before = [k.tobytes() for k in cache.keys]
    view = cache_view(cache, epoch=1)
    layout = build_block_layout(block, view.positions)
    for _ in range(3):
        toy_model.forward(state.tokens[block[0]:block[1]], layout, view)
    after = [k.tobytes() for k in cache.keys]
    assert before == after


def test_shared_kv_covers_exactly_decoded_positions(refreshed, toy_model):
    state, cache, _ = refreshed
    shared = build_shared_kv(toy_model, state, state.block_range(), cache)
    decoded = state.block_decoded_positions()
    assert shared.size == 10
    assert np.array_equal(np.sort(shared.positions), np.sort(decoded))


def test_shared_kv_requires_decoded(toy_model, toy_config):
    rng = np.random.default_rng(4)
    state = random_state(rng, toy_config, n_decoded=0)
    cache, _ = refresh_dual_cache(toy_model, state, state.block_range(), epoch=1)
    with pytest.raises(EmptySharedError):
        build_shared_kv(toy_model, state, state.block_range(), cache)


def test_shared_kv_matches_explicit_substitution(refreshed, toy_model):
    """build_shared_kv gives the same K/V a test harvests by hand from the
    main block's forward."""
    state, cache, _ = refreshed
    block = state.block_range()
    view = cache_view(cache, epoch=1)
    layout = build_block_layout(block, view.positions)
    _, new_kv = toy_model.forward(state.tokens[block[0]:block[1]], layout, view)
    decoded = state.block_decoded_positions()
    rows = decoded - block[0]
    shared = build_shared_kv(toy_model, state, block, cache)
    order = np.argsort(shared.positions)
    for li in range(len(shared.keys)):
        assert np.array_equal(shared.keys[li][order], new_kv[li][0][np.sort(rows)])
        assert np.array_equal(shared.values[li][order], new_kv[li][1][np.sort(rows)])


def test_cache_view_counts(refreshed, toy_model):
    state, cache, _ = refreshed
    shared = build_shared_kv(toy_model, state, state.block_range(), cache)
    with_shared = shared_view(cache, shared, epoch=1)
    assert with_shared.size == 20 + 96 + 10
    plain = cache_view(cache, epoch=1)
    assert plain.size == 116
    assert np.array_equal(plain.positions, cache.positions)
    assert np.array_equal(with_shared.positions[-10:], shared.positions)


def test_view_checks_layout_context_positions(refreshed, toy_config):
    state, cache, _ = refreshed
    view = cache_view(cache, epoch=1)
    with pytest.raises(ValueError):
        cache.positions[0] = 1
    own = build_block_layout(state.block_range(), view.positions)
    assert own.context_positions is view.positions
    check_compatible(toy_config, own, view)
    check_compatible(toy_config, build_block_layout(state.block_range(), cache.positions.tolist()), view)
    shifted = build_block_layout(state.block_range(), cache.positions + 1)
    with pytest.raises(ShapeError, match="context positions disagree"):
        check_compatible(toy_config, shifted, view)


def test_cache_view_rejects_stale_epoch(refreshed):
    _, cache, _ = refreshed
    with pytest.raises(StaleCacheError):
        cache_view(cache, epoch=2)


def test_truncated_cache_drops_tail(refreshed):
    state, cache, _ = refreshed
    cut = cache.truncated(state.prompt_len + 64)
    assert cut.positions.max() < state.prompt_len + 64
    assert n_prefix(cut) == 20
    assert n_suffix(cut) == 32
    assert cut.refresh_epoch == cache.refresh_epoch
    for k in cut.keys:
        assert k.shape[0] == cut.size
