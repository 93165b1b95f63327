import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockspec import RangeError
from blockspec.layout import (
    AttentionLayout,
    build_block_layout,
    build_spec_layout,
    full_sequence_layout,
    spec_decision_rows,
)
from blockspec.model import LogitsView
from blockspec.speculative import Candidate, CandidateSet, SpecSet

from reference_layout import mask_allows, spec_layout_fields
from shared_kv import isolate, rows_of_tag


def _candidates(block_start, n):
    return CandidateSet(tuple(
        Candidate(block_start + 2 * i + 1, 10 + i, 0.8 - 0.1 * i) for i in range(n)
    ))


def _spec_layout(stage, n_candidates, block=(20, 52), n_decoded=0, cache=116):
    cands = _candidates(block[0], n_candidates)
    spec = SpecSet.build(cands, stage=stage)
    decoded = [block[1] - 1 - i for i in range(n_decoded)]
    ctx = list(range(block[0])) + list(range(block[1], block[1] + cache - block[0]))
    return build_spec_layout(block, spec, decoded, ctx), spec


def test_block_layout_full_visibility():
    ctx = list(range(20)) + list(range(52, 148))
    layout = build_block_layout((20, 52), ctx)
    assert layout.n_queries == 32
    assert layout.n_keys == 148
    grid = layout.dense_mask()
    assert grid.all()


def test_block_layout_small_blocks():
    layout = build_block_layout((20, 25), list(range(20)))
    assert layout.n_queries == 5
    assert layout.query_positions.tolist() == [20, 21, 22, 23, 24]


def test_block_layout_rejects_empty_block():
    with pytest.raises(RangeError):
        build_block_layout((20, 20), [])


def test_stage1_layout_counts_and_isolation():
    layout, spec = _spec_layout(stage=1, n_candidates=2)
    assert spec.n_blocks == 3
    assert layout.n_queries == 128  # 4 blocks of 32
    # a tag-1 query must not see a tag-2 key
    q = int(rows_of_tag(layout, 1)[0])
    k2 = int(rows_of_tag(layout, 2)[0]) + layout.n_context
    k1 = int(rows_of_tag(layout, 1)[1]) + layout.n_context
    assert not mask_allows(layout, q, k2)
    assert mask_allows(layout, q, k1)
    assert mask_allows(layout, q, 0)  # cache key


def test_stage2_layout_row_count():
    layout, spec = _spec_layout(stage=2, n_candidates=4, n_decoded=12)
    assert spec.n_blocks == 7
    assert layout.n_queries == 32 + 7 * 20


def test_stage2_shared_rows_visible_across_tags():
    layout, _ = _spec_layout(stage=2, n_candidates=4, n_decoded=12)
    shared_rows = [j for j, s in enumerate(layout.query_shared) if s]
    assert len(shared_rows) == 12
    q2 = int(rows_of_tag(layout, 2)[0])
    assert mask_allows(layout, q2, layout.n_context + shared_rows[0])
    # but not the main block's masked rows
    masked_main = [
        j for j in rows_of_tag(layout, 0) if not layout.query_shared[j]
    ]
    assert not mask_allows(layout, q2, layout.n_context + masked_main[0])


def test_position_replication():
    layout, _ = _spec_layout(stage=1, n_candidates=2)
    main = [layout.query_positions[j] for j in rows_of_tag(layout, 0)]
    for tag in (1, 2, 3):
        spec_pos = [layout.query_positions[j] for j in rows_of_tag(layout, tag)]
        assert spec_pos == main
    stage2, _ = _spec_layout(stage=2, n_candidates=4, n_decoded=12)
    main2 = [stage2.query_positions[j] for j in rows_of_tag(stage2, 0)]
    for tag in range(1, 8):
        spec_pos = [stage2.query_positions[j] for j in rows_of_tag(stage2, tag)]
        assert set(spec_pos) <= set(main2)


def test_visibility_symmetric_within_tags_and_never_across():
    layout, _ = _spec_layout(stage=1, n_candidates=2)
    nc = layout.n_context
    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b = rng.integers(0, layout.n_queries, size=2)
        allowed = mask_allows(layout, int(a), nc + int(b))
        reverse = mask_allows(layout, int(b), nc + int(a))
        assert allowed == reverse
        if layout.query_tags[a] != layout.query_tags[b]:
            assert not allowed


def test_isolate_matches_block_layout():
    """The main block of a speculative layout, isolated, is the plain block
    layout (degenerate no-speculation case)."""
    layout, _ = _spec_layout(stage=1, n_candidates=2)
    iso, rows = isolate(layout, 0)
    plain = build_block_layout((20, 52), layout.context_positions)
    assert iso.query_positions.tolist() == plain.query_positions.tolist()
    assert iso.context_positions.tolist() == plain.context_positions.tolist()
    assert np.array_equal(iso.dense_mask(), plain.dense_mask())
    assert rows.tolist() == list(range(32))


def test_isolate_stage2_appends_shared_context():
    layout, _ = _spec_layout(stage=2, n_candidates=4, n_decoded=12)
    iso, rows = isolate(layout, 3)
    assert iso.n_queries == 20
    shared = tuple(p for p, s in zip(layout.query_positions, layout.query_shared) if s)
    assert iso.context_positions[-12:].tolist() == list(shared)
    assert iso.dense_mask().all()


def test_mask_allows_bounds():
    layout = build_block_layout((0, 4), [])
    with pytest.raises(IndexError):
        mask_allows(layout, 0, 99)
    with pytest.raises(IndexError):
        mask_allows(layout, 99, 0)


def test_stage2_without_decoded_positions_speculates_on_every_block_row():
    """With nothing decoded, no row is shared, so a stage-2 layout holds the
    stage-1 rows."""
    stage2, _ = _spec_layout(stage=2, n_candidates=4, n_decoded=0)
    stage1, _ = _spec_layout(stage=1, n_candidates=4, n_decoded=0)
    assert stage2.stage == 2 and not stage2.query_shared.any()
    assert stage2.query_positions.tolist() == stage1.query_positions.tolist()
    assert stage2.query_tags.tolist() == stage1.query_tags.tolist()


def test_full_sequence_layout_all_visible():
    layout = full_sequence_layout(7)
    assert layout.n_queries == 7
    assert layout.dense_mask().all()


@pytest.mark.parametrize("make", [
    lambda: build_block_layout((20, 52), list(range(20)) + list(range(52, 148))),
    lambda: _spec_layout(stage=1, n_candidates=2)[0],
    lambda: _spec_layout(stage=2, n_candidates=4, n_decoded=12)[0],
    lambda: full_sequence_layout(7),
], ids=["block", "stage-1", "stage-2", "full"])
def test_fresh_mask_is_the_dense_mask_without_context(make):
    layout = make()
    fresh = layout.fresh_mask()
    assert fresh.shape == (layout.n_queries, layout.n_queries)
    assert np.array_equal(fresh, layout.dense_mask()[:, layout.n_context:])



@st.composite
def _spec_inputs(draw):
    width = draw(st.integers(1, 64))
    start = draw(st.integers(0, 40))
    stage = draw(st.integers(1, 2))
    n_candidates = draw(st.integers(1, 4))
    # unsorted, with repeats
    decoded = draw(st.lists(st.integers(start, start + width - 1), max_size=2 * width))
    context = draw(st.lists(st.integers(0, 200), max_size=12))
    as_type = draw(st.sampled_from([list, tuple, np.array]))
    return (start, start + width), stage, n_candidates, decoded, as_type(context)


@settings(max_examples=80, deadline=None)
@given(_spec_inputs())
def test_spec_layout_arrays_equal_list_reference(inputs):
    block, stage, n_candidates, decoded, context = inputs
    spec = SpecSet.build(_candidates(block[0], n_candidates), stage=stage)
    layout = build_spec_layout(block, spec, decoded, context)
    fields = ("query_positions", "query_tags", "query_shared", "context_positions")
    reference = spec_layout_fields(block, spec, stage, decoded, context)
    for name, expected in zip(fields, reference):
        array = getattr(layout, name)
        assert array.dtype == (bool if name == "query_shared" else np.int64)
        assert array.tolist() == list(expected)
        with pytest.raises(ValueError):
            array[:1] = 0
    assert layout.stage == stage
    oracle = [[mask_allows(layout, q, k) for k in range(layout.n_keys)]
              for q in range(layout.n_queries)]
    assert layout.dense_mask().tolist() == oracle


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_spec_decision_rows_equal_row_index_lookup(data):
    stage = data.draw(st.integers(1, 2))
    width = data.draw(st.integers(stage, 64))
    start = data.draw(st.integers(0, 40))
    n_candidates = data.draw(st.integers(1, 2 if stage == 1 else 4))
    # at least one masked position; stage 2 needs at least one decoded one
    decoded = sorted(data.draw(st.sets(st.integers(start, start + width - 1),
                                       min_size=stage - 1, max_size=width - 1)))
    masked = np.array([p for p in range(start, start + width) if p not in decoded],
                      dtype=np.int64)
    spec = SpecSet.build(_candidates(start, n_candidates), stage=stage)
    layout = build_spec_layout((start, start + width), spec, decoded, [])
    view = LogitsView(np.zeros((layout.n_queries, 1)), layout.query_positions, layout.query_tags)
    want = view.rows(masked, np.arange(1 + spec.n_blocks)[:, None])
    got = spec_decision_rows((start, start + width), spec, masked)
    assert got.dtype == np.int64
    assert got.tolist() == want.tolist()


def test_layout_views_writable_arrays_and_keeps_read_only_ones():
    positions, context = np.arange(20, 24), np.arange(20)
    context.setflags(write=False)
    layout = AttentionLayout(positions, np.zeros(4, dtype=np.int64), np.zeros(4, dtype=bool), context)
    assert positions.flags.writeable
    assert layout.query_positions.base is positions and not layout.query_positions.flags.writeable
    assert layout.context_positions is context
