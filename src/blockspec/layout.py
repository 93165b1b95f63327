"""Position-ID assignments and block-wise attention masks.

A layout describes one forward pass: which rows are computed (queries), which
key/value slots they may attend to, and the absolute position ID carried by
every row.  Keys come in two groups: *context* entries supplied by the
cache, followed by one key per query row (the fresh K/V computed in the same
forward).  Speculative layouts replicate the main block's absolute position
IDs into every speculative block and keep sibling blocks mutually invisible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from .errors import RangeError, ShapeError


@dataclass(frozen=True, eq=False, slots=True)
class AttentionLayout:
    """Immutable description of queries, keys and their visibility.

    Positions and tags are int64 arrays and ``query_shared`` a bool array,
    each converted once and read-only: a read-only array is kept as given
    (a cache's positions), a writable one is viewed, never flagged.
    query_shared marks rows whose fresh K/V double as shared keys: they are
    visible to every block tag, not just their own (stage-2 decoded rows of
    the main block).
    """

    query_positions: np.ndarray
    query_tags: np.ndarray
    query_shared: np.ndarray
    context_positions: np.ndarray = ()
    stage: int = 0

    def __post_init__(self):
        for name in ("query_positions", "query_tags", "query_shared", "context_positions"):
            array = np.asarray(getattr(self, name), dtype=bool if name == "query_shared" else np.int64)
            if array.flags.writeable:
                array = array.view()
                array.setflags(write=False)
            object.__setattr__(self, name, array)
        if not self.query_positions.size:
            raise RangeError("layout needs at least one query row")
        if not (len(self.query_positions) == len(self.query_tags) == len(self.query_shared)):
            raise ShapeError("query field lengths disagree")

    @property
    def n_queries(self) -> int:
        return len(self.query_positions)

    @property
    def n_context(self) -> int:
        return len(self.context_positions)

    @property
    def n_keys(self) -> int:
        return self.n_context + self.n_queries

    def fresh_mask(self) -> np.ndarray:
        """Boolean [n_queries, n_queries] visibility of the fresh keys: the
        key produced by query row j is visible to row q iff j is a shared
        row or both rows carry the same block tag."""
        tags = self.query_tags
        return self.query_shared[None, :] | (tags[:, None] == tags[None, :])

    def dense_mask(self) -> np.ndarray:
        """Boolean [n_queries, n_keys] visibility over (query row, key slot):
        context keys are visible to every query, fresh keys as
        ``fresh_mask`` says."""
        ctx = np.ones((self.n_queries, self.n_context), dtype=bool)
        return np.concatenate([ctx, self.fresh_mask()], axis=1)


def full_sequence_layout(seq_len: int) -> AttentionLayout:
    """All positions as queries, full bidirectional visibility, no cache."""
    if seq_len < 1:
        raise RangeError("sequence must be non-empty")
    return AttentionLayout(
        query_positions=np.arange(seq_len, dtype=np.int64),
        query_tags=np.zeros(seq_len, dtype=np.int64),
        query_shared=np.zeros(seq_len, dtype=bool),
    )


def build_block_layout(block_range: tuple[int, int], context_positions: ArrayLike) -> AttentionLayout:
    """Plain block-decoding layout: block positions as queries over a cached
    context, everything mutually visible."""
    start, end = block_range
    if end <= start:
        raise RangeError(f"empty block range [{start}, {end})")
    return AttentionLayout(
        query_positions=np.arange(start, end, dtype=np.int64),
        query_tags=np.zeros(end - start, dtype=np.int64),
        query_shared=np.zeros(end - start, dtype=bool),
        context_positions=context_positions,
    )


def build_spec_layout(
    block_range: tuple[int, int],
    spec_set,
    decoded_positions: ArrayLike,
    context_positions: ArrayLike,
) -> AttentionLayout:
    """Multi-block speculative layout (main block tag 0 plus one tag per
    speculative block of `spec_set`, at the set's stage).

    Stage 1 replicates every block position into each speculative block
    (full recomputation).  Stage 2 keeps the full main block but gives
    speculative blocks only the still-masked positions; the main block's
    decoded rows are flagged shared so their K/V serve every block.
    Speculative rows re-use the main block's absolute position IDs.
    """
    start, end = block_range
    if end <= start:
        raise RangeError(f"empty block range [{start}, {end})")
    stage = spec_set.stage
    decoded = np.asarray(decoded_positions, dtype=np.int64)
    if ((decoded < start) | (decoded >= end)).any():
        raise RangeError("decoded positions outside block")

    block = np.arange(start, end, dtype=np.int64)
    shared = np.zeros(block.size, dtype=bool)  # stage 2's decoded rows
    if stage == 2:
        shared[decoded - start] = True
    spec_rows = block[~shared]
    spec_tags = np.array([tag for tag, _subset in spec_set.blocks], dtype=np.int64)
    n_spec_rows = spec_tags.size * spec_rows.size
    return AttentionLayout(
        query_positions=np.concatenate([block] + [spec_rows] * spec_tags.size),
        query_tags=np.concatenate(
            [np.zeros(block.size, dtype=np.int64), spec_tags.repeat(spec_rows.size)]
        ),
        query_shared=np.concatenate([shared, np.zeros(n_spec_rows, dtype=bool)]),
        context_positions=context_positions,
        stage=stage,
    )


def spec_decision_rows(
    block_range: tuple[int, int], spec_set, masked_positions: np.ndarray
) -> np.ndarray:
    """[1 + spec_set.n_blocks, masked] rows of ``build_spec_layout``'s
    layout: row `tag` holds that block's query row for every masked position.

    ``build_spec_layout`` lays tag 0 over the whole block [0, W) in block
    order, then gives each speculative tag t one run of its spec rows from
    W + (t - 1) * len(spec rows).  The spec rows are the whole block at
    stage 1 and the masked positions, ascending, at stage 2, where they are
    exactly the rows that are not decoded.
    """
    start, end = block_range
    offsets = masked_positions - start
    if spec_set.stage == 1:
        stride, spec_cols = end - start, offsets
    else:
        stride, spec_cols = offsets.size, np.arange(offsets.size)
    table = np.empty((1 + spec_set.n_blocks, offsets.size), dtype=np.int64)
    table[0] = offsets
    table[1:] = (end - start + stride * np.arange(spec_set.n_blocks))[:, None] + spec_cols
    return table
