"""Position-ID assignments and block-wise attention masks.

A layout describes one forward pass: which rows are computed (queries), which
key/value slots they may attend to, and the absolute position ID carried by
every row.  Keys come in two groups: *context* entries supplied by a cache
view, followed by one key per query row (the fresh K/V computed in the same
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
    (a cache view's positions), a writable one is viewed, never flagged.
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

    def dense_mask(self) -> np.ndarray:
        """Boolean [n_queries, n_keys] visibility over (query row, key slot).

        Context keys are visible to every query.  A fresh key produced by
        query row j is visible to row q iff j is a shared row or both rows
        carry the same block tag.
        """
        tags = self.query_tags
        rows = self.query_shared[None, :] | (tags[:, None] == tags[None, :])
        ctx = np.ones((self.n_queries, self.n_context), dtype=bool)
        return np.concatenate([ctx, rows], axis=1)

    def dump_mask_csv(self, path) -> None:
        """Write the dense mask as a 0/1 CSV grid for visual inspection."""
        grid = self.dense_mask().astype(int)
        header = [f"cache:{pos}" for pos in self.context_positions]
        header += [f"t{t}:{p}" for t, p in zip(self.query_tags, self.query_positions)]
        lines = ["query," + ",".join(header)]
        for q in range(self.n_queries):
            label = f"t{self.query_tags[q]}:{self.query_positions[q]}"
            lines.append(label + "," + ",".join(str(v) for v in grid[q]))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


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
    stage: int,
    decoded_positions: ArrayLike,
    context_positions: ArrayLike,
) -> AttentionLayout:
    """Multi-block speculative layout (main block tag 0 plus one tag per
    speculative block).

    Stage 1 replicates every block position into each speculative block
    (full recomputation).  Stage 2 keeps the full main block but gives
    speculative blocks only the still-masked positions; the main block's
    decoded rows are flagged shared so their K/V serve every block.
    Speculative rows re-use the main block's absolute position IDs.
    """
    start, end = block_range
    if end <= start:
        raise RangeError(f"empty block range [{start}, {end})")
    if not spec_set.blocks:
        raise RangeError("speculative set is empty")
    if stage not in (1, 2):
        raise RangeError(f"stage must be 1 or 2, got {stage}")
    decoded = np.asarray(decoded_positions, dtype=np.int64)
    if stage == 2 and not decoded.size:
        raise RangeError("stage 2 requires decoded positions")
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
