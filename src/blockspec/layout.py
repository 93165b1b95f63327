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
from typing import Sequence

import numpy as np

from .errors import RangeError, ShapeError


@dataclass(frozen=True)
class AttentionLayout:
    """Immutable description of queries, keys and their visibility.

    query_shared marks rows whose fresh K/V double as shared keys: they are
    visible to every block tag, not just their own (stage-2 decoded rows of
    the main block).
    """

    query_positions: tuple[int, ...]
    query_tags: tuple[int, ...]
    query_shared: tuple[bool, ...]
    context_positions: tuple[int, ...] = ()
    stage: int = 0

    def __post_init__(self):
        if not self.query_positions:
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

    def mask_allows(self, q: int, k: int) -> bool:
        """Visibility predicate over (query row, key slot).

        Context keys are visible to every query.  A fresh key produced by
        query row j is visible to row q iff j is a shared row or both rows
        carry the same block tag.
        """
        if not (0 <= q < self.n_queries):
            raise IndexError(f"query index {q} out of range")
        if not (0 <= k < self.n_keys):
            raise IndexError(f"key index {k} out of range")
        if k < self.n_context:
            return True
        j = k - self.n_context
        return self.query_shared[j] or self.query_tags[j] == self.query_tags[q]

    def dense_mask(self) -> np.ndarray:
        """Boolean [n_queries, n_keys] materialization of mask_allows."""
        tags = np.asarray(self.query_tags)
        shared = np.asarray(self.query_shared, dtype=bool)
        rows = shared[None, :] | (tags[:, None] == tags[None, :])
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


def _position_tuple(positions: Sequence[int]) -> tuple[int, ...]:
    """Positions as a tuple of ints; a tuple is taken as already converted
    (``DualCache.position_ids``), so a block cycle converts its context once."""
    if isinstance(positions, tuple):
        return positions
    return tuple(int(p) for p in positions)


def full_sequence_layout(seq_len: int) -> AttentionLayout:
    """All positions as queries, full bidirectional visibility, no cache."""
    if seq_len < 1:
        raise RangeError("sequence must be non-empty")
    return AttentionLayout(
        query_positions=tuple(range(seq_len)),
        query_tags=(0,) * seq_len,
        query_shared=(False,) * seq_len,
    )


def build_block_layout(block_range: tuple[int, int], context_positions: Sequence[int]) -> AttentionLayout:
    """Plain block-decoding layout: block positions as queries over a cached
    context, everything mutually visible."""
    start, end = block_range
    if end <= start:
        raise RangeError(f"empty block range [{start}, {end})")
    n = end - start
    return AttentionLayout(
        query_positions=tuple(range(start, end)),
        query_tags=(0,) * n,
        query_shared=(False,) * n,
        context_positions=_position_tuple(context_positions),
    )


def build_spec_layout(
    block_range: tuple[int, int],
    spec_set,
    stage: int,
    decoded_positions: Sequence[int],
    context_positions: Sequence[int],
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
    decoded = sorted(int(p) for p in decoded_positions)
    if stage == 2 and not decoded:
        raise RangeError("stage 2 requires decoded positions")
    if any(not (start <= p < end) for p in decoded):
        raise RangeError("decoded positions outside block")
    decoded_set = frozenset(decoded)

    positions: list[int] = []
    tags: list[int] = []
    shared: list[bool] = []

    block_positions = list(range(start, end))
    masked_positions = [p for p in block_positions if p not in decoded_set]

    positions.extend(block_positions)
    tags.extend([0] * len(block_positions))
    if stage == 2:
        shared.extend([p in decoded_set for p in block_positions])
    else:
        shared.extend([False] * len(block_positions))

    spec_rows = block_positions if stage == 1 else masked_positions
    for tag, _subset in spec_set.blocks:
        positions.extend(spec_rows)
        tags.extend([tag] * len(spec_rows))
        shared.extend([False] * len(spec_rows))

    return AttentionLayout(
        query_positions=tuple(positions),
        query_tags=tuple(tags),
        query_shared=tuple(shared),
        context_positions=_position_tuple(context_positions),
        stage=stage,
    )
