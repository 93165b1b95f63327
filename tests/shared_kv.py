"""Stage-2 shared-KV reference for the tests.

The decoder realizes stage-2 sharing inside one batched forward: the main
block's decoded rows are flagged shared in the speculative layout, so every
speculative block attends to their fresh K/V.  This module computes the
same thing one block at a time, so tests can hold the batched forward
against it:

* ``build_shared_kv`` harvests the decoded rows' K/V from a plain
  main-block forward;
* ``shared_view`` appends them to a cache view as extra context;
* ``isolate`` cuts one tag's rows out of a speculative layout as a
  single-block layout whose context ends with the shared positions.
"""

from dataclasses import dataclass

import numpy as np

from blockspec.cache import CacheView, DualCache, cache_view
from blockspec.errors import RangeError, StaleCacheError
from blockspec.layout import AttentionLayout, build_block_layout


class EmptySharedError(ValueError):
    """Shared-KV extraction requires at least one decoded position."""


@dataclass
class SharedKV:
    """K/V of the active block's decoded positions, computed once in the main
    block's context and shared read-only by every speculative block."""

    positions: np.ndarray
    keys: list[np.ndarray]
    values: list[np.ndarray]
    epoch: int

    @property
    def size(self) -> int:
        return int(self.positions.shape[0])


def build_shared_kv(model, state, block_range: tuple[int, int], cache: DualCache, step: int = 0) -> SharedKV:
    """K/V of the block's decoded positions from one main-block forward.

    Decoded tokens attend to the dual cache plus all block positions, exactly
    as they do inside the main block; the extracted K/V can then stand in for
    those rows in any speculative block's context.
    """
    start, end = block_range
    block_positions = np.arange(start, end, dtype=np.int64)
    decoded = block_positions[~state.masked[start:end]]
    if decoded.size == 0:
        raise EmptySharedError("no decoded positions in the active block")
    layout = build_block_layout(block_range, cache.positions)
    view = cache_view(cache, epoch=cache.refresh_epoch)
    _, new_kv = model.forward(state.tokens[start:end], layout, view, step=step)
    rows = decoded - start
    return SharedKV(
        positions=decoded,
        keys=[k[rows] for k, _ in new_kv],
        values=[v[rows] for _, v in new_kv],
        epoch=cache.refresh_epoch,
    )


def shared_view(cache: DualCache, shared: SharedKV, *, epoch: int | None = None) -> CacheView:
    """Cache entries then shared entries; a stale stamp on either raises
    StaleCacheError."""
    view = cache_view(cache, epoch=epoch)
    if shared.epoch != view.epoch:
        raise StaleCacheError(f"shared KV epoch {shared.epoch} != current epoch {view.epoch}")
    return CacheView(
        positions=np.concatenate([view.positions, shared.positions]),
        keys=[np.concatenate([c, s], axis=0) for c, s in zip(view.keys, shared.keys)],
        values=[np.concatenate([c, s], axis=0) for c, s in zip(view.values, shared.values)],
        epoch=view.epoch,
    )


def rows_of_tag(layout: AttentionLayout, tag: int) -> np.ndarray:
    return np.nonzero(layout.query_tags == tag)[0]


def isolate(layout: AttentionLayout, tag: int) -> tuple[AttentionLayout, np.ndarray]:
    """Single-block layout equivalent to running `tag` on its own.

    The isolated layout keeps the original context and, for stage-2
    speculative tags, appends the shared rows' positions as context entries
    (to be supplied by ``shared_view``).  Returns the layout and the
    original row indices of the kept queries.
    """
    rows = rows_of_tag(layout, tag)
    if rows.size == 0:
        raise RangeError(f"no rows with tag {tag}")
    ctx_pos = layout.context_positions
    if layout.stage == 2 and tag != 0:
        ctx_pos = np.concatenate([ctx_pos, layout.query_positions[layout.query_shared]])
    return (
        AttentionLayout(
            query_positions=layout.query_positions[rows],
            query_tags=np.zeros(rows.size, dtype=np.int64),
            query_shared=np.zeros(rows.size, dtype=bool),
            context_positions=ctx_pos,
            stage=layout.stage,
        ),
        rows,
    )
