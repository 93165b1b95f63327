"""DualCache: prefix + suffix KV from one full-sequence refresh.

A refresh runs one full-sequence forward, keeps the K/V of every position
outside the active block, and hands back the full-sequence logits draft so
EOS scanning costs no extra forward.  Each block cycle refreshes once, so the
cache is keyed by its block: frozen within the cycle (the deliberate staleness
of block-wise decoding), refused as the context of any other block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RangeError, ShapeError, StaleCacheError
from .layout import full_sequence_layout


@dataclass
class DualCache:
    """Per-layer K/V for the prefix [0, block_start) and suffix
    [block_end, seq_len) regions of the block cycle ``block_range``.  The
    cache is itself the context of a block-cycle forward, ordered like the
    layout's context positions."""

    positions: np.ndarray            # absolute positions, ascending
    keys: list[np.ndarray]           # per layer [n_cached, heads, d_head]
    values: list[np.ndarray]
    block_range: tuple[int, int]

    def __post_init__(self):
        # read-only, so layouts built over the cache hold this very array
        self.positions.setflags(write=False)
        start, end = self.block_range
        inside = (self.positions >= start) & (self.positions < end)
        if np.any(inside):
            raise RangeError("cache covers positions inside the active block")
        if len(self.keys) != len(self.values):
            raise ShapeError("key/value layer counts differ")

    @property
    def size(self) -> int:
        return int(self.positions.shape[0])

    def nbytes(self) -> int:
        return sum(k.nbytes + v.nbytes for k, v in zip(self.keys, self.values))

    def truncated(self, new_seq_len: int) -> "DualCache":
        """Drop suffix entries at or beyond the new sequence length.

        Used when the length predictor shrinks the response mid-cycle; the
        block is unchanged (same refresh snapshot, shorter tail).
        """
        keep = self.positions < new_seq_len
        return DualCache(
            positions=self.positions[keep],
            keys=[k[keep] for k in self.keys],
            values=[v[keep] for v in self.values],
            block_range=self.block_range,
        )


def refresh_dual_cache(model, state, block_range: tuple[int, int], step: int = 0,
                       draft: bool = True):
    """Full-sequence forward; cache everything outside the block.

    Returns (DualCache, LogitsView).  Counts as one prefill forward with
    T = full sequence length; its full-sequence logits are the draft that
    length prediction scans.  With ``draft=False`` nobody reads them: the
    forward computes K/V only and the view is None.
    """
    start, end = block_range
    seq_len = state.seq_len
    if not (state.prompt_len <= start < end <= seq_len):
        raise RangeError(f"block [{start}, {end}) outside response region")
    layout = full_sequence_layout(seq_len)
    view, new_kv = model.forward(state.tokens, layout, None, step=step, logits=draft)
    positions = np.arange(seq_len, dtype=np.int64)
    outside = (positions < start) | (positions >= end)
    cache = DualCache(
        positions=positions[outside],
        keys=[k[outside] for k, _ in new_kv],
        values=[v[outside] for _, v in new_kv],
        block_range=(start, end),
    )
    return cache, view


def cache_view(cache: DualCache, block_range: tuple[int, int]) -> DualCache:
    """The cache as the context of a forward over the block `block_range`.

    A cache refreshed for another block raises StaleCacheError, so a cache
    never leaks across block cycles.
    """
    if tuple(cache.block_range) != tuple(block_range):
        raise StaleCacheError(f"cache refreshed for block {cache.block_range}, not {block_range}")
    return cache
