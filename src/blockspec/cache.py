"""DualCache: prefix + suffix KV from one full-sequence refresh.

A refresh runs one full-sequence forward, keeps the K/V of every position
outside the active block, and hands back the full-sequence logits draft so
EOS scanning costs no extra forward.  Each block cycle refreshes once, so the
cache is keyed by its block: frozen within the cycle (the deliberate staleness
of block-wise decoding), refused as the context of any other block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import RangeError, ShapeError, StaleCacheError
from .layout import AttentionLayout, build_spec_layout, full_sequence_layout


@dataclass
class DualCache:
    """Per-layer K/V for the prefix [0, block_start) and suffix
    [block_end, seq_len) regions of the block cycle ``block_range``.  The
    cache is itself the context of a block-cycle forward, ordered like the
    layout's context positions, and holds the cycle's stage-1 layouts."""

    positions: np.ndarray            # absolute positions, ascending
    keys: list[np.ndarray]           # per layer [n_cached, heads, d_head]
    values: list[np.ndarray]
    block_range: tuple[int, int]
    # stage-1 layouts over this cache, by lattice blocks (see stage1_layout)
    _stage1: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        # read-only, so layouts built over the cache hold this very array
        self.positions.setflags(write=False)
        start, end = self.block_range
        inside = (self.positions >= start) & (self.positions < end)
        if np.any(inside):
            raise RangeError("cache covers positions inside the active block")
        if len(self.keys) != len(self.values):
            raise ShapeError("key/value layer counts differ")

    def nbytes(self) -> int:
        return sum(k.nbytes + v.nbytes for k, v in zip(self.keys, self.values))

    def stage1_layout(self, spec_set) -> AttentionLayout:
        """``build_spec_layout`` of the stage-1 `spec_set` over this cache's
        block and positions, built once per lattice.  A stage-1 layout
        replicates the whole block into every speculative block, so it does
        not depend on which positions are decoded; the cache is frozen for
        its block cycle, and ``truncated`` starts a new one."""
        if spec_set.stage != 1:
            raise RangeError(f"stage-1 layout of a stage-{spec_set.stage} set")
        layout = self._stage1.get(spec_set.blocks)
        if layout is None:
            layout = self._stage1[spec_set.blocks] = build_spec_layout(
                self.block_range, spec_set, (), self.positions
            )
        return layout

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
    # the positions outside the block, each its own row of the forward
    positions = np.arange(seq_len, dtype=np.int64)
    outside = np.concatenate([positions[:start], positions[end:]])
    cache = DualCache(
        positions=outside,
        keys=[k.take(outside, axis=0) for k, _ in new_kv],
        values=[v.take(outside, axis=0) for _, v in new_kv],
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
