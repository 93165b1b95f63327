"""DualCache: prefix + suffix KV from one full-sequence refresh.

A refresh runs one full-sequence forward, keeps the K/V of every position
outside the active block, and hands back the full-sequence logits draft so
EOS scanning costs no extra forward.  Within one block cycle the cache is
frozen (the deliberate staleness of block-wise decoding); a new cycle bumps
``refresh_epoch`` and views built for older epochs are refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import RangeError, ShapeError, StaleCacheError
from .layout import AttentionLayout, full_sequence_layout
from .model import LogitsView


@dataclass
class PrefillDraft:
    """Full-sequence logits from a cache refresh, before re-masking.

    The draft is the model's whole-response attempt at refresh time; the
    length predictor scans it for confident EOS predictions.  The token ids
    needed for that scan travel with the draft.
    """

    view: LogitsView
    seq_len: int
    epoch: int
    eos_token_id: int
    mask_token_id: int


@dataclass
class DualCache:
    """Per-layer K/V for the prefix [0, block_start) and suffix
    [block_end, seq_len) regions, stamped with a refresh epoch."""

    positions: np.ndarray            # absolute positions, ascending
    keys: list[np.ndarray]           # per layer [n_cached, heads, d_head]
    values: list[np.ndarray]
    block_range: tuple[int, int]
    refresh_epoch: int
    snapshot_len: int
    # `positions` as Python ints, converted once per refresh or truncation
    # and shared by every layout and compatibility check of the cycle.
    position_ids: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.position_ids = tuple(self.positions.tolist())
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
        epoch is unchanged (same refresh snapshot, shorter tail).
        """
        keep = self.positions < new_seq_len
        return DualCache(
            positions=self.positions[keep],
            keys=[k[keep] for k in self.keys],
            values=[v[keep] for v in self.values],
            block_range=self.block_range,
            refresh_epoch=self.refresh_epoch,
            snapshot_len=min(self.snapshot_len, new_seq_len),
        )


@dataclass
class CacheView:
    """Key/value context for one forward, ordered like the layout's context
    positions."""

    positions: np.ndarray
    keys: list[np.ndarray]
    values: list[np.ndarray]
    epoch: int
    position_ids: tuple[int, ...] = field(repr=False, compare=False)  # `positions` as ints

    @property
    def size(self) -> int:
        return int(self.positions.shape[0])

    def check_compatible(self, config, layout: AttentionLayout) -> None:
        if layout.n_context != self.size:
            raise ShapeError(
                f"layout expects {layout.n_context} context keys, view has {self.size}"
            )
        if self.position_ids != layout.context_positions:
            raise ShapeError("context positions disagree between layout and cache view")
        if len(self.keys) != config.n_layers:
            raise ShapeError(
                f"cache has {len(self.keys)} layers, model has {config.n_layers}"
            )
        for k in self.keys:
            if k.shape[1:] != (config.n_heads, config.d_head):
                raise ShapeError("cache head dims disagree with model config")


def refresh_dual_cache(model, state, block_range: tuple[int, int], epoch: int = 1, step: int = 0):
    """Full-sequence forward; cache everything outside the block.

    Returns (DualCache, PrefillDraft).  Counts as one prefill forward with
    T = full sequence length; the draft is the same forward's logits.
    """
    start, end = block_range
    seq_len = state.seq_len
    if not (state.prompt_len <= start < end <= seq_len):
        raise RangeError(f"block [{start}, {end}) outside response region")
    layout = full_sequence_layout(seq_len)
    view, new_kv = model.forward(state.tokens, layout, None, step=step)
    positions = np.arange(seq_len, dtype=np.int64)
    outside = (positions < start) | (positions >= end)
    cache = DualCache(
        positions=positions[outside],
        keys=[k[outside] for k, _ in new_kv],
        values=[v[outside] for _, v in new_kv],
        block_range=(start, end),
        refresh_epoch=epoch,
        snapshot_len=seq_len,
    )
    return cache, PrefillDraft(
        view=view,
        seq_len=seq_len,
        epoch=epoch,
        eos_token_id=model.config.eos_token_id,
        mask_token_id=model.config.mask_token_id,
    )


def cache_view(cache: DualCache, *, epoch: int | None = None) -> CacheView:
    """The cache's entries as the context of a block-cycle forward.

    `epoch` is the caller's current block-cycle epoch; a mismatch with the
    cache stamp raises StaleCacheError so views never leak across refreshes.
    """
    expected = cache.refresh_epoch if epoch is None else epoch
    if cache.refresh_epoch != expected:
        raise StaleCacheError(
            f"cache epoch {cache.refresh_epoch} != current epoch {expected}"
        )
    return CacheView(
        positions=cache.positions,
        keys=list(cache.keys),
        values=list(cache.values),
        epoch=expected,
        position_ids=cache.position_ids,
    )
