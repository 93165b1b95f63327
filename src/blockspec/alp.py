"""Adaptive length prediction: EOS scanning over the prefill draft.

At every cache refresh the full-sequence logits (the draft) already hold a
prediction for each still-masked position.  A confident EOS prediction in
the cut window means the model expects the response to finish there, so
the remaining generation length is truncated (rounded up to a block
multiple, keeping the EOS position).  ``cut_window`` is the one statement
of where a cut can shorten the response; lengths only ever shrink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .decoder import DecodeState, masked_greedy
from .errors import ProgressError, RangeError
from .model import LogitsView


@dataclass
class TruncationEvent:
    refresh_epoch: int
    eos_position: int          # absolute sequence index
    eos_confidence: float
    old_gen_length: int
    new_gen_length: int

    def to_dict(self) -> dict:
        return dict(vars(self))


def cut_window(state: DecodeState) -> tuple[int, int]:
    """Absolute positions [start, stop) where an EOS shortens the response:
    after the active block and before the last block.  A cut rounds the
    length up to a block multiple, so an EOS in the last block keeps it;
    the window is empty from the second-to-last block on."""
    _, block_end = state.block_range()
    return block_end, state.seq_len - state.block_size


def scan_eos(
    draft: LogitsView, state: DecodeState, truncate_threshold: float, eos_token_id: int
) -> tuple[int, float] | None:
    """Earliest confident EOS prediction in the cut window.

    `draft` is a refresh's full-sequence logits.  Scans the rows inside
    ``cut_window`` whose greedy draft prediction (mask token excluded) is
    `eos_token_id` with confidence strictly above the threshold.  Returns
    (response offset, confidence) or None; thresholds above 1.0 therefore
    never fire.  Total function.
    """
    if truncate_threshold <= 0.0:
        raise RangeError("truncate threshold must be positive")
    if draft.n_rows != state.seq_len:
        raise RangeError("draft does not cover the current sequence")
    start, stop = cut_window(state)
    # an index array, not a slice, so masked_greedy works on a copy
    rows = np.flatnonzero((draft.positions >= start) & (draft.positions < stop))
    tokens, confs = masked_greedy(draft, state.mask_token_id, rows)
    idx = np.flatnonzero((tokens == eos_token_id) & (confs > truncate_threshold))
    if idx.size == 0:
        return None
    first = int(idx[0])
    return int(draft.positions[rows[first]]) - state.prompt_len, float(confs[first])


def apply_truncation(
    state: DecodeState, cut: tuple[int, float], refresh_epoch: int = 0
) -> tuple[DecodeState, TruncationEvent]:
    """Shrink the generation length to cover a confident EOS.

    new_gen_length = ceil((offset + 1) / block_size) * block_size.  The
    offset must lie in ``cut_window`` (else RangeError), so the length
    strictly shrinks and the active block is kept; a cut that would delete
    an unmasked token raises ProgressError.
    """
    offset, confidence = cut
    start, stop = cut_window(state)
    eos_position = state.prompt_len + offset
    if not start <= eos_position < stop:
        raise RangeError(f"cut at position {eos_position} outside the cut window [{start}, {stop})")
    new_gen = math.ceil((offset + 1) / state.block_size) * state.block_size
    drop_from = state.prompt_len + new_gen
    if not np.all(state.masked[drop_from:]):
        raise ProgressError(f"cut to gen_length {new_gen} would delete unmasked tokens")
    event = TruncationEvent(
        refresh_epoch=refresh_epoch,
        eos_position=eos_position,
        eos_confidence=confidence,
        old_gen_length=state.gen_length,
        new_gen_length=new_gen,
    )
    return replace(state, tokens=state.tokens[:drop_from].copy()), event
