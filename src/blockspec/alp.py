"""Adaptive length prediction: EOS scanning over the prefill draft.

At every cache refresh the full-sequence logits (the draft) already hold a
prediction for each still-masked position.  A confident EOS prediction at or
beyond the active block's end means the model expects the response to finish
there, so the remaining generation length is truncated (rounded up to a block
multiple, keeping the EOS position).  Lengths only ever shrink.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .decoder import DecodeState, masked_greedy
from .errors import RangeError
from .model import LogitsView

log = logging.getLogger(__name__)


@dataclass
class TruncationEvent:
    refresh_epoch: int
    eos_position: int          # absolute sequence index
    eos_confidence: float
    old_gen_length: int
    new_gen_length: int

    def to_dict(self) -> dict:
        return dict(vars(self))


def scan_eos(
    draft: LogitsView, state: DecodeState, truncate_threshold: float, eos_token_id: int
) -> tuple[int, float] | None:
    """Earliest confident EOS prediction beyond the active block.

    `draft` is a refresh's full-sequence logits.  Scans response positions
    at or after the active block's end whose greedy draft prediction (mask
    token excluded) is `eos_token_id` with confidence strictly above the
    threshold.  Returns (response offset, confidence) or None; thresholds
    above 1.0 therefore never fire.  Total function.
    """
    if truncate_threshold <= 0.0:
        raise RangeError("truncate threshold must be positive")
    if draft.n_rows != state.seq_len:
        raise RangeError("draft does not cover the current sequence")
    _, block_end = state.block_range()
    # Only rows at or after the block end can cut.  An index array, not a
    # slice, so masked_greedy works on a copy of the draft's logits.
    rows = np.flatnonzero(draft.positions >= block_end)
    tokens, confs = masked_greedy(draft, state.mask_token_id, rows)
    idx = np.flatnonzero((tokens == eos_token_id) & (confs > truncate_threshold))
    if idx.size == 0:
        return None
    first = int(idx[0])
    return int(draft.positions[rows[first]]) - state.prompt_len, float(confs[first])


def apply_truncation(
    state: DecodeState, cut: tuple[int, float], refresh_epoch: int = 0
) -> tuple[DecodeState, TruncationEvent | None]:
    """Shrink the generation length to cover a confident EOS.

    new_gen_length = ceil((offset + 1) / block_size) * block_size, which
    lies past the active block's end since the cut does.  Never deletes an
    unmasked token and never cuts the active block; cuts that do not
    strictly shrink are no-ops.
    """
    offset, confidence = cut
    if offset < (state.active_block + 1) * state.block_size:
        log.warning("truncation at offset %d inside decoded region; ignored", offset)
        return state, None
    if offset >= state.gen_length:
        raise RangeError(f"cut offset {offset} beyond gen_length {state.gen_length}")
    new_gen = math.ceil((offset + 1) / state.block_size) * state.block_size
    if new_gen >= state.gen_length:
        return state, None
    drop_from = state.prompt_len + new_gen
    if not np.all(state.masked[drop_from:]):
        log.warning("truncation would delete unmasked tokens; ignored")
        return state, None
    event = TruncationEvent(
        refresh_epoch=refresh_epoch,
        eos_position=state.prompt_len + offset,
        eos_confidence=confidence,
        old_gen_length=state.gen_length,
        new_gen_length=new_gen,
    )
    return replace(state, tokens=state.tokens[:drop_from].copy()), event
