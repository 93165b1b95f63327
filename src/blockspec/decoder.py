"""Decode state and the confidence-threshold decisions of ``engine``'s loop.

Decode decisions never emit the mask token: its logit is dropped before
argmax/softmax so an acceptance always unmasks.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BlockCompleteError,
    ConfigError,
    ProgressError,
    check_fields,
)
from .model import MAX_POSITION, LogitsView

STRATEGIES = ("vanilla", "fast", "odb")


@dataclass(frozen=True)
class RunConfig:
    strategy: str
    gen_length: int
    block_size: int
    accept_threshold: float = 0.9
    truncate_threshold: float = 0.9
    stage2_min_decoded: int | None = None

    def __post_init__(self):
        check_fields(self)
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if self.gen_length < 1 or self.block_size < 1:
            raise ConfigError("gen_length and block_size must be positive")
        if self.gen_length > MAX_POSITION:
            raise ConfigError(f"gen_length {self.gen_length} above {MAX_POSITION}")
        if self.gen_length % self.block_size != 0:
            raise ConfigError(
                f"gen_length {self.gen_length} not a multiple of block_size {self.block_size}"
            )
        if self.truncate_threshold <= 0:
            raise ConfigError("truncate_threshold must be positive")
        if self.stage2_min_decoded is None:
            object.__setattr__(self, "stage2_min_decoded", max(1, self.block_size // 4))
        if not 1 <= self.stage2_min_decoded <= self.block_size:
            raise ConfigError("stage2_min_decoded must lie in [1, block_size]")

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class DecodeState:
    """Token sequence and block bookkeeping; a position is masked exactly
    when its token is the mask token."""

    tokens: np.ndarray
    prompt_len: int
    block_size: int
    active_block: int = 0
    mask_token_id: int = 0

    @classmethod
    def new(cls, prompt_tokens, gen_length: int, block_size: int, mask_token_id: int,
            vocab_size: int | None = None) -> "DecodeState":
        """Prompt then `gen_length` mask tokens, at most ``MAX_POSITION`` in
        all.  Every prompt token must lie in [0, vocab_size) when
        `vocab_size` is given, and none may be the mask token."""
        if vocab_size is not None:
            # object dtype keeps each Python int exact: mixed with a token
            # past int64, ravel would read the list as float64
            for i, tok in enumerate(np.ravel(np.asarray(prompt_tokens, dtype=object)).tolist()):
                if not 0 <= tok < vocab_size:
                    raise ConfigError(
                        f"prompt_tokens[{i}] = {reprlib.repr(tok)} outside vocab [0, {vocab_size})"
                    )
        prompt = np.asarray(prompt_tokens, dtype=np.int64).reshape(-1)
        if prompt.size == 0:
            raise ConfigError("prompt must be non-empty")
        hits = np.nonzero(prompt == mask_token_id)[0]
        if hits.size:
            raise ConfigError(
                f"prompt_tokens[{int(hits[0])}] is the mask token {mask_token_id}"
            )
        if gen_length % block_size != 0 or gen_length < 1:
            raise ConfigError("gen_length must be a positive multiple of block_size")
        if prompt.size + gen_length > MAX_POSITION:
            raise ConfigError(f"{prompt.size} prompt_tokens and gen_length {gen_length} "
                              f"need more than {MAX_POSITION} positions")
        tokens = np.concatenate(
            [prompt, np.full(gen_length, mask_token_id, dtype=np.int64)]
        )
        return cls(
            tokens=tokens,
            prompt_len=int(prompt.size),
            block_size=block_size,
            mask_token_id=mask_token_id,
        )

    @property
    def masked(self) -> np.ndarray:
        """Read-only per-position mask flags, computed from the tokens."""
        flags = self.tokens == self.mask_token_id
        flags.flags.writeable = False
        return flags

    @property
    def seq_len(self) -> int:
        return int(self.tokens.shape[0])

    @property
    def gen_length(self) -> int:
        return self.seq_len - self.prompt_len

    @property
    def n_blocks(self) -> int:
        return self.gen_length // self.block_size

    def block_range(self, block: int | None = None) -> tuple[int, int]:
        b = self.active_block if block is None else block
        start = self.prompt_len + b * self.block_size
        return start, start + self.block_size

    # Every threshold step calls this, so it compares only the block's
    # slice of the tokens, never the whole sequence.
    def block_masked_positions(self) -> np.ndarray:
        start, end = self.block_range()
        return (self.tokens[start:end] == self.mask_token_id).nonzero()[0] + start

    def check_invariants(self) -> None:
        if np.any(self.masked[: self.prompt_len]):
            raise ProgressError("prompt positions must never be masked")


@dataclass
class StepOutcome:
    """Result of one decode decision: what was unmasked and what remains."""

    accepted: list                      # (position, token, confidence)
    rejected_top: list                  # remaining masked, confidence desc
    jump_count: int = 0
    adopted_tag: int = 0
    stage: int = 0
    blocks_evaluated: int = 1
    candidates: list = field(default_factory=list)


def masked_greedy(view: LogitsView, mask_token_id: int, rows) -> tuple[np.ndarray, np.ndarray]:
    """Greedy (tokens, confidences) of the `rows` of `view`, an index array
    or list, with the mask token removed from the distribution, so
    committed tokens always unmask.

    The row maximum is read at the argmax rather than reduced again; it can
    differ from ``max`` only in the sign of a zero, which no shifted logit's
    ``exp`` sees.  The argmax entry's shifted logit is exactly 0, so its
    ``exp`` is exactly 1 and its softmax probability is
    ``1 / sum(exp(shifted))``: bitwise the value the full [rows, vocab]
    softmax holds there, without dividing it.
    """
    logits = view.logits.take(rows, axis=0)
    logits[:, mask_token_id] = -np.inf
    tokens = logits.argmax(axis=1)
    logits -= logits[np.arange(len(logits)), tokens][:, None]
    np.exp(logits, out=logits)
    confs = np.float32(1.0) / logits.sum(axis=1)
    return tokens.astype(np.int64, copy=False), confs


def threshold_decide(confidences: np.ndarray, threshold: float,
                     valid: np.ndarray | None = None) -> np.ndarray:
    """Accepted cells of a [blocks, positions] confidence table.

    Positions ascend along each row, and `valid` (all cells by default)
    marks the cells a block decides.  A valid cell is accepted when its
    confidence is strictly above the threshold; a row where none is accepts
    its first maximum among valid cells, the lowest position on a tie, so
    every block makes progress.  A row without valid cells accepts nothing.

    The comparison runs in float64: numpy compares a float32 array with a
    Python float in float32, where ``float32(0.1) > 0.1`` is false, but the
    float32 value itself lies above 0.1.
    """
    if valid is None:
        conf = confidences.astype(np.float64)
    else:
        conf = np.where(valid, confidences, np.float64(-np.inf))
    accept = conf > threshold
    if conf.size:
        forced = ~accept.any(axis=1)
        if valid is not None:
            forced &= valid.any(axis=1)
        accept[np.arange(len(conf)), conf.argmax(axis=1)] |= forced
    return accept


def decision_entries(positions: np.ndarray, tokens: np.ndarray, confidences: np.ndarray,
                     cells: np.ndarray, ranked: bool = False) -> list:
    """(position, token, confidence) of the `cells` of one block's row, in
    position order, or by confidence descending (ties to the lower
    position) when `ranked`."""
    idx = cells.nonzero()[0]
    if ranked:
        idx = idx[np.argsort(-confidences[idx], kind="stable")]
    return list(zip(positions[idx].tolist(), tokens[idx].tolist(), confidences[idx].tolist()))


def threshold_step(state: DecodeState, logits: LogitsView, threshold: float) -> StepOutcome:
    """Confidence-threshold parallel decoding over the active block.

    `logits` must hold a tag-0 row for every masked block position; other
    rows (decoded block tokens, the rest of a full sequence) contribute
    context in the forward, never decisions, and get no greedy pass.  This
    is the one-block case of ``threshold_decide``.
    """
    masked = state.block_masked_positions()
    if not masked.size:
        raise BlockCompleteError("active block has no masked positions")
    tokens, confs = masked_greedy(logits, state.mask_token_id, logits.rows(masked))
    accept = threshold_decide(confs[None], threshold)[0]
    return StepOutcome(
        accepted=decision_entries(masked, tokens, confs, accept),
        rejected_top=decision_entries(masked, tokens, confs, ~accept, ranked=True),
    )


def apply_outcome(state: DecodeState, outcome: StepOutcome) -> None:
    for pos, tok, _conf in outcome.accepted:
        if state.tokens[pos] != state.mask_token_id:
            raise ProgressError(f"position {pos} accepted twice")
        if tok == state.mask_token_id:
            raise ProgressError("acceptance must not commit the mask token")
        state.tokens[pos] = tok

