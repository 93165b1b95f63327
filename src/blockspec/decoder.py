"""Reverse-diffusion steps, confidence-threshold decoding, and the block loop.

One block-wise threshold loop serves all three strategies:

* ``vanilla`` -- no cache: every decode step is a full-sequence forward.
* ``fast``    -- DualCache: one full-sequence refresh per block cycle, then
  cached block forwards.
* ``odb``     -- fast plus adaptive length prediction at each refresh and
  jump-share speculative steps once a step leaves rejected candidates.

All three accept by confidence threshold with a forced top-1, so every step
unmasks at least one token.  ``vanilla`` with ``tau_steps`` set runs the
reverse-transition sampler on a uniform time grid instead of the loop.

Decode decisions never emit the mask token: its logit is dropped before
argmax/softmax so an acceptance always unmasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .cache import cache_view, refresh_dual_cache
from .errors import (
    BlockCompleteError,
    ConfigError,
    ProgressError,
    RangeError,
)
from .layout import build_block_layout, full_sequence_layout
from .model import LogitsView, softmax
from .trajectory import StepRecord, Trajectory

STRATEGIES = ("vanilla", "fast", "odb")


@dataclass(frozen=True)
class RunConfig:
    strategy: str
    gen_length: int
    block_size: int
    accept_threshold: float = 0.9
    truncate_threshold: float = 0.9
    stage2_min_decoded: int | None = None
    seed: int = 0
    tau_steps: int | None = None

    def __post_init__(self):
        for name in ("gen_length", "block_size", "stage2_min_decoded", "seed", "tau_steps"):
            value = getattr(self, name)
            if value is None and name in ("stage2_min_decoded", "tau_steps"):
                continue
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("accept_threshold", "truncate_threshold"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if self.gen_length < 1 or self.block_size < 1:
            raise ConfigError("gen_length and block_size must be positive")
        if self.gen_length % self.block_size != 0:
            raise ConfigError(
                f"gen_length {self.gen_length} not a multiple of block_size {self.block_size}"
            )
        if self.truncate_threshold <= 0:
            raise ConfigError("truncate_threshold must be positive")
        if self.tau_steps is not None:
            if self.strategy != "vanilla":
                raise ConfigError("tau_steps applies to the vanilla strategy only")
            if self.tau_steps < 1:
                raise ConfigError("tau_steps must be positive")
        if self.stage2_min_decoded is not None and not (
            1 <= self.stage2_min_decoded <= self.block_size
        ):
            raise ConfigError("stage2_min_decoded must lie in [1, block_size]")

    @property
    def stage2_threshold(self) -> int:
        if self.stage2_min_decoded is not None:
            return self.stage2_min_decoded
        return max(1, self.block_size // 4)

    def to_dict(self) -> dict:
        return {**vars(self), "stage2_min_decoded": self.stage2_threshold}


@dataclass
class DecodeState:
    """Token sequence and block bookkeeping; a position is masked exactly
    when its token is the mask token."""

    tokens: np.ndarray
    prompt_len: int
    gen_length: int
    block_size: int
    active_block: int = 0
    t: float = 1.0
    mask_token_id: int = 0

    @classmethod
    def new(cls, prompt_tokens, gen_length: int, block_size: int, mask_token_id: int,
            vocab_size: int | None = None) -> "DecodeState":
        """Prompt then `gen_length` mask tokens.  Every prompt token must lie
        in [0, vocab_size) when `vocab_size` is given, and none may be the
        mask token."""
        if vocab_size is not None:
            for i, tok in enumerate(np.ravel(prompt_tokens).tolist()):
                if not 0 <= tok < vocab_size:
                    raise ConfigError(
                        f"prompt_tokens[{i}] = {tok} outside vocab [0, {vocab_size})"
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
        tokens = np.concatenate(
            [prompt, np.full(gen_length, mask_token_id, dtype=np.int64)]
        )
        return cls(
            tokens=tokens,
            prompt_len=int(prompt.size),
            gen_length=gen_length,
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
    def n_blocks(self) -> int:
        return self.gen_length // self.block_size

    def block_range(self, block: int | None = None) -> tuple[int, int]:
        b = self.active_block if block is None else block
        start = self.prompt_len + b * self.block_size
        return start, start + self.block_size

    # The decode loop calls these every step, so they compare only the
    # block's slice of the tokens, never the whole sequence.
    def block_masked_positions(self) -> np.ndarray:
        start, end = self.block_range()
        return np.flatnonzero(self.tokens[start:end] == self.mask_token_id) + start

    def block_decoded_positions(self) -> np.ndarray:
        start, end = self.block_range()
        return np.flatnonzero(self.tokens[start:end] != self.mask_token_id) + start

    def masked_positions(self) -> np.ndarray:
        return np.flatnonzero(self.masked)

    def copy(self) -> "DecodeState":
        return replace(self, tokens=self.tokens.copy())

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


def masked_greedy(view: LogitsView, mask_token_id: int, rows=None) -> tuple[np.ndarray, np.ndarray]:
    """Greedy (tokens, confidences) of the given rows of `view`, all rows by
    default, with the mask token removed from the distribution, so committed
    tokens always unmask.

    The row maximum is read at the argmax rather than reduced again; it can
    differ from ``max`` only in the sign of a zero, which no shifted logit's
    ``exp`` sees.  The argmax entry's shifted logit is exactly 0, so its
    ``exp`` is exactly 1 and its softmax probability is
    ``1 / sum(exp(shifted))``: bitwise the value the full [rows, vocab]
    softmax holds there, without dividing it.
    """
    logits = view.logits.copy() if rows is None else view.logits[rows]
    logits[:, mask_token_id] = -np.inf
    tokens = logits.argmax(axis=1)
    logits -= logits[np.arange(len(logits)), tokens][:, None]
    np.exp(logits, out=logits)
    confs = np.float32(1.0) / logits.sum(axis=1)
    return tokens.astype(np.int64), confs


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
    idx = np.flatnonzero(cells)
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


def tau_leaping_step(state: DecodeState, logits: LogitsView, s: float, rng) -> DecodeState:
    """One reverse transition from noise level t to s < t.

    Unmasked positions are untouched; each masked position independently
    stays masked with probability s/t, otherwise it unmasks by sampling from
    the softmax of its logits (mask token excluded).  Consumes one uniform
    draw per masked position for the stay/unmask choice, then one per masked
    position for token sampling, in position order.
    """
    t = state.t
    if not (0.0 <= s < t <= 1.0):
        raise RangeError(f"need 0 <= s < t <= 1, got s={s} t={t}")
    new_state = state.copy()
    new_state.t = s
    masked_pos = state.masked_positions()
    if masked_pos.size == 0:
        return new_state
    rows = logits.logits[logits.rows(masked_pos)]
    stay = rng.random(masked_pos.size) < (s / t)
    probs = softmax(rows, axis=1).astype(np.float64)
    probs[:, state.mask_token_id] = 0.0
    probs /= probs.sum(axis=1, keepdims=True)
    draws = rng.random(masked_pos.size)
    cum = np.cumsum(probs, axis=1)
    sampled = (cum < draws[:, None]).sum(axis=1)
    for pos, keep, tok in zip(masked_pos, stay, sampled):
        if not keep:
            new_state.tokens[pos] = int(tok)
    return new_state


def decode(model, prompt, config: RunConfig) -> Trajectory:
    """Run one request under the configured strategy; returns the full
    trajectory including per-step (T, C) cost inputs."""
    cfg = model.config
    state = DecodeState.new(
        prompt, config.gen_length, config.block_size, cfg.mask_token_id, cfg.vocab_size
    )
    traj = Trajectory(
        strategy=config.strategy,
        run_config=config.to_dict(),
        model_config=cfg.to_dict(),
        prompt_len=state.prompt_len,
        gen_length_initial=config.gen_length,
        block_size=config.block_size,
    )
    if config.tau_steps is not None:
        state = _decode_vanilla_tau(model, state, config, traj)
    else:
        state = _decode_blockwise(model, state, config, traj)
    state.check_invariants()
    traj.final_tokens = [int(x) for x in state.tokens]
    traj.gen_length_final = state.gen_length
    traj.completed = True
    return traj


def _log_step(traj, *, phase, kind, state, t_tokens, c_tokens, epoch, outcome=None,
              cache_bytes=0):
    rec = StepRecord(
        index=len(traj.steps),
        phase=phase,
        kind=kind,
        block=state.active_block,
        epoch=epoch,
        t_tokens=t_tokens,
        c_tokens=c_tokens,
        cache_bytes=cache_bytes,
    )
    if outcome is not None:
        rec.accepted = list(outcome.accepted)
        rec.jump_count = outcome.jump_count
        rec.stage = outcome.stage
        rec.blocks_evaluated = outcome.blocks_evaluated
        rec.candidates = list(outcome.candidates)
        rec.adopted_tag = outcome.adopted_tag
    traj.add_step(rec)
    return rec


def _decode_vanilla_tau(model, state, config, traj):
    rng = np.random.default_rng(config.seed)
    k = config.tau_steps
    for i in range(k):
        if not np.any(state.masked):
            break
        layout = full_sequence_layout(state.seq_len)
        view, _ = model.forward(state.tokens, layout, None, step=i)
        s = 1.0 - (i + 1) / k
        new_state = tau_leaping_step(state, view, s, rng)
        unmasked_now = [
            (int(p), int(new_state.tokens[p]), 0.0)
            for p in np.nonzero(state.masked & ~new_state.masked)[0]
        ]
        state = new_state
        _log_step(
            traj,
            phase="decode",
            kind="tau",
            state=state,
            t_tokens=state.seq_len,
            c_tokens=state.seq_len,
            epoch=0,
            outcome=StepOutcome(accepted=unmasked_now, rejected_top=[]),
        )
    return state


def _decode_blockwise(model, state, config, traj):
    from .alp import apply_truncation, scan_eos
    from .speculative import select_candidates, spec_step

    cached = config.strategy != "vanilla"
    is_odb = config.strategy == "odb"
    epoch = 0
    while state.active_block < state.n_blocks:
        block_range = state.block_range()
        if cached:
            epoch += 1
            refresh_len = state.seq_len
            # scripted models read refresh drafts by refresh ordinal, decode
            # steps by their in-block ordinal
            cache, draft = refresh_dual_cache(
                model, state, block_range, epoch=epoch, step=epoch - 1
            )
            _log_step(
                traj,
                phase="prefill",
                kind="refresh",
                state=state,
                t_tokens=refresh_len,
                c_tokens=refresh_len,
                epoch=epoch,
                cache_bytes=cache.nbytes(),
            )
            if is_odb:
                cut = scan_eos(
                    draft, state, config.truncate_threshold, model.config.eos_token_id
                )
                if cut is not None:
                    state, event = apply_truncation(state, cut, refresh_epoch=epoch)
                    if event is not None:
                        traj.truncations.append(event)
                        cache = cache.truncated(state.seq_len)
            # the block range and the cached positions hold for the whole cycle
            view = cache_view(cache, epoch=epoch)
            layout = build_block_layout(block_range, view.positions)
            window = slice(*block_range)
        else:
            view = None
            layout = full_sequence_layout(state.seq_len)
            window = slice(None)

        prev_outcome = None
        block_step = 0
        while state.block_masked_positions().size > 0:
            if is_odb and prev_outcome is not None and len(prev_outcome.rejected_top) > 0:
                decoded = state.block_decoded_positions().size
                stage = 2 if decoded >= config.stage2_threshold else 1
                k = 4 if stage == 2 else 2
                candidates = select_candidates(prev_outcome, k)
                outcome, t_rows, c_keys = spec_step(
                    model, state, cache, candidates, stage, config,
                    epoch=epoch, step=block_step,
                )
                kind = "spec"
            else:
                logits, _ = model.forward(state.tokens[window], layout, view, step=block_step)
                outcome = threshold_step(state, logits, config.accept_threshold)
                t_rows = layout.n_queries
                c_keys = layout.n_keys
                kind = "threshold"
            # apply_outcome refuses an unmasked position, so each accepted
            # entry unmasks one token
            apply_outcome(state, outcome)
            if not outcome.accepted:
                raise ProgressError("decode step unmasked zero tokens")
            _log_step(
                traj,
                phase="decode",
                kind=kind,
                state=state,
                t_tokens=t_rows,
                c_tokens=c_keys,
                epoch=epoch,
                outcome=outcome,
            )
            prev_outcome = outcome
            block_step += 1
        state.active_block += 1
    return state
