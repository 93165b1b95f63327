"""Deterministic toy transformer and scripted logit models.

Two interchangeable model backends drive the decode loop:

* ``ToyModel`` -- a small bidirectional pre-norm transformer with rotary
  position encoding driven by the layout's absolute position IDs.  Weights
  are materialized from a seeded generator, so identical (config, seed)
  yields bit-identical weights and trajectories.
* ``ScriptedModel`` -- emits logit vectors whose argmax/softmax reproduce a
  hand-authored (token, confidence) schedule, for exact test scenarios.

Everything runs in 32-bit floats; forwards are pure functions of
(weights, tokens, layout, cached context).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, RangeError, ShapeError, load_document
from .layout import AttentionLayout

_LN_EPS = np.float32(1e-5)

# Largest toy model that may be materialized: 1 GiB of float32 weights.
MAX_TOY_PARAMS = 1 << 28


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int
    n_layers: int
    n_heads: int
    d_ff: int
    mask_token_id: int
    eos_token_id: int
    seed: int

    def __post_init__(self):
        for name, value in vars(self).items():
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("vocab_size", "d_model", "n_layers", "n_heads", "d_ff"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model ({self.d_model}) not divisible by n_heads ({self.n_heads})"
            )
        if self.mask_token_id == self.eos_token_id:
            raise ConfigError("mask_token_id and eos_token_id must differ")
        for name in ("mask_token_id", "eos_token_id"):
            tid = getattr(self, name)
            if not (0 <= tid < self.vocab_size):
                raise ConfigError(f"{name} ({tid}) outside vocab")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    @classmethod
    def from_json(cls, path) -> "ModelConfig":
        return load_document(cls, path, "model config")

    def to_dict(self) -> dict:
        return dict(vars(self))


def count_params(config: ModelConfig) -> int:
    """Parameter count of the toy architecture.

    embedding V*d + per layer (4 attention projections d*d + MLP d*d_ff and
    d_ff*d) + output projection d*V.  Layer norms carry no parameters.
    """
    d, v = config.d_model, config.vocab_size
    per_layer = 4 * d * d + 2 * d * config.d_ff
    return v * d + config.n_layers * per_layer + d * v


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-subtracted softmax in float32."""
    x = np.asarray(x, dtype=np.float32)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


class RowIndex:
    """Rows of parallel int64 (position, tag) arrays, looked up by sorted keys.

    Each row's key is ``tag * span + (position - base)``, where positions
    span [base, base + span); the keys are sorted once and every lookup is
    two ``searchsorted`` calls, however many pairs it asks for.  Positions
    are sequence positions and tags block tags, so no key nears the int64
    range.
    """

    def __init__(self, positions: np.ndarray, tags: np.ndarray):
        self._base = int(positions.min()) if positions.size else 0
        self._span = int(positions.max()) - self._base + 1 if positions.size else 1
        keys = tags * self._span + (positions - self._base)
        self._order = np.argsort(keys, kind="stable")
        self._keys = keys[self._order]

    def rows(self, positions, tag=0) -> np.ndarray:
        """Row of each (position, tag) pair, `positions` and `tag`
        broadcast together (a [tags, 1] column of tags against positions
        gives a [tags, positions] table).  A missing or duplicated pair
        raises ShapeError naming it and its row count."""
        offsets = np.asarray(positions, dtype=np.int64) - self._base
        keys = np.asarray(tag, dtype=np.int64) * self._span + offsets
        lo = self._keys.searchsorted(keys)
        counts = self._keys.searchsorted(keys, "right") - lo
        counts *= (offsets >= 0) & (offsets < self._span)
        if (counts != 1).any():
            bad = np.argwhere(counts != 1)[0]
            pair = np.broadcast_arrays(np.asarray(positions), np.asarray(tag))
            position, tag = (int(a[tuple(bad)]) for a in pair)
            raise ShapeError(f"position {position} tag {tag}: {counts[tuple(bad)]} rows")
        return self._order[lo]


@dataclass
class LogitsView:
    """Per-row score vectors with the map back to absolute positions.

    Rows correspond 1:1 to the forward layout's query rows; ``positions`` and
    ``tags`` identify them.  Speculative layouts repeat a position across
    tags, so lookups take (position, tag).  The first lookup indexes every
    row, so ``positions`` and ``tags`` must not be reassigned after it.
    """

    logits: np.ndarray
    positions: np.ndarray
    tags: np.ndarray
    _index: RowIndex | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.logits = np.asarray(self.logits, dtype=np.float32)
        self.positions = np.asarray(self.positions, dtype=np.int64)
        self.tags = np.asarray(self.tags, dtype=np.int64)
        if self.logits.ndim != 2:
            raise ShapeError("logits must be [rows, vocab]")
        if not (self.logits.shape[0] == self.positions.shape[0] == self.tags.shape[0]):
            raise ShapeError("row count mismatch between logits and position map")
        if not np.all(np.isfinite(self.logits)):
            raise ShapeError("non-finite logits in view")

    @property
    def n_rows(self) -> int:
        return self.logits.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.logits.shape[1]

    def rows(self, positions, tag=0) -> np.ndarray:
        """Row indices of (position, tag) pairs (see ``RowIndex.rows``)."""
        if self._index is None:
            self._index = RowIndex(self.positions, self.tags)
        return self._index.rows(positions, tag)

    def row(self, position: int, tag: int = 0) -> int:
        return int(self.rows((position,), tag)[0])


def _layer_norm(x: np.ndarray) -> np.ndarray:
    """(x - mean) / sqrt(var + eps) over the last axis, bitwise as
    ``x.mean``/``x.var`` with ``dtype=float32``: numpy's ``_var`` sums the
    same values as ``_mean`` and subtracts the same mean, so both are done
    once.  Each sum is divided by the ``intp`` count in place with unsafe
    casting, as numpy does.
    """
    n = np.intp(x.shape[-1])
    mean = x.sum(axis=-1, keepdims=True, dtype=np.float32)
    np.true_divide(mean, n, out=mean, casting="unsafe")
    out = x - mean
    var = np.square(out).sum(axis=-1, keepdims=True, dtype=np.float32)
    np.true_divide(var, n, out=var, casting="unsafe")
    var += _LN_EPS
    out /= np.sqrt(var, out=var)
    return out


def _gelu(x: np.ndarray) -> np.ndarray:
    """Tanh GELU, overwriting and returning `x`.

    Evaluates 0.5*x * (1 + tanh(c * (x + 0.044715*x*x*x))) with the same
    float32 rounding at every step as the one-line expression, in two
    buffers instead of eight.
    """
    t = np.float32(0.044715) * x
    t *= x
    t *= x
    t += x
    t *= np.float32(math.sqrt(2.0 / math.pi))
    np.tanh(t, out=t)
    t += np.float32(1.0)
    x *= np.float32(0.5)
    x *= t
    return x


def _rope_tables(positions: np.ndarray, n_heads: int, d_head: int):
    """Rotary tables over the `n_heads * d_head` columns of q or k.

    Returns (cos, sin, swap): [rows, n_heads * d_head] tables and a column
    permutation such that ``x * cos + x[..., swap] * sin`` rotates the
    leading even span of each head, (x1, x2) -> (x1*cos - x2*sin,
    x2*cos + x1*sin), and passes an odd last dim through.  Each output is
    the same two products and one add as rotating the halves separately,
    so the result is bitwise equal, but every pass runs over whole rows.
    """
    half = d_head // 2
    inv_freq = (10000.0 ** (-np.arange(half, dtype=np.float64) / max(half, 1))).astype(np.float32)
    angles = positions.astype(np.float32)[:, None] * inv_freq[None, :]
    c, s = np.cos(angles), np.sin(angles)
    tail = (len(positions), d_head - 2 * half)
    cos = np.tile(np.concatenate([c, c, np.ones(tail, np.float32)], axis=1), n_heads)
    sin = np.tile(np.concatenate([-s, s, np.zeros(tail, np.float32)], axis=1), n_heads)
    head_swap = np.r_[half : 2 * half, 0:half, 2 * half : d_head]
    swap = (np.arange(n_heads)[:, None] * d_head + head_swap).reshape(-1)
    return cos, sin, swap


def check_compatible(config: ModelConfig, layout: AttentionLayout, context) -> None:
    """Raise ShapeError unless `context` -- anything with ``positions`` and
    per-layer ``keys``/``values`` [n, heads, d_head], such as a DualCache --
    supplies the layout's context keys, in order, for a model of this
    config."""
    n = len(context.positions)
    if layout.n_context != n:
        raise ShapeError(f"layout expects {layout.n_context} context keys, view has {n}")
    positions = layout.context_positions
    if positions is not context.positions and not np.array_equal(context.positions, positions):
        raise ShapeError("context positions disagree between layout and cache view")
    if len(context.keys) != config.n_layers:
        raise ShapeError(
            f"cache has {len(context.keys)} layers, model has {config.n_layers}"
        )
    head_shape = (config.n_heads, config.d_head)
    for k in context.keys:
        if k.shape[1:] != head_shape:
            raise ShapeError("cache head dims disagree with model config")


class ToyModel:
    """Bidirectional pre-norm transformer over laid-out token batches.

    Weights are immutable after init and shareable across threads; forward
    never mutates the model or its cache.
    """

    def __init__(self, config: ModelConfig):
        n_params = count_params(config)
        if n_params > MAX_TOY_PARAMS:
            raise ConfigError(
                f"toy model has {n_params} parameters, more than {MAX_TOY_PARAMS} (1 GiB of float32)"
            )
        self.config = config
        rng = np.random.default_rng(config.seed)
        scale = np.float32(1.0 / math.sqrt(config.d_model))
        d, dff, v = config.d_model, config.d_ff, config.vocab_size

        def mat(*shape):
            return (rng.standard_normal(shape, dtype=np.float32) * scale).astype(np.float32)

        self.emb = mat(v, d)
        self.layers = []
        for _ in range(config.n_layers):
            self.layers.append(
                {
                    "wqkv": np.stack([mat(d, d), mat(d, d), mat(d, d)]),
                    "wo": mat(d, d),
                    "w1": mat(d, dff),
                    "w2": mat(dff, d),
                }
            )
        self.wout = mat(d, v)

    def forward(self, tokens, layout: AttentionLayout, cache=None, step: int = 0):
        """Run the batched forward described by `layout`.

        Returns (LogitsView over query rows, per-layer fresh (K, V) of those
        rows).  `cache` supplies K/V for the layout's context entries; `step`
        is ignored (scripted models use it).
        """
        cfg = self.config
        tokens = np.asarray(tokens, dtype=np.int64).reshape(-1)
        r = layout.n_queries
        if tokens.shape[0] != r:
            raise ShapeError(f"{tokens.shape[0]} tokens for {r} query rows")
        if np.any(tokens < 0) or np.any(tokens >= cfg.vocab_size):
            raise ShapeError("token id outside vocab")
        n_ctx = layout.n_context
        if n_ctx:
            if cache is None:
                raise ShapeError("layout has context entries but no cache view given")
            check_compatible(cfg, layout, cache)
        h_dim, dh, d = cfg.n_heads, cfg.d_head, cfg.d_model

        cos, sin, swap = _rope_tables(layout.query_positions, h_dim, dh)
        mask = layout.dense_mask()
        blocked = None if mask.all() else ~mask

        x = self.emb[tokens]
        new_kv = []
        inv_sqrt = np.float32(1.0 / math.sqrt(dh))
        for li, layer in enumerate(self.layers):
            # One batched matmul over the stacked [3, d, d] weights runs the
            # same three GEMMs as separate Wq/Wk/Wv products; a single
            # d x 3d GEMM can round differently on some BLAS kernels.
            qkv = np.matmul(_layer_norm(x), layer["wqkv"])
            qk = qkv[:2] * cos
            qk += qkv[:2, :, swap] * sin
            q, k = (a.reshape(r, h_dim, dh) for a in qk)
            v = qkv[2].reshape(r, h_dim, dh)
            new_kv.append((k, v))
            if n_ctx:
                keys = np.concatenate([cache.keys[li], k], axis=0)
                values = np.concatenate([cache.values[li], v], axis=0)
            else:
                keys, values = k, v
            # Scores as K·Qᵀ per head [h, m, r]: the operand order that
            # einsum("rhd,mhd->rhm") hands BLAS, whose rounding can depend on
            # it.  Scaling copies them head-major to [h, r, m], where each
            # row's keys are contiguous: the masked softmax then runs in
            # place with the reductions in row-major order.
            kq = np.matmul(keys.transpose(1, 0, 2), q.transpose(1, 2, 0))
            scores = np.multiply(kq.transpose(0, 2, 1), inv_sqrt, order="C")
            if blocked is not None:
                np.copyto(scores, np.float32(-np.inf), where=blocked)
            scores -= scores.max(axis=-1, keepdims=True)
            np.exp(scores, out=scores)
            scores /= scores.sum(axis=-1, keepdims=True)
            # Vᵀ·Wᵀ per head [h, d_head, r], einsum("rhm,mhd->rhd")'s order.
            ctx_out = np.matmul(values.transpose(1, 2, 0), scores.transpose(0, 2, 1))
            x += ctx_out.transpose(2, 0, 1).reshape(r, d) @ layer["wo"]
            x += _gelu(_layer_norm(x) @ layer["w1"]) @ layer["w2"]
        logits = _layer_norm(x) @ self.wout
        view = LogitsView(logits, layout.query_positions, layout.query_tags)
        return view, new_kv


# --- scripted model ---------------------------------------------------------

# Floor keeps the two-level construction's argmax on the scripted token while
# realizing a near-zero confidence for default (never-accept) entries.
def _conf_floor(vocab_size: int) -> float:
    return 2.0 / vocab_size


# Scheduled positions are sequence positions.  A compiled step costs 8 bytes
# per position of its span, so positions are bounded far beyond any sequence
# a forward can attend over (full attention at 2**16 positions would need
# 2**32 scores per head).
MAX_SCHEDULE_POSITION = 1 << 16


@dataclass
class ScriptedSchedule:
    """Deterministic per-step (token, confidence) assignments.

    `steps[n]` maps absolute position -> (token id, confidence).  Positions
    absent from a step fall back to (mask_token_id, ~0), which no threshold
    ever accepts.  EOS entries in the JSON form are folded into the position
    map at load time.  Each step is compiled to arrays on its first forward
    (``compiled``), so a step's entry must not change after that.
    """

    steps: list[dict[int, tuple[int, float]]]
    vocab_size: int
    mask_token_id: int
    eos_token_id: int | None = None
    _compiled: dict[int, tuple[int, np.ndarray, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if not self.steps:
            raise ConfigError("schedule has no steps")
        for n, entry in enumerate(self.steps):
            for pos, (tok, conf) in entry.items():
                if not (0 <= pos < MAX_SCHEDULE_POSITION):
                    raise ConfigError(
                        f"step {n} pos {pos}: position outside [0, {MAX_SCHEDULE_POSITION})"
                    )
                if not (0.0 <= conf <= 1.0):
                    raise ConfigError(f"step {n} pos {pos}: confidence {conf} outside [0,1]")
                if not (0 <= tok < self.vocab_size):
                    raise ConfigError(f"step {n} pos {pos}: token {tok} outside vocab")

    def __len__(self) -> int:
        return len(self.steps)

    def entry(self, step: int) -> dict[int, tuple[int, float]]:
        if not (0 <= step < len(self.steps)):
            raise RangeError(f"step {step} outside schedule of length {len(self.steps)}")
        return self.steps[step]

    def compiled(self, step: int) -> tuple[int, np.ndarray, np.ndarray]:
        """(base, tokens, peaks) of `step`, built on first use.

        Slot ``i`` of the int32 ``tokens`` and float32 ``peaks`` holds the
        target token and its logit at position ``base + i``, over the span
        of the step's scheduled positions; the last slot holds the default
        (mask token, ~0) for every position outside it.  A step outside the
        schedule raises RangeError and compiles nothing.
        """
        entry = self.entry(step)
        hit = self._compiled.get(step)
        if hit is None:
            hit = self._compiled[step] = _compile_step(entry, self.vocab_size, self.mask_token_id)
        return hit

    @classmethod
    def from_json(cls, path, vocab_size: int, mask_token_id: int, eos_token_id: int | None = None) -> "ScriptedSchedule":
        with open(path) as fh:
            raw = json.load(fh)
        return cls.from_dict(raw, vocab_size, mask_token_id, eos_token_id)

    @classmethod
    def from_dict(cls, raw: dict, vocab_size: int, mask_token_id: int, eos_token_id: int | None = None) -> "ScriptedSchedule":
        """Parse ``{"<step>": {"positions": {"<pos>": [token, conf]},
        "eos": [[pos, conf], ...]}}`` with step keys exactly 0..n-1."""
        if not isinstance(raw, dict):
            raise ConfigError("schedule document must be an object keyed by step index")
        keys = {_int_key(k, "step key"): k for k in raw}
        if sorted(keys) != list(range(len(raw))):
            raise ConfigError(f"step keys must be exactly 0..{len(raw) - 1}, got {sorted(raw)}")
        steps = []
        for n in range(len(raw)):
            where = f"step {keys[n]!r}"
            entry_raw = raw[keys[n]]
            if not isinstance(entry_raw, dict):
                raise ConfigError(f"{where}: must be an object, got {entry_raw!r}")
            extra = [k for k in entry_raw if k not in ("positions", "eos")]
            if extra:
                raise ConfigError(f"{where}: unknown keys {extra}")
            positions = entry_raw.get("positions", {})
            eos_entries = entry_raw.get("eos", [])
            if not isinstance(positions, dict) or not isinstance(eos_entries, list):
                raise ConfigError(f"{where}: 'positions' must be an object and 'eos' a list")
            entry: dict[int, tuple[int, float]] = {}
            for pos, pair in positions.items():
                entry[_int_key(pos, f"{where} position")] = _scripted_pair(
                    pair, f"{where} position {pos!r}", "token"
                )
            if eos_entries and eos_token_id is None:
                raise ConfigError("schedule has eos entries but no eos_token_id was given")
            for pair in eos_entries:
                pos, conf = _scripted_pair(pair, f"{where} eos entry", "position")
                entry[pos] = (int(eos_token_id), conf)
            steps.append(entry)
        return cls(
            steps=steps,
            vocab_size=vocab_size,
            mask_token_id=mask_token_id,
            eos_token_id=eos_token_id,
        )


def _int_key(key, where: str) -> int:
    try:
        return int(key)
    except ValueError:
        raise ConfigError(f"{where} {key!r} is not an integer") from None


def _scripted_pair(value, where: str, first: str) -> tuple[int, float]:
    """(integer, number) from a two-item list, else a ConfigError naming `where`."""
    if (
        isinstance(value, (list, tuple)) and len(value) == 2
        and isinstance(value[0], int) and not isinstance(value[0], bool)
        and isinstance(value[1], (int, float)) and not isinstance(value[1], bool)
    ):
        return value[0], float(value[1])
    raise ConfigError(f"{where}: expected [{first}, confidence], got {value!r}")


def _compile_step(entry, vocab: int, mask_id: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Span arrays of one schedule step (see ``ScriptedSchedule.compiled``).

    Inverting the two-level softmax with n uniform competitors:
    p = e^a / (e^a + n), so a = ln(p n / (1 - p)).  Confidence is clamped to
    keep the argmax on the target.  The logarithm is ``math.log`` slot by
    slot: numpy's vectorized ``log`` need not round like the C library's.
    """
    positions = np.fromiter(entry, dtype=np.int64, count=len(entry))
    base = int(positions.min()) if entry else 0
    span = int(positions.max()) - base + 1 if entry else 0
    pairs = np.empty((span + 1, 2), dtype=np.float64)
    pairs[:] = (mask_id, 0.0)
    if entry:
        pairs[positions - base] = list(entry.values())
    tokens = pairs[:, 0].astype(np.int32)
    c = np.minimum(np.maximum(pairs[:, 1], _conf_floor(vocab)), 1.0 - 1e-9)
    n = np.where(tokens == mask_id, vocab - 1, vocab - 2)
    peaks = np.array([math.log(x) for x in (c * n / (1.0 - c)).tolist()], dtype=np.float32)
    return base, tokens, peaks


def scripted_forward(schedule: ScriptedSchedule, step: int, positions) -> LogitsView:
    """Logits whose softmax puts each scheduled confidence on its token,
    uniform elsewhere.

    Positions outside the step's entry get the default (mask token, ~0).
    Strict on step bounds; ScriptedModel clamps instead.  Rows carry tag 0.

    The mask token gets a huge negative logit (unless it is the target), so
    the confidence reads the same whether or not the decode path strips the
    mask token before deciding.  Each row's token and logit are gathered
    from the step's compiled span arrays by position offset.
    """
    base, tokens, peaks = schedule.compiled(step)
    positions = np.asarray(positions, dtype=np.int64).reshape(-1)
    default = tokens.size - 1
    slots = positions - base
    slots[(slots < 0) | (slots > default)] = default
    rows = np.zeros((positions.size, schedule.vocab_size), dtype=np.float32)
    rows[:, schedule.mask_token_id] = np.float32(-1e30)
    rows[np.arange(positions.size), tokens[slots]] = peaks[slots]
    return LogitsView(rows, positions, np.zeros(positions.size, dtype=np.int64))


class ScriptedModel:
    """Model backend that replays a ScriptedSchedule.

    The decode loop passes `step` as the in-block decode ordinal (refreshes
    pass their refresh ordinal), and steps beyond the schedule's length
    repeat the final entry, so short schedules describe steady-state
    behavior.  K/V outputs are one read-only zero array of the configured
    shape, shared by every layer; the cache machinery copies it and runs
    unchanged but carries no information.
    """

    def __init__(self, config: ModelConfig, schedule: ScriptedSchedule):
        if schedule.vocab_size != config.vocab_size:
            raise ConfigError("schedule vocab differs from model config")
        if schedule.mask_token_id != config.mask_token_id:
            raise ConfigError("schedule mask_token_id differs from model config")
        self.config = config
        self.schedule = schedule

    def forward(self, tokens, layout: AttentionLayout, cache=None, step: int = 0):
        cfg = self.config
        r = layout.n_queries
        tokens = np.asarray(tokens, dtype=np.int64).reshape(-1)
        if tokens.shape[0] != r:
            raise ShapeError(f"{tokens.shape[0]} tokens for {r} query rows")
        clamped = min(step, len(self.schedule) - 1)
        view = scripted_forward(self.schedule, clamped, layout.query_positions)
        view.tags = layout.query_tags
        zeros = np.zeros((r, cfg.n_heads, cfg.d_head), dtype=np.float32)
        zeros.flags.writeable = False
        return view, [(zeros, zeros)] * cfg.n_layers
