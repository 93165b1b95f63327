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

import itertools
import math
import reprlib
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigError, RangeError, ShapeError, check_fields, check_value, load_document
from .layout import AttentionLayout

_LN_EPS = np.float32(1e-5)

# Largest toy model that may be materialized: 1 GiB of float32 weights.
MAX_TOY_PARAMS = 1 << 28
# Sequence positions, scheduled or rotated, lie in [0, MAX_POSITION).  A
# compiled schedule step costs 8 bytes per position of its span and a toy
# model's RoPE table 8 * d_model, so positions are bounded far beyond any
# sequence a forward can attend over (full attention at 2**16 positions
# would need 2**32 scores per head).
MAX_POSITION = 1 << 16
# Largest size field; it admits the LLaDA-8B-sized configs of scripted cost runs.
MAX_MODEL_SIZE = 1 << 20


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
        check_fields(self)
        for name in ("vocab_size", "d_model", "n_layers", "n_heads", "d_ff"):
            if not 1 <= getattr(self, name) <= MAX_MODEL_SIZE:
                raise ConfigError(f"{name} must lie in [1, {MAX_MODEL_SIZE}]")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
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


@dataclass
class LogitsView:
    """Per-row score vectors with the map back to absolute positions.

    Rows correspond 1:1 to the forward layout's query rows; ``positions`` and
    ``tags`` identify them.  Speculative layouts repeat a position across
    tags, so lookups take (position, tag).
    """

    logits: np.ndarray
    positions: np.ndarray
    tags: np.ndarray

    def __post_init__(self):
        self.logits = np.asarray(self.logits, dtype=np.float32)
        self.positions = np.asarray(self.positions, dtype=np.int64)
        self.tags = np.asarray(self.tags, dtype=np.int64)
        if self.logits.ndim != 2:
            raise ShapeError("logits must be [rows, vocab]")
        if not (self.logits.shape[0] == self.positions.shape[0] == self.tags.shape[0]):
            raise ShapeError("row count mismatch between logits and position map")
        if not np.isfinite(self.logits).all():
            raise ShapeError("non-finite logits in view")

    @property
    def n_rows(self) -> int:
        return self.logits.shape[0]

    def rows(self, positions, tag=0) -> np.ndarray:
        """Row of each (position, tag) pair, `positions` and `tag`
        broadcast together (a [tags, 1] column of tags against positions
        gives a [tags, positions] table).  A missing or duplicated pair
        raises ShapeError naming it and its row count."""
        positions, tag = np.asarray(positions, dtype=np.int64), np.asarray(tag, dtype=np.int64)
        hit = (positions[..., None] == self.positions) & (tag[..., None] == self.tags)
        counts = hit.sum(axis=-1)
        if (counts != 1).any():
            bad = tuple(np.argwhere(counts != 1)[0])
            position, tag = (a[bad] for a in np.broadcast_arrays(positions, tag))
            raise ShapeError(f"position {position} tag {tag}: {counts[bad]} rows")
        return hit.argmax(axis=-1)

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


def _gelu(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Tanh GELU, overwriting and returning `x`; `t` is a work buffer of
    the same shape.

    Evaluates 0.5*x * (1 + tanh(c * (x + 0.044715*x*x*x))) with the same
    float32 rounding at every step as the one-line expression, in two
    buffers instead of eight.
    """
    np.multiply(np.float32(0.044715), x, out=t)
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
    Each table row depends on its position alone.
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


# numpy sums a contiguous float32 row pairwise: a run of more than this many
# values is split in two at a multiple of 8 below its half.
_PAIRWISE_LEAF = 128


@lru_cache(maxsize=1024)
def _sum_plan(m: int):
    """numpy's order for summing a contiguous float32 row of `m` values, as
    (runs, tail, adds) for ``_key_sum``.

    numpy splits the row until its parts, the leaves, hold at most
    ``_PAIRWISE_LEAF`` values.  A leaf adds its groups of 8 values into
    eight sequential accumulators, combines them as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` and adds the values after its
    last full group in order.  Every split falls on a multiple of 8, so only
    the last leaf has such values; `tail` slices them.  (A row of fewer than
    8 values is one leaf of no groups.)  Each run ``(values, leaves, k, g)``
    covers `k` adjacent leaves of `g` groups each.  `adds` lists the splits
    bottom up as index pairs into the leaf sums followed by the sums the
    earlier pairs made; the last pair makes the row's sum.
    """
    leaves, adds = [], []  # leaves as (first group, groups)

    def split(start: int, n: int) -> int:
        """Index of the sum of the values [start, start + n): a leaf's, or
        -1 - i for the i-th of `adds` until the leaves are counted."""
        if n <= _PAIRWISE_LEAF:
            leaves.append((start // 8, n // 8))
            return len(leaves) - 1
        half = n // 2 - n // 2 % 8
        adds.append((split(start, half), split(start + half, n - half)))
        return -len(adds)

    split(0, m)
    runs = []  # [first group, first leaf, leaves, groups per leaf]
    for i, (group, g) in enumerate(leaves):
        if runs and runs[-1][3] == g:
            runs[-1][2] += 1
        else:
            runs.append([group, i, 1, g])
    runs = tuple((slice(8 * group, 8 * (group + k * g)), slice(i, i + k), k, g)
                 for group, i, k, g in runs)
    n = len(leaves)
    adds = tuple(tuple(i if i >= 0 else n - 1 - i for i in pair) for pair in adds)
    return runs, slice(m - m % 8, m), adds


def _key_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=0)`` of the float32 array `a` of non-negative values
    with keys on its first axis, bit for bit as numpy sums each column of
    keys once it is a contiguous row: ``np.ascontiguousarray(np.moveaxis(a,
    0, -1)).sum(-1)``.

    ``_sum_plan`` gives numpy's pairwise order.  One reduce over an outer
    axis per run of equal leaves adds each leaf's groups of 8 in order,
    three adds combine the eight accumulators of every leaf as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, the tail is added row by row,
    and the leaf sums are added up the split tree.
    """
    runs, tail, adds = _sum_plan(len(a))
    flat = a.reshape(len(a), -1)
    c = flat.shape[1]
    acc = np.empty((runs[-1][1].stop, 8, c), dtype=np.float32)  # per leaf
    for rows, leaves, k, g in runs:
        np.add.reduce(flat[rows].reshape(k, g, 8, c), axis=1, out=acc[leaves])
    acc = acc[:, 0::2] + acc[:, 1::2]
    acc = acc[:, 0::2] + acc[:, 1::2]
    sums = acc[:, 0] + acc[:, 1]
    last = sums[-1]
    for row in flat[tail]:
        last += row
    sums = list(sums)
    for left, right in adds:
        sums.append(sums[left] + sums[right])
    return sums[-1].reshape(a.shape[1:])


def _attention(q, keys, values, bias, n_ctx: int, kq, out) -> None:
    """Masked softmax attention of every query head, written to `out`
    ([heads, d_head, rows]).  `kq` is a [keys, heads, rows] work buffer of
    scores, and `bias` the [fresh keys, rows] mask bias or None."""
    # K·Qᵀ per head, through a [h, m, r] view: the operand order that
    # einsum("rhd,mhd->rhm") hands BLAS, whose rounding can depend on it.
    # Keys outermost, each key's scores for the heads and rows are
    # contiguous, and the masked softmax runs in place down each column of
    # keys.  Its sums follow numpy's pairwise order over a contiguous row,
    # so every weight equals the row-major softmax's.  Adding 0 keeps a
    # score and adding -inf hides it, so the bias masks exactly.
    np.matmul(keys.transpose(1, 0, 2), q.transpose(1, 2, 0), out=kq.transpose(1, 0, 2))
    kq *= np.float32(1.0 / math.sqrt(q.shape[2]))
    if bias is not None:
        kq[n_ctx:] += bias[:, None]
    kq -= kq.max(axis=0)
    np.exp(kq, out=kq)
    kq /= _key_sum(kq)
    weights = kq.transpose(1, 0, 2)
    if q.shape[0] == 1:
        # BLAS multiplies one row's weights as a vector, and rounds a
        # strided vector otherwise than a contiguous one
        weights = weights.copy()
    # Vᵀ·P per head [h, d_head, r], einsum("rhm,mhd->rhd")'s order.
    np.matmul(values.transpose(1, 2, 0), weights, out=out)


class ToyModel:
    """Bidirectional pre-norm transformer over laid-out token batches.

    Weights are immutable after init and shareable across threads; forward
    never mutates the cache and allocates its buffers per call.  The one
    model state forward touches is the RoPE table: a forward past its last
    position builds a larger table and replaces it whole, so a row, once
    built, is never rewritten.

    Attention keeps a layer's scores where BLAS writes K·Qᵀ, keys
    outermost ([keys, heads, rows]), and runs the masked softmax there
    without a transposed copy.  Each column's sum over its keys reproduces
    numpy's pairwise order over a contiguous row (``_key_sum``), so the
    weights equal a row-major softmax's bit for bit.  At d_head >= 2 the
    forward equals the straightforward dense one bit for bit; at d_head 1,
    V·P is a matrix-vector product that BLAS rounds by the weights' layout.
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
        self._rope_table = _rope_tables(np.arange(0), config.n_heads, config.d_head)

    def _rope(self, positions: np.ndarray):
        """``_rope_tables(positions, ...)``, gathered from the model's table
        of positions 0..n-1."""
        last = int(positions.max())
        if positions.min() < 0 or last >= MAX_POSITION:
            raise RangeError(f"position IDs must lie in [0, {MAX_POSITION})")
        cos, sin, swap = self._rope_table
        if last >= len(cos):
            n = np.arange(last + 1)
            cos, sin, swap = self._rope_table = _rope_tables(n, self.config.n_heads, self.config.d_head)
        return cos[positions], sin[positions], swap

    def forward(self, tokens, layout: AttentionLayout, cache=None, step: int = 0,
                logits: bool = True):
        """Run the batched forward described by `layout`.

        Returns (LogitsView over query rows, per-layer fresh (K, V) of those
        rows).  `cache` supplies K/V for the layout's context entries; `step`
        is ignored (scripted models use it).  With ``logits=False`` the
        forward stops at the last layer's K/V and returns (None, K/V).
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
        m = layout.n_keys

        cos, sin, swap = self._rope(layout.query_positions)
        # Only sibling speculative blocks hide fresh keys from each other,
        # so a one-tag layout needs no mask; context keys are always seen.
        tags = layout.query_tags
        bias = None
        if (tags != tags[0]).any():
            bias = np.where(layout.fresh_mask().T, np.float32(0.0), np.float32(-np.inf))

        # Each layer refills these; allocated once per call, they keep the
        # forward reentrant and never reach the caller.
        kq = np.empty((m, h_dim, r), dtype=np.float32)
        attn = np.empty((h_dim, dh, r), dtype=np.float32)
        hidden = np.empty((r, cfg.d_ff), dtype=np.float32)
        gelu_t = np.empty_like(hidden)

        x = self.emb[tokens]
        new_kv = []
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
            if not logits and li == cfg.n_layers - 1:
                return None, new_kv
            if n_ctx:
                keys = np.concatenate([cache.keys[li], k], axis=0)
                values = np.concatenate([cache.values[li], v], axis=0)
            else:
                keys, values = k, v
            _attention(q, keys, values, bias, n_ctx, kq, attn)
            x += attn.transpose(2, 0, 1).reshape(r, d) @ layer["wo"]
            np.matmul(_layer_norm(x), layer["w1"], out=hidden)
            x += _gelu(hidden, gelu_t) @ layer["w2"]
        view = LogitsView(_layer_norm(x) @ self.wout, layout.query_positions, layout.query_tags)
        return view, new_kv


# --- scripted model ---------------------------------------------------------

# Floor keeps the two-level construction's argmax on the scripted token while
# realizing a near-zero confidence for default (never-accept) entries.
def _conf_floor(vocab_size: int) -> float:
    return 2.0 / vocab_size


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
            raise ConfigError("no steps given")
        for n, entry in enumerate(self.steps):
            for pos, (tok, conf) in entry.items():
                if not (0 <= pos < MAX_POSITION):
                    raise ConfigError(
                        f"step {n} pos {reprlib.repr(pos)}: position outside [0, {MAX_POSITION})"
                    )
                if not (0.0 <= conf <= 1.0):
                    raise ConfigError(f"step {n} pos {pos}: confidence {conf} outside [0,1]")
                if not (0 <= tok < self.vocab_size):
                    raise ConfigError(f"step {n} pos {pos}: token {reprlib.repr(tok)} outside vocab")

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
    def from_dict(cls, raw: dict, vocab_size: int, mask_token_id: int, eos_token_id: int | None = None) -> "ScriptedSchedule":
        """Parse ``{"<step>": {"positions": {"<pos>": [token, conf]},
        "eos": [[pos, conf], ...]}}`` with step keys exactly 0..n-1."""
        if not isinstance(raw, dict):
            raise ConfigError("must be an object keyed by step index")
        keys = {_int_key(k, "step key"): k for k in raw}
        if sorted(keys) != list(range(len(raw))):
            raise ConfigError(
                f"step keys must be exactly 0..{len(raw) - 1}, got {reprlib.repr(sorted(raw))}")
        steps = []
        for n in range(len(raw)):
            where = f"step {keys[n]!r}"
            entry_raw = raw[keys[n]]
            if not isinstance(entry_raw, dict):
                raise ConfigError(f"{where}: must be an object, got {reprlib.repr(entry_raw)}")
            extra = [k for k in entry_raw if k not in ("positions", "eos")]
            if extra:
                raise ConfigError(f"{where}: unknown keys {reprlib.repr(extra)}")
            positions = entry_raw.get("positions", {})
            eos_entries = entry_raw.get("eos", [])
            if not isinstance(positions, dict) or not isinstance(eos_entries, list):
                raise ConfigError(f"{where}: 'positions' must be an object and 'eos' a list")
            entry: dict[int, tuple[int, float]] = {}
            for pos, pair in positions.items():
                entry[_int_key(pos, f"{where} position")] = _scripted_pair(
                    pair, f"{where} position {reprlib.repr(pos)}", "token"
                )
            if eos_entries and eos_token_id is None:
                raise ConfigError("eos entries given but no eos_token_id")
            for pair in eos_entries:
                pos, conf = _scripted_pair(pair, f"{where} eos entry", "position")
                if pos in entry:
                    raise ConfigError(f"{where}: position {reprlib.repr(pos)} given twice")
                entry[pos] = (int(eos_token_id), conf)
            steps.append(entry)
        return cls(
            steps=steps,
            vocab_size=vocab_size,
            mask_token_id=mask_token_id,
            eos_token_id=eos_token_id,
        )


def _int_key(key: str, where: str) -> int:
    """`key` as an integer, if it is the decimal form of one (so "020" or
    "2_0" cannot stand for the position 20 a second time)."""
    try:
        if str(int(key)) == key:
            return int(key)
    except ValueError:
        pass
    raise ConfigError(f"{where} {reprlib.repr(key)} is not an integer in decimal form")


def _scripted_pair(value, where: str, first: str) -> tuple[int, float]:
    """(integer, float) from a two-item list, each held to its kind by
    ``check_value``, else a ConfigError naming `where`."""
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ConfigError(f"{where}: expected [{first}, confidence], got {reprlib.repr(value)}")
    return (check_value(f"{where} {first}", value[0], (int,)),
            check_value(f"{where} confidence", value[1], (float,)))


def _compile_step(entry, vocab: int, mask_id: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Span arrays of one schedule step (see ``ScriptedSchedule.compiled``).

    Inverting the two-level softmax with n uniform competitors:
    p = e^a / (e^a + n), so a = ln(p n / (1 - p)).  Confidence is clamped to
    keep the argmax on the target.  A 2-token vocabulary leaves a target
    other than the mask token no competitor: it holds all the non-mask
    probability whatever its logit, so the formula counts one.  The
    logarithm is ``math.log`` slot by slot: numpy's vectorized ``log`` need
    not round like the C library's.
    """
    size = len(entry)
    positions = np.fromiter(entry, dtype=np.int64, count=size)
    base = int(positions.min()) if size else 0
    span = int(positions.max()) - base + 1 if size else 0
    pairs = np.empty((span + 1, 2), dtype=np.float64)
    pairs[:] = (mask_id, 0.0)
    if size:
        # (token, confidence) pairs read flat, as float64 like the slots
        flat = itertools.chain.from_iterable(entry.values())
        pairs[positions - base] = np.fromiter(flat, dtype=np.float64, count=2 * size).reshape(size, 2)
    tokens = pairs[:, 0].astype(np.int32)
    c = np.minimum(np.maximum(pairs[:, 1], _conf_floor(vocab)), 1.0 - 1e-9)
    n = np.where(tokens == mask_id, vocab - 1, max(vocab - 2, 1))
    logs = map(math.log, (c * n / (1.0 - c)).tolist())
    peaks = np.fromiter(logs, dtype=np.float64, count=span + 1).astype(np.float32)
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
    positions = np.asarray(positions, dtype=np.int64)
    if positions.ndim != 1:
        positions = positions.reshape(-1)
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
    unchanged but carries no information.  With ``logits=False`` forward
    returns (None, K/V), as ``ToyModel.forward`` does.
    """

    def __init__(self, config: ModelConfig, schedule: ScriptedSchedule):
        if schedule.vocab_size != config.vocab_size:
            raise ConfigError("schedule vocab differs from model config")
        if schedule.mask_token_id != config.mask_token_id:
            raise ConfigError("schedule mask_token_id differs from model config")
        self.config = config
        self.schedule = schedule

    def forward(self, tokens, layout: AttentionLayout, cache=None, step: int = 0,
                logits: bool = True):
        cfg = self.config
        r = layout.n_queries
        tokens = np.asarray(tokens, dtype=np.int64).reshape(-1)
        if tokens.shape[0] != r:
            raise ShapeError(f"{tokens.shape[0]} tokens for {r} query rows")
        zeros = np.zeros((r, cfg.n_heads, cfg.d_head), dtype=np.float32)
        zeros.flags.writeable = False
        kv = [(zeros, zeros)] * cfg.n_layers
        if not logits:
            return None, kv
        clamped = min(step, len(self.schedule) - 1)
        view = scripted_forward(self.schedule, clamped, layout.query_positions)
        view.tags = layout.query_tags
        return view, kv
