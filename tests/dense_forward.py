"""Dense reference forward for the tests.

``ToyModel.forward`` projects q|k|v in one batched matmul, rotates q|k in
one pass, and scales, masks and softmaxes key-major scores in place.  This
module keeps the straightforward form it replaced: separate Wq/Wk/Wv
products, einsum scores, an ``np.where`` mask over every layout, and an
allocating softmax, layer norm, RoPE and GELU.  Both perform the same
float32 operations in the same order, so tests hold the fast path to
bitwise equality with this one at d_head >= 2.  At d_head 1, V·P is a
matrix-vector product whose BLAS rounding follows the weights' layout, and
the two round apart; tests hold them within a measured bound there.
"""

import math

import numpy as np

from blockspec.model import LogitsView

_LN_EPS = np.float32(1e-5)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-subtracted softmax in float32."""
    x = np.asarray(x, dtype=np.float32)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def _layer_norm(x: np.ndarray) -> np.ndarray:
    mean = x.mean(axis=-1, keepdims=True, dtype=np.float32)
    var = x.var(axis=-1, keepdims=True, dtype=np.float32)
    return ((x - mean) / np.sqrt(var + _LN_EPS)).astype(np.float32)


def _gelu(x: np.ndarray) -> np.ndarray:
    c = np.float32(math.sqrt(2.0 / math.pi))
    return (np.float32(0.5) * x * (np.float32(1.0) + np.tanh(c * (x + np.float32(0.044715) * x * x * x)))).astype(np.float32)


def _rope_tables(positions: np.ndarray, d_head: int) -> tuple[np.ndarray, np.ndarray]:
    half = d_head // 2
    inv_freq = (10000.0 ** (-np.arange(half, dtype=np.float64) / max(half, 1))).astype(np.float32)
    angles = positions.astype(np.float32)[:, None] * inv_freq[None, :]
    return np.cos(angles), np.sin(angles)


def _apply_rope(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    half = cos.shape[1]
    x1 = x[:, :, :half]
    x2 = x[:, :, half : 2 * half]
    rot1 = x1 * cos[:, None, :] - x2 * sin[:, None, :]
    rot2 = x1 * sin[:, None, :] + x2 * cos[:, None, :]
    out = x.copy()
    out[:, :, :half] = rot1
    out[:, :, half : 2 * half] = rot2
    return out


def dense_forward(model, tokens, layout, cache=None):
    """``model.forward(tokens, layout, cache)`` computed the dense way, for
    inputs that ``ToyModel.forward`` accepts."""
    cfg = model.config
    tokens = np.asarray(tokens, dtype=np.int64).reshape(-1)
    r = layout.n_queries
    n_ctx = layout.n_context
    h_dim, dh = cfg.n_heads, cfg.d_head

    qpos = np.asarray(layout.query_positions, dtype=np.int64)
    cos, sin = _rope_tables(qpos, dh)
    mask = layout.dense_mask()

    x = model.emb[tokens]
    new_kv = []
    inv_sqrt = np.float32(1.0 / math.sqrt(dh))
    for li, layer in enumerate(model.layers):
        wq, wk, wv = layer["wqkv"]
        h = _layer_norm(x)
        q = _apply_rope((h @ wq).reshape(r, h_dim, dh), cos, sin)
        k = _apply_rope((h @ wk).reshape(r, h_dim, dh), cos, sin)
        v = (h @ wv).reshape(r, h_dim, dh)
        new_kv.append((k, v))
        if n_ctx:
            keys = np.concatenate([cache.keys[li], k], axis=0)
            values = np.concatenate([cache.values[li], v], axis=0)
        else:
            keys, values = k, v
        scores = np.einsum("rhd,mhd->rhm", q, keys, optimize=True) * inv_sqrt
        scores = np.where(mask[:, None, :], scores, np.float32(-np.inf))
        weights = softmax(scores, axis=-1)
        ctx_out = np.einsum("rhm,mhd->rhd", weights, values, optimize=True)
        x = x + ctx_out.reshape(r, cfg.d_model) @ layer["wo"]
        x = x + _gelu(_layer_norm(x) @ layer["w1"]) @ layer["w2"]
    logits = _layer_norm(x) @ model.wout
    view = LogitsView(logits, qpos, np.asarray(layout.query_tags, dtype=np.int64))
    return view, new_kv
