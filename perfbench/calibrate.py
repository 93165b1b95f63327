"""Fixed reference computations that track the machine's current speed.

On a shared machine the same code runs up to ~1.7x slower for minutes at a
time, because neighbours contend for the core, caches and memory.  The
benchmark times two kernels beside the requests and reports calibrated
times: request time divided by the current speed factor, a weighted mean
of the two kernels' times relative to their reference times.  The kernels
belong to the benchmark and never change with the program, so program
changes still move calibrated times while host slowdowns largely cancel.

Neighbours slow array code and interpreter code by different amounts, so
there are two kernels, weighted by the workload's numpy share:

* numpy: the toy workloads' operation mix at their sizes, one 288-row
  attention+MLP forward and eight 32-row block forwards over 288 keys;
* python: interpreter-bound bookkeeping like the decode loop's, small
  numpy calls, tuple and dict building, sorting.

Reference times are each kernel's best time on the reference machine
(2-core sandbox, Python 3.11, numpy 2.4 with OpenBLAS, one BLAS thread).
"""

from __future__ import annotations

import math
import time

import numpy as np

_D, _HEADS, _FF, _LAYERS, _VOCAB = 64, 4, 256, 4, 128
_SEQ, _BLOCK, _BLOCKS = 288, 32, 8
_PY_ITERS = 1500
NUMPY_REF_S = 0.033
PYTHON_REF_S = 0.008


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(20240601)
        scale = np.float32(1.0 / math.sqrt(_D))

        def mat(*shape):
            return rng.standard_normal(shape, dtype=np.float32) * scale

        self.layers = [
            (mat(_D, 3 * _D), mat(_D, _D), mat(_D, _FF), mat(_FF, _D)) for _ in range(_LAYERS)
        ]
        self.wout = mat(_D, _VOCAB)
        self.x = mat(_SEQ, _D)

    @staticmethod
    def _ln(x):
        mean = x.mean(axis=-1, keepdims=True)
        return (x - mean) / np.sqrt(x.var(axis=-1, keepdims=True) + np.float32(1e-5))

    @staticmethod
    def _softmax(x):
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    def _forward(self, x, keys_x):
        r, dh = x.shape[0], _D // _HEADS
        mask = np.ones((r, keys_x.shape[0] + r), dtype=bool)
        for wqkv, wo, w1, w2 in self.layers:
            q, k, v = np.split((self._ln(x) @ wqkv).reshape(r, 3, _HEADS, dh), 3, axis=1)
            q, k, v = q[:, 0], k[:, 0], v[:, 0]
            ck = (keys_x @ wqkv[:, _D:2 * _D]).reshape(-1, _HEADS, dh)
            cv = (keys_x @ wqkv[:, 2 * _D:]).reshape(-1, _HEADS, dh)
            keys = np.concatenate([ck, k])
            values = np.concatenate([cv, v])
            scores = np.einsum("rhd,mhd->rhm", q, keys, optimize=True)
            scores = np.where(mask[:, None, :], scores, np.float32(-np.inf))
            ctx = np.einsum("rhm,mhd->rhd", self._softmax(scores), values, optimize=True)
            x = x + ctx.reshape(r, _D) @ wo
            h = self._ln(x) @ w1
            x = x + np.tanh(h) @ w2
        return self._softmax(self._ln(x) @ self.wout)

    def numpy_seconds(self) -> float:
        t0 = time.perf_counter()
        self._forward(self.x, self.x[:0])
        for b in range(_BLOCKS):
            self._forward(self.x[b * _BLOCK:(b + 1) * _BLOCK], self.x)
        return time.perf_counter() - t0

    @staticmethod
    def python_seconds() -> float:
        t0 = time.perf_counter()
        table = {}
        for i in range(_PY_ITERS):
            row = np.asarray([i, i + 1, i + 2], dtype=np.int64)
            table[i] = (int(row.argmax()), float(math.log(1.5 + i)))
            if i % 50 == 0:
                sorted(table.items(), key=lambda e: (-e[1][1], e[0]))
        return time.perf_counter() - t0

    def measure(self) -> tuple[float, float]:
        """Current slowdowns of the numpy and python kernels against their
        reference times: 1.0 on the reference machine at its best."""
        return self.numpy_seconds() / NUMPY_REF_S, self.python_seconds() / PYTHON_REF_S


def slowdown(parts: tuple[float, float], numpy_share: float) -> float:
    numpy_part, python_part = parts
    return numpy_share * numpy_part + (1.0 - numpy_share) * python_part
