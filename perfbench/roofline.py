"""Roofline-modeled time beside measured time, and a fitted CPU profile.

The program's cost model (``blockspec.metrics.cost_of_forward``) prices a
forward at ``max(flops / peak_flops, bytes / mem_bandwidth)``.  Fitting
that same model to measured forward times gives a "CPU profile" whose
per-kind error says how well the model explains this backend.
"""

from __future__ import annotations

import numpy as np

from blockspec.metrics import HardwareProfile, cost_of_forward

# Balance points (flop per byte) tried by the fit, log-spaced.
_BALANCE_GRID = np.logspace(-3, 4, 701)


def fit_profile(flops, nbytes, seconds) -> HardwareProfile:
    """Least-squares roofline fit over measured forwards.

    For a fixed balance point b = peak_flops / mem_bandwidth the model is
    t = max(flops, b * bytes) / peak_flops, linear in 1 / peak_flops, so the
    relative-error least-squares scale has a closed form; the balance point
    is chosen on a log grid.  Relative error keeps small forwards from being
    drowned out by large ones.
    """
    f = np.asarray(flops, dtype=np.float64)
    b = np.asarray(nbytes, dtype=np.float64)
    t = np.asarray(seconds, dtype=np.float64)
    if f.size == 0 or np.any(t <= 0):
        raise ValueError("fit needs at least one forward with positive time")
    best = None
    for balance in _BALANCE_GRID:
        x = np.maximum(f, balance * b) / t
        scale = float(x.sum() / (x * x).sum())
        err = float(((scale * x - 1.0) ** 2).sum())
        if best is None or err < best[0]:
            best = (err, float(balance), scale)
    _, balance, scale = best
    peak = 1.0 / scale
    return HardwareProfile(name="cpu-fit", peak_flops=peak, mem_bandwidth=peak / balance)


def fit_errors(model_cfg, forwards, profile: HardwareProfile) -> dict[str, float]:
    """Median signed relative error (modeled - measured) / measured per kind.

    ``forwards`` holds (kind, rows, keys, seconds) tuples.
    """
    by_kind: dict[str, list[float]] = {}
    for kind, rows, keys, seconds in forwards:
        pred = cost_of_forward(model_cfg, rows, keys, profile).est_time_s
        by_kind.setdefault(kind, []).append((pred - seconds) / seconds)
    return {kind: float(np.median(errs)) for kind, errs in by_kind.items()}
