"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps the public functions of each module on the decode
path, ``Tracer.remove`` puts the originals back.  A module-level function is
wrapped wherever a ``blockspec`` module holds a reference to it, because
``decoder`` and ``speculative`` import their helpers by name; methods are
wrapped on their class.  Spans (name, start, end, parent, request) stay in
memory; ``layer_metrics`` turns them into per-layer numbers after the run.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np
from blockspec.metrics import cost_of_forward, trajectory_metrics

import roofline

# (span name, home module, function or Class.method)
SPAN_TARGETS = (
    ("model.forward", "model", "ToyModel.forward"),
    ("model.forward", "model", "ScriptedModel.forward"),
    ("layout.build", "layout", "full_sequence_layout"),
    ("layout.build", "layout", "build_block_layout"),
    ("layout.build", "layout", "build_spec_layout"),
    ("layout.dense_mask", "layout", "AttentionLayout.dense_mask"),
    ("cache.refresh", "cache", "refresh_dual_cache"),
    ("cache.view", "cache", "cache_view"),
    ("cache.truncated", "cache", "DualCache.truncated"),
    ("decoder.decode", "decoder", "decode"),
    ("decoder.threshold_step", "decoder", "threshold_step"),
    ("decoder.masked_greedy", "decoder", "masked_greedy"),
    ("decoder.threshold_decide", "decoder", "threshold_decide"),
    ("decoder.apply_outcome", "decoder", "apply_outcome"),
    ("speculative.select_candidates", "speculative", "select_candidates"),
    ("speculative.spec_step", "speculative", "spec_step"),
    ("speculative.resolve_jump", "speculative", "resolve_jump"),
    ("alp.scan_eos", "alp", "scan_eos"),
    ("alp.apply_truncation", "alp", "apply_truncation"),
    ("trajectory.to_json", "trajectory", "Trajectory.to_json"),
)
# Called once per decision row; counted, not spanned, so its time stays in
# the caller's self time.  speculative.row_lookups counts the calls made
# directly by spec_step, the O(R^2) scan over the speculative rows.
COUNT_TARGETS = (("speculative.row_lookups", "model", "LogitsView.row"),)

KINDS = ("full", "block", "spec1", "spec2")

NAME, START, END, PARENT, REQUEST, INFO = range(6)


def _layout_arg(args, kwargs):
    return args[2] if len(args) > 2 else kwargs["layout"]


# Cheap facts kept from a call's arguments or result; evaluated after the
# span closes.
_INFO = {
    "model.forward": lambda args, kwargs, out: _layout_arg(args, kwargs),
    "layout.dense_mask": lambda args, kwargs, out: out.size,
    "cache.refresh": lambda args, kwargs, out: out[0].nbytes(),
    "speculative.spec_step": lambda args, kwargs, out: out[0].adopted_tag,
}


def forward_kind(layout) -> str:
    if layout.stage in (1, 2):
        return f"spec{layout.stage}"
    return "block" if layout.n_context > 0 else "full"


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "blockspec" or name.startswith("blockspec."))]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        # (counter, name of the innermost open span) -> calls
        self.counts: dict[tuple[str, str | None], int] = defaultdict(int)
        self.request = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording -----------------------------------------------------
    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.request, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, name, fn):
        info = _INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if info is not None:
                self.spans[idx][INFO] = info(args, kwargs, out)
            return out

        return wrapper

    def _count_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = self.spans[self._stack[-1]][NAME] if self._stack else None
            self.counts[(name, caller)] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------
    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.missing = []
        modules = _modules()
        for name, home, qualname in SPAN_TARGETS:
            self._patch(modules, home, qualname, self._span_wrapper, name)
        for name, home, qualname in COUNT_TARGETS:
            self._patch(modules, home, qualname, self._count_wrapper, name)

    def _patch(self, modules, home, qualname, make, name) -> None:
        home_mod = sys.modules.get(f"blockspec.{home}")
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(home_mod, owner_name, None)
            original = None if owner is None else owner.__dict__.get(attr)
            if original is None:
                self.missing.append(f"{home}.{qualname}")
                return
            self._set(owner, attr, make(name, original), original)
            return
        original = getattr(home_mod, attr, None)
        if original is None:
            original = next((getattr(m, attr) for m in modules if hasattr(m, attr)), None)
        if original is None:
            self.missing.append(f"{home}.{qualname}")
            return
        wrapped = make(name, original)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                self._set(mod, attr, wrapped, original)

    def _set(self, owner, attr, wrapped, original) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def originals() -> dict[tuple[int, str], object]:
    """Every attribute a tracer would patch, by owner identity and name, so
    a caller can assert after ``remove`` that nothing was left wrapped."""
    modules = _modules()
    found = {}
    for _name, home, qualname in SPAN_TARGETS + COUNT_TARGETS:
        owner_name, _, attr = qualname.rpartition(".")
        home_mod = sys.modules.get(f"blockspec.{home}")
        owners = [getattr(home_mod, owner_name, None)] if owner_name else modules
        for owner in filter(None, owners):
            value = owner.__dict__.get(attr) if owner_name else getattr(owner, attr, None)
            if value is not None:
                found[(id(owner), attr)] = value
    return found


# -- per-layer metrics -------------------------------------------------------

UNITS = {}
for _k in KINDS:
    UNITS.update({
        f"model.calls.{_k}": "count",
        f"model.self_ms.{_k}": "ms",
        f"model.ms_per_call.{_k}": "ms",
        f"model.rows.{_k}": "rows",
        f"model.keys.{_k}": "keys",
        f"model.score_density.{_k}": "ratio",
        f"model.flops.{_k}": "flop",
        f"model.bytes.{_k}": "B",
    })
UNITS.update({
    "cache.refresh_self_ms": "ms",
    "cache.view_ms": "ms",
    "cache.bytes_peak": "B",
    "cache.key_share": "ratio",
    "layout.build_ms": "ms",
    "layout.dense_mask_ms": "ms",
    "layout.dense_mask_entries": "count",
    "decoder.loop_self_ms": "ms",
    "decoder.threshold_step_ms": "ms",
    "decoder.tokens_per_step.threshold": "tok/step",
    "decoder.tokens_per_step.spec": "tok/step",
    "decoder.forced_share": "ratio",
    "speculative.calls.stage1": "count",
    "speculative.calls.stage2": "count",
    "speculative.spec_step_self_ms": "ms",
    "speculative.resolve_jump_ms": "ms",
    "speculative.row_lookups": "count",
    "speculative.adopted_share": "ratio",
    "speculative.jumps_per_step": "count",
    "speculative.wasted_row_share": "ratio",
    "alp.scan_ms": "ms",
    "alp.truncations": "count",
    "alp.cut_share": "ratio",
    "trajectory.to_json_ms": "ms",
    "trajectory.json_bytes": "B",
    "metrics.modeled_us": "us",
})
UNITS.update({f"metrics.measured_over_modeled.{k}": "ratio" for k in KINDS})
UNITS.update({
    "metrics.fit.peak_gflops": "GFLOP/s",
    "metrics.fit.mem_gbps": "GB/s",
})
UNITS.update({f"metrics.fit.rel_err.{k}": "ratio" for k in KINDS})
UNITS.update({
    "metrics.odb_over_fast.modeled": "ratio",
    "metrics.odb_over_fast.measured": "ratio",
    "trace.overhead": "ratio",
})


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, trajs, json_bytes, model_cfg, a100, fit_forwards: bool):
    """Per-layer metrics from one traced phase.

    ``trajs`` are the traced requests' trajectories and ``json_bytes`` the
    sizes of their serialized forms.  ``_ms`` and count metrics are per
    request; ``ms_per_call`` is a median; rows, keys, flops and bytes are
    means per call.  Returns (metrics, details) where details holds the
    fitted profile and per-request forward counts.
    """
    n_req = len(trajs)
    spans = tracer.spans
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    dur = defaultdict(float)
    self_time = defaultdict(float)
    fw: dict[str, list] = {k: [] for k in KINDS}       # (layout, inclusive s, self s)
    forwards_per_request: dict[object, int] = defaultdict(int)
    spec_layouts = []                                   # (layout, adopted tag)
    refresh_bytes = [0]
    dense_entries = 0
    for i, s in enumerate(spans):
        d = s[END] - s[START]
        name = s[NAME]
        dur[name] += d
        self_time[name] += d - child[i]
        if name == "model.forward":
            layout = s[INFO]
            kind = forward_kind(layout)
            fw[kind].append((layout, d, d - child[i]))
            forwards_per_request[s[REQUEST]] += 1
            parent = spans[s[PARENT]] if s[PARENT] >= 0 else None
            if parent is not None and parent[NAME] == "speculative.spec_step":
                spec_layouts.append((layout, parent[INFO]))
        elif name == "layout.dense_mask":
            dense_entries += s[INFO]
        elif name == "cache.refresh":
            refresh_bytes.append(s[INFO])

    m: dict[str, float] = {}
    forwards = []                       # (kind, rows, keys, seconds, flops, bytes)
    ctx_keys = all_keys = 0
    for kind in KINDS:
        calls = fw[kind]
        rows = [lay.n_queries for lay, _, _ in calls]
        keys = [lay.n_keys for lay, _, _ in calls]
        allowed = sum(int(lay.dense_mask().sum()) for lay, _, _ in calls)
        computed = sum(r * k for r, k in zip(rows, keys))
        costs = [cost_of_forward(model_cfg, r, k, a100) for r, k in zip(rows, keys)]
        measured = sum(d for _, d, _ in calls)
        modeled = sum(c.est_time_s for c in costs)
        m[f"model.calls.{kind}"] = len(calls) / n_req
        m[f"model.self_ms.{kind}"] = 1e3 * sum(sd for _, _, sd in calls) / n_req
        m[f"model.ms_per_call.{kind}"] = 1e3 * float(np.median([d for _, d, _ in calls])) if calls else 0.0
        m[f"model.rows.{kind}"] = float(np.mean(rows)) if calls else 0.0
        m[f"model.keys.{kind}"] = float(np.mean(keys)) if calls else 0.0
        m[f"model.score_density.{kind}"] = _ratio(allowed, computed)
        m[f"model.flops.{kind}"] = float(np.mean([c.flops for c in costs])) if calls else 0.0
        m[f"model.bytes.{kind}"] = float(np.mean([c.bytes for c in costs])) if calls else 0.0
        m[f"metrics.measured_over_modeled.{kind}"] = _ratio(measured, modeled)
        forwards.extend(
            (kind, r, k, d, c.flops, c.bytes)
            for r, k, (_, d, _), c in zip(rows, keys, calls, costs)
        )
        if kind != "full":
            ctx_keys += sum(lay.n_context for lay, _, _ in calls)
            all_keys += sum(keys)

    m["cache.refresh_self_ms"] = 1e3 * self_time["cache.refresh"] / n_req
    m["cache.view_ms"] = 1e3 * dur["cache.view"] / n_req
    m["cache.bytes_peak"] = float(max(refresh_bytes))
    m["cache.key_share"] = _ratio(ctx_keys, all_keys)
    m["layout.build_ms"] = 1e3 * dur["layout.build"] / n_req
    m["layout.dense_mask_ms"] = 1e3 * dur["layout.dense_mask"] / n_req
    m["layout.dense_mask_entries"] = dense_entries / n_req

    steps = [s for t in trajs for s in t.steps]
    thr = [s for s in steps if s.kind == "threshold"]
    spec = [s for s in steps if s.kind == "spec"]
    accept_threshold = trajs[0].run_config["accept_threshold"]
    forced = sum(1 for s in thr if len(s.accepted) == 1 and s.accepted[0][2] <= accept_threshold)
    m["decoder.loop_self_ms"] = 1e3 * self_time["decoder.decode"] / n_req
    m["decoder.threshold_step_ms"] = 1e3 * dur["decoder.threshold_step"] / n_req
    m["decoder.tokens_per_step.threshold"] = _ratio(sum(len(s.accepted) for s in thr), len(thr))
    m["decoder.tokens_per_step.spec"] = _ratio(sum(len(s.accepted) for s in spec), len(spec))
    m["decoder.forced_share"] = _ratio(forced, len(thr))

    wasted = sum(sum(1 for t in lay.query_tags if t != tag) for lay, tag in spec_layouts)
    spec_rows = sum(lay.n_queries for lay, _ in spec_layouts)
    m["speculative.calls.stage1"] = sum(1 for s in spec if s.stage == 1) / n_req
    m["speculative.calls.stage2"] = sum(1 for s in spec if s.stage == 2) / n_req
    m["speculative.spec_step_self_ms"] = 1e3 * self_time["speculative.spec_step"] / n_req
    m["speculative.resolve_jump_ms"] = 1e3 * dur["speculative.resolve_jump"] / n_req
    m["speculative.row_lookups"] = (
        tracer.counts[("speculative.row_lookups", "speculative.spec_step")] / n_req
    )
    m["speculative.adopted_share"] = _ratio(sum(1 for s in spec if s.adopted_tag != 0), len(spec))
    m["speculative.jumps_per_step"] = _ratio(sum(s.jump_count for s in spec), len(spec))
    m["speculative.wasted_row_share"] = _ratio(wasted, spec_rows)

    m["alp.scan_ms"] = 1e3 * dur["alp.scan_eos"] / n_req
    m["alp.truncations"] = sum(len(t.truncations) for t in trajs) / n_req
    m["alp.cut_share"] = float(np.mean(
        [(t.gen_length_initial - t.gen_length_final) / t.gen_length_initial for t in trajs]
    ))
    m["trajectory.to_json_ms"] = 1e3 * dur["trajectory.to_json"] / n_req
    m["trajectory.json_bytes"] = float(np.mean(json_bytes))
    m["metrics.modeled_us"] = 1e6 * float(np.mean(
        [trajectory_metrics(t, a100).total_est_time_s for t in trajs]
    ))

    fitted = None
    m["metrics.fit.peak_gflops"] = m["metrics.fit.mem_gbps"] = 0.0
    for kind in KINDS:
        m[f"metrics.fit.rel_err.{kind}"] = 0.0
    if fit_forwards and forwards:
        _, _, _, seconds, flops, nbytes = zip(*forwards)
        fitted = roofline.fit_profile(flops, nbytes, seconds)
        m["metrics.fit.peak_gflops"] = fitted.peak_flops / 1e9
        m["metrics.fit.mem_gbps"] = fitted.mem_bandwidth / 1e9
        for kind, err in roofline.fit_errors(model_cfg, [f[:4] for f in forwards], fitted).items():
            m[f"metrics.fit.rel_err.{kind}"] = err
    details = {
        "fitted_profile": None if fitted is None else fitted.to_dict(),
        "forwards_per_request": dict(forwards_per_request),
    }
    return m, details
