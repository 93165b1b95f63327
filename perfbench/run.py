#!/usr/bin/env python3
"""Seeded closed-loop wall-clock benchmark for blockspec.

One client sends requests one after another; a request is a
``blockspec.decode(...)`` call followed by ``Trajectory.to_json()``, which
is what ``blockspec run`` writes per task.  Every trajectory is checked, and
the run ends with one JSON line:

    python3 perfbench/run.py --workload toy-fast --seed 1 --seconds 30 --trace 0

``--trace 0`` times the workload with nothing wrapped and reports the
end-to-end metrics.  ``--trace 1`` runs the same requests untraced, then
traced (spans around every public function on the decode path), and reports
per-layer metrics; it also checks that tracing changed no output byte.
Run from the repository root; the program is imported from ``src/``.
A readable report precedes the JSON line, and the full record (environment,
seeds, warm-up, digests, fitted profile) goes to ``perfbench/out/``.
"""

import os

# BLAS threads are pinned before numpy is first imported.  One thread is
# the steadiest choice on a shared two-core machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

PAIR_REQUESTS = {"toy": 2, "scripted": 16}   # odb-vs-fast pairs in a traced run

E2E_UNITS = {
    "tokens_per_s": "tok/ref-s",
    "request_ms.p50": "ref-ms",
    "request_ms.tail": "ref-ms",
    "nfe_per_request": "count",
    "tokens_per_forward": "tok/fwd",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import blockspec from this checkout's source tree, and only there."""
    if not (SRC / "blockspec" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import blockspec

    if Path(blockspec.__file__).resolve().parent != (SRC / "blockspec").resolve():
        raise SystemExit(f"perfbench: imported blockspec from {blockspec.__file__}, not {SRC}")
    return blockspec


blockspec = import_program()

import calibrate  # noqa: E402
import check  # noqa: E402  (these import blockspec)
import numpy as np  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from blockspec.metrics import HardwareProfile, trajectory_metrics  # noqa: E402


@dataclass
class Served:
    """One request as the client saw it."""

    index: int                 # position in the workload's request pool
    latency_s: float
    nfe: int
    tokens: int
    errors: list
    digest: bytes
    json_bytes: int
    traj: object = None
    slowdown: float = 1.0      # host slowdown around this request, see calibrate
    parts: tuple = ()          # (numpy, python) kernel slowdowns around it


def serve(req, mask_token_id: int, tracer=None, keep: bool = False) -> Served:
    span = tracer.begin("request") if tracer is not None else None
    t0 = time.perf_counter()
    try:
        traj = blockspec.decode(req.model, req.prompt, req.config)
        text = traj.to_json()
    except Exception:  # a failing request is counted, the run goes on
        latency = time.perf_counter() - t0
        return Served(req.index, latency, 0, 0, [traceback.format_exc(limit=3)], b"", 0)
    finally:
        if span is not None:
            tracer.end(span)
    latency = time.perf_counter() - t0
    errors = check.check_trajectory(json.loads(text), req.prompt, mask_token_id)
    return Served(
        req.index, latency, traj.nfe, traj.gen_length_final, errors,
        check.request_digest(text), len(text), traj if keep else None,
    )


def timed_passes(wl, seed: int, seconds: float) -> tuple[list[Served], list[float], str]:
    """Passes over the request pool until `seconds` have passed.

    Each pass starts from a fresh set-up (same seed, same inputs), so set-up
    time is sampled once per pass, spread over the run.  The first pass is
    always completed; a later one stops at the deadline.  The calibration
    kernels run between consecutive requests and set-ups; each gets the
    mean of the slowdowns measured on either side.  Returns the requests,
    the calibrated set-up times and the warm-up description.
    """
    cal = calibrate.Calibrator()
    served, setup_times = [], []
    deadline = time.perf_counter() + seconds
    before = cal.measure()

    def around(after):
        parts = tuple((b + a) / 2 for b, a in zip(before, after))
        return parts, calibrate.slowdown(parts, wl.numpy_share)

    while not setup_times or time.perf_counter() < deadline:
        setup, elapsed = workloads.setup(wl, seed, ROOT)
        after = cal.measure()
        setup_times.append(elapsed / around(after)[1])
        before = after
        mask = setup.model_config.mask_token_id
        for req in setup.requests:
            if len(setup_times) > 1 and time.perf_counter() >= deadline:
                break
            s = serve(req, mask)
            after = cal.measure()
            s.parts, s.slowdown = around(after)
            before = after
            served.append(s)
    return served, setup_times, setup.warmup


def tail_index(n: int) -> int:
    """Order statistic of the highest percentile with at least ten requests
    beyond it; never below the median when a run has too few requests."""
    return max(n - 11, n // 2)


def end_to_end(served: list[Served], setup_times: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics over the pool's distinct requests.

    A request's time is the median over its passes of its calibrated
    latency, wall time in seconds of the reference machine.  Calibration
    cancels the host's slow drifts; the median over passes drops the bursts
    that calibration misses.
    """
    by_request: dict[int, list[Served]] = {}
    for s in served:
        by_request.setdefault(s.index, []).append(s)
    ref_s = {
        i: statistics.median(s.latency_s / s.slowdown for s in samples)
        for i, samples in by_request.items()
    }
    wall_s = {i: statistics.median(s.latency_s for s in samples) for i, samples in by_request.items()}
    requests = [by_request[i][0] for i in sorted(by_request)]
    lat_ms = sorted(1e3 * t for t in ref_s.values())
    n = len(lat_ms)
    idx = tail_index(n)
    tokens = sum(s.tokens for s in requests)
    nfe = sum(s.nfe for s in requests)
    failed = sum(1 for s in served if s.errors)
    metrics = {
        "tokens_per_s": tokens / sum(ref_s.values()),
        "request_ms.p50": statistics.median(lat_ms),
        "request_ms.tail": lat_ms[idx],
        "nfe_per_request": nfe / n,
        "tokens_per_forward": tokens / nfe if nfe else 0.0,
        "ok_frac": (len(served) - failed) / len(served),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall_ms = sorted(1e3 * t for t in wall_s.values())
    extra = {
        "failed_frac": failed / len(served),
        "requests": n,
        "samples": len(served),
        "tail_percentile": 100.0 * idx / (n - 1) if n > 1 else 100.0,
        "wall_ms_p50": statistics.median(wall_ms),
        "wall_ms_tail": wall_ms[idx],
        "wall_tokens_per_s": tokens / sum(wall_s.values()),
        "slowdown_median": statistics.median(s.slowdown for s in served),
        "setup_ref_s": setup_times,
        "per_sample": [[s.index, s.latency_s, s.slowdown, *s.parts] for s in served],
    }
    return metrics, extra


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "machine": platform.machine(),
    }


def pair_ratio(setup, a100) -> tuple[dict, list[Served]]:
    """odb/fast on the first pool requests, measured and modeled.

    Both strategies decode the same requests untraced, alternating request
    by request so that a host slowdown hits both alike; the sibling
    strategy is warmed up first.
    """
    strategies = ("fast", "odb")
    workloads.warm_up(setup.requests, {"fast": "odb", "odb": "fast"}[setup.workload.strategy])
    mask = setup.model_config.mask_token_id
    served = {name: [] for name in strategies}
    for req in setup.requests[: PAIR_REQUESTS[setup.workload.model]]:
        for name in strategies:
            served[name].append(serve(workloads.with_strategy(req, name), mask, keep=True))
    meas = {name: sum(s.latency_s for s in served[name]) for name in strategies}
    model = {
        name: sum(trajectory_metrics(s.traj, a100).total_est_time_s for s in served[name])
        for name in strategies
    }
    return {
        "metrics.odb_over_fast.measured": meas["odb"] / meas["fast"],
        "metrics.odb_over_fast.modeled": model["odb"] / model["fast"],
    }, served["fast"] + served["odb"]


def run_traced(setup, seconds: float, a100) -> tuple[dict, dict, list[Served]]:
    """Each pool request untraced, then at once traced, cycling until
    `seconds`/2 have passed; the wrappers are
    installed only around the traced request, so a host slowdown hits both
    alike.  Returns per-layer metrics, the run record's details and every
    request served."""
    wl = setup.workload
    mask = setup.model_config.mask_token_id
    before = tracing.originals()
    tracer = tracing.Tracer()
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds / 2
    while not traced or time.perf_counter() < deadline:
        req = setup.requests[len(traced) % len(setup.requests)]
        untraced.append(serve(req, mask))
        tracer.request = len(traced)
        tracer.install()
        try:
            traced.append(serve(req, mask, tracer, keep=True))
        finally:
            tracer.remove()
    after = tracing.originals()
    restored = before.keys() == after.keys() and all(after[k] is v for k, v in before.items())

    done = [s for s in traced if s.traj is not None]
    metrics, details = tracing.layer_metrics(
        tracer, [s.traj for s in done], [s.json_bytes for s in done],
        setup.model_config, a100, fit_forwards=wl.model == "toy",
    )
    metrics["trace.overhead"] = (
        sum(s.latency_s for s in traced) / sum(s.latency_s for s in untraced) - 1.0
    )
    pair = []
    metrics["metrics.odb_over_fast.measured"] = metrics["metrics.odb_over_fast.modeled"] = 0.0
    if wl.strategy in ("fast", "odb"):
        ratios, pair = pair_ratio(setup, a100)
        metrics.update(ratios)

    nfe_vs_forwards = all(
        details["forwards_per_request"].get(i, 0) == s.nfe for i, s in enumerate(traced)
    )
    digests_equal = [s.digest for s in traced] == [s.digest for s in untraced]
    checks = {
        "ok": digests_equal and nfe_vs_forwards and restored,
        "trace_digest_equals_untraced": digests_equal,
        "nfe_equals_traced_forwards": nfe_vs_forwards,
        "wrappers_restored": restored,
        "patched_attributes": len(before),
        "missing_trace_targets": tracer.missing,
        "untraced_digest": check.combined_digest(s.digest for s in untraced),
        "traced_digest": check.combined_digest(s.digest for s in traced),
    }
    details.pop("forwards_per_request")
    details["checks"] = checks
    return metrics, details, untraced + traced + pair


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    a100 = HardwareProfile.from_json(ROOT / "configs" / "profile_a100.json")
    record = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
    }
    if args.trace == 0:
        served, setup_times, record["warmup"] = timed_passes(wl, args.seed, args.seconds)
        metrics, extra = end_to_end(served, setup_times)
        units = E2E_UNITS
        record.update(extra)
        record["digest_first_pass"] = check.combined_digest(s.digest for s in served[: wl.pool])
        structural_ok = True
    else:
        setup, record["setup_s"] = workloads.setup(wl, args.seed, ROOT)
        record["warmup"] = setup.warmup
        metrics, details, served = run_traced(setup, args.seconds, a100)
        units = tracing.UNITS
        record.update(details)
        structural_ok = details["checks"]["ok"]
    failed = [s for s in served if s.errors]
    record["metrics"] = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    record["first_failure"] = failed[0].errors if failed else None
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"# {wl.name} seed={args.seed} trace={args.trace} requests={len(served)} "
          f"failed={len(failed)} record={out_path.relative_to(ROOT)}")
    for key in ("failed_frac", "samples", "tail_percentile", "wall_ms_p50", "wall_ms_tail",
                "wall_tokens_per_s", "slowdown_median", "digest_first_pass", "checks",
                "fitted_profile"):
        if key in record:
            print(f"# {key}: {json.dumps(record[key], sort_keys=True)}")
    for name, entry in record["metrics"].items():
        print(f"{name:40s} {entry['value']:>16.6g} {entry['unit']}")
    if failed:
        print("# first failure: " + " | ".join(failed[0].errors), file=sys.stderr)
    print(json.dumps({
        "correct": structural_ok and not failed,
        "attempted": len(served),
        "failed": len(failed),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
