#!/usr/bin/env python3
"""Interleaved A/B timing of one benchmark workload on two source trees.

Two worker processes start, one per tree.  Each imports `blockspec` from its
own tree's `src/`.  Before every round each sets up the workload's seeded
requests and warm-up afresh with its own `perfbench/workloads.py`
(`workloads.setup`), as the benchmark does before every pass, so work that
a set-up's models do once on first use is timed in every round; set-up
itself is not timed.  The workers take turns request by request, and each
request runs base-first in alternate rounds, whatever the pool size.  Each
worker times `decode(...)` and `Trajectory.to_json()` in-process, each on
its own clock, and every pair of trajectories must be byte-equal.  A round sends each
request of the pool once; the script prints each round's head/base ratio of
the request time (decode plus to_json), and of decode and to_json alone, and
their medians, so a change can be told apart from host noise, and placed in
one of the two, without the full benchmark.  The summary also gives how many
CPUs each worker may use, on which the ratio of a change that runs threads
depends.

Usage: scripts/ab_decode.py BASE HEAD --workload W --rounds N [--seed S]

Exits 1 when a pair of trajectories differs, 2 on bad arguments.
"""

import os

# BLAS threads are pinned before numpy is first imported, as in perfbench.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

# Timed parts of a request: all of it, and its two halves.
PARTS = ("request", "decode", "to_json")


def worker(tree: Path, workload: str, seed: int) -> None:
    """Serve commands read from stdin, one JSON line per answer: ``setup``
    builds a fresh set-up and answers its pool size, a request index
    decodes that request of the current set-up."""
    src = (tree / "src").resolve()
    sys.path[:0] = [str(src), str(tree / "perfbench")]
    import blockspec
    import workloads

    if Path(blockspec.__file__).resolve().parent != src / "blockspec":
        raise SystemExit(f"ab_decode: imported blockspec from {blockspec.__file__}, not {src}")
    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"ab_decode: unknown workload {workload!r} in {tree}; "
                         f"known: {', '.join(workloads.WORKLOADS)}")
    print(json.dumps({"cpus": len(os.sched_getaffinity(0))}), flush=True)
    setup = None
    for line in sys.stdin:
        if line.strip() == "setup":
            setup = None  # the last round's set-up goes before the next is built
            setup, _ = workloads.setup(workloads.WORKLOADS[workload], seed, tree)
            print(json.dumps({"pool": len(setup.requests)}), flush=True)
            continue
        req = setup.requests[int(line)]
        t0 = time.perf_counter()
        traj = blockspec.decode(req.model, req.prompt, req.config)
        t1 = time.perf_counter()
        text = traj.to_json()
        t2 = time.perf_counter()
        digest = hashlib.sha256(text.encode()).hexdigest()
        times = {"request": t2 - t0, "decode": t1 - t0, "to_json": t2 - t1}
        print(json.dumps({**times, "digest": digest}), flush=True)


class Worker:
    def __init__(self, tree: str, workload: str, seed: int):
        self.tree = tree
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--worker", tree, "--workload", workload,
             "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.cpus = self._read()["cpus"]

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"ab_decode: worker for {self.tree} exited "
                             f"(status {self.proc.wait()})")
        return json.loads(line)

    def serve(self, command) -> dict:
        self.proc.stdin.write(f"{command}\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", nargs="?", help="source tree timed as the base")
    parser.add_argument("head", nargs="?", help="source tree timed as the head")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(Path(args.worker), args.workload, args.seed)
        return 0
    if args.base is None or args.head is None:
        parser.error("BASE and HEAD are required")
    if args.rounds < 1:
        parser.error("--rounds must be positive")

    workers = []
    try:
        base = Worker(args.base, args.workload, args.seed)
        workers.append(base)
        head = Worker(args.head, args.workload, args.seed)
        workers.append(head)
        ratios = {part: [] for part in PARTS}
        for r in range(args.rounds):
            pools = [w.serve("setup")["pool"] for w in (base, head)]
            if pools[0] != pools[1]:
                print(f"ab_decode: pools differ (base {pools[0]}, head {pools[1]})",
                      file=sys.stderr)
                return 1
            n = pools[0]
            base_s = dict.fromkeys(PARTS, 0.0)
            head_s = dict.fromkeys(PARTS, 0.0)
            for i in range(n):
                order = (base, head) if (r + i) % 2 == 0 else (head, base)
                answers = {w: w.serve(i) for w in order}
                if answers[base]["digest"] != answers[head]["digest"]:
                    print(f"ab_decode: round {r} request {i}: trajectories differ",
                          file=sys.stderr)
                    return 1
                for part in PARTS:
                    base_s[part] += answers[base][part]
                    head_s[part] += answers[head][part]
            for part in PARTS:
                ratios[part].append(head_s[part] / base_s[part])
            print(f"round {r}: base {1e3 * base_s['request'] / n:.2f} ms/request, "
                  f"head {1e3 * head_s['request'] / n:.2f} ms/request, "
                  f"head/base {ratios['request'][-1]:.3f}; "
                  f"decode {ratios['decode'][-1]:.3f}, to_json {ratios['to_json'][-1]:.3f}",
                  flush=True)
        request = ratios["request"]
        print(f"{args.workload} seed {args.seed}, usable CPUs base {base.cpus} head {head.cpus}: "
              f"{args.rounds} rounds x {n} requests, "
              f"trajectories byte-equal; head/base median {statistics.median(request):.3f} "
              f"(min {min(request):.3f}, max {max(request):.3f}); "
              f"decode median {statistics.median(ratios['decode']):.3f}, "
              f"to_json median {statistics.median(ratios['to_json']):.3f}")
        return 0
    finally:
        for w in workers:
            w.close()


if __name__ == "__main__":
    sys.exit(main())
