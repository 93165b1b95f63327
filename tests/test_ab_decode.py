"""Smoke test of the interleaved A/B timing script."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ab_decode_runs_the_checkout_against_itself():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_decode.py"), str(ROOT), str(ROOT),
         "--workload", "scripted-odb", "--rounds", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].startswith("round 0: base ") and "head/base" in lines[0]
    assert re.search(r"; decode \d+\.\d{3}, to_json \d+\.\d{3}$", lines[0]), lines[0]
    assert "1 rounds x 48 requests, trajectories byte-equal; head/base median" in lines[-1]
    cpus = len(os.sched_getaffinity(0))
    assert f"scripted-odb seed 1, usable CPUs base {cpus} head {cpus}: " in lines[-1], lines[-1]
    assert re.search(r"; decode median \d+\.\d{3}, to_json median \d+\.\d{3}$", lines[-1]), lines[-1]


def test_ab_decode_names_an_unknown_workload():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_decode.py"), str(ROOT), str(ROOT),
         "--workload", "no-such-workload", "--rounds", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 1
    assert "unknown workload 'no-such-workload'" in out.stderr
