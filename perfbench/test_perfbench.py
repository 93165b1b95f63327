"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q

They pin the forward counts the benchmark's sizing rests on, check that
tracing changes no output and leaves nothing wrapped, and check that the
output checker rejects broken trajectories.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import blockspec  # noqa: E402
import check  # noqa: E402
import roofline  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from blockspec.metrics import HardwareProfile, cost_of_forward  # noqa: E402

CFG = blockspec.ModelConfig.from_json(ROOT / "configs" / "toy_model.json")
A100 = HardwareProfile.from_json(ROOT / "configs" / "profile_a100.json")


def _task000():
    first = (ROOT / "configs" / "tasks_demo.jsonl").read_text().splitlines()[0]
    return json.loads(first)["prompt_tokens"]


def _kinds(traj):
    return Counter(s.kind for s in traj.steps)


def test_baseline_forward_counts_task000():
    model = blockspec.ToyModel(CFG)
    prompt = _task000()

    def run_strategy(strategy):
        return blockspec.decode(model, prompt, blockspec.RunConfig(strategy, 256, 32))

    vanilla = run_strategy("vanilla")
    assert vanilla.nfe == 256 and _kinds(vanilla) == {"threshold": 256}
    fast = run_strategy("fast")
    assert _kinds(fast) == {"refresh": 8, "threshold": 256}
    odb = run_strategy("odb")
    assert _kinds(odb) == {"refresh": 8, "threshold": 8, "spec": 96}
    assert odb.total_jumps == 157


def _scripted_setup(seed=3):
    setup, _ = workloads.setup(workloads.WORKLOADS["scripted-odb"], seed, ROOT)
    return setup


def test_traced_run_matches_untraced_and_restores_wrappers():
    before = tracing.originals()
    setup = _scripted_setup()
    metrics, details, served = run.run_traced(setup, 0.0, A100)
    checks = details["checks"]
    assert checks["trace_digest_equals_untraced"]
    assert checks["traced_digest"] == checks["untraced_digest"]
    assert checks["nfe_equals_traced_forwards"]
    assert checks["wrappers_restored"]
    assert checks["missing_trace_targets"] == []
    assert checks["patched_attributes"] > len(tracing.SPAN_TARGETS)
    after = tracing.originals()
    assert all(after[key] is value for key, value in before.items())
    assert blockspec.decoder.masked_greedy.__module__ == "blockspec.decoder"
    assert "wrapper" not in blockspec.ToyModel.forward.__code__.co_name
    assert not any(s.errors for s in served)
    assert set(metrics) == set(tracing.UNITS)
    assert all(math.isfinite(v) for v in metrics.values())
    assert metrics["alp.truncations"] == 1.0
    assert metrics["speculative.jumps_per_step"] > 0


def test_scripted_schedule_shape():
    rng = __import__("numpy").random.default_rng(5)
    schedule = workloads.scripted_schedule(rng, CFG, prompt_len=10, gen_length=256, eos_offset=100)
    steps = schedule.steps
    eos = [(p, c) for p, (t, c) in steps[0].items() if t == CFG.eos_token_id]
    assert eos[0][0] == 110 and len(eos) == 1 and eos[0][1] > 0.9
    assert all(t != CFG.eos_token_id for s in steps[1:] for t, _ in s.values())
    for pos in steps[1]:
        tokens = {s[pos][0] for s in steps[1:]}
        confs = [s[pos][1] for s in steps]
        assert len(tokens) == 1
        if pos != eos[0][0]:
            assert confs == sorted(confs)
        assert confs[-1] > 0.9


def test_scripted_requests_jump_and_truncate():
    setup = _scripted_setup()
    req = setup.requests[0]
    traj = blockspec.decode(req.model, req.prompt, req.config)
    assert traj.truncations and traj.gen_length_final < 256
    assert traj.total_jumps > 0
    assert traj.gen_length_final / traj.nfe > 1.0
    assert check.check_trajectory(json.loads(traj.to_json()), req.prompt, CFG.mask_token_id) == []


def test_inputs_depend_only_on_seed():
    a, b, c = (_scripted_setup(seed) for seed in (3, 3, 4))

    def digest(setup):
        texts = [blockspec.decode(r.model, r.prompt, r.config).to_json() for r in setup.requests[:3]]
        return check.combined_digest(check.request_digest(t) for t in texts)

    assert digest(a) == digest(b) != digest(c)
    assert workloads.toy_prompts(1, CFG, 4) == workloads.toy_prompts(1, CFG, 4)
    assert len({len(p) for p in workloads.toy_prompts(1, CFG, 16)}) > 1


def test_check_rejects_broken_trajectories():
    setup = _scripted_setup()
    req = setup.requests[1]
    good = json.loads(blockspec.decode(req.model, req.prompt, req.config).to_json())
    mask = CFG.mask_token_id
    assert check.check_trajectory(good, req.prompt, mask) == []

    def broken(mutate):
        bad = copy.deepcopy(good)
        mutate(bad)
        return check.check_trajectory(bad, req.prompt, mask)

    spec = next(i for i, s in enumerate(good["steps"]) if s["kind"] == "spec" and s["adopted_tag"])

    def retoken_adopted(t):
        step = t["steps"][spec]
        j = check.adopted_subset(step["adopted_tag"], len(step["candidates"]))[0]
        step["candidates"][j - 1][1] = (step["candidates"][j - 1][1] + 1) % mask

    def set_final(t, i, value):
        t["final_tokens"][i] = value

    mutations = {
        "nfe": lambda t: t.update(nfe=t["nfe"] + 1),
        "prompt": lambda t: set_final(t, 0, (t["final_tokens"][0] + 1) % mask),
        "mask left": lambda t: set_final(t, -1, mask),
        "twice": lambda t: t["steps"][-1]["accepted"].append(t["steps"][-2]["accepted"][0]),
        "length": lambda t: t["truncations"][0].update(new_gen_length=t["truncations"][0]["new_gen_length"] - 1),
        "adopted": retoken_adopted,
    }
    for name, mutate in mutations.items():
        assert broken(mutate), name


def test_adopted_subset_matches_lattice():
    cands = blockspec.CandidateSet(tuple(blockspec.Candidate(i, i, 0.5) for i in range(4)))
    spec_set = blockspec.SpecSet.build(cands, 2)
    for tag, subset in spec_set.blocks:
        assert check.adopted_subset(tag, 4) == subset


def test_fit_recovers_a_known_profile():
    truth = HardwareProfile("t", peak_flops=6e9, mem_bandwidth=2e8)  # (32, 300) is memory-bound
    shapes = [(288, 288), (32, 300), (128, 420), (100, 390), (160, 160)]
    flops = [cost_of_forward(CFG, t, c, truth).flops for t, c in shapes]
    nbytes = [cost_of_forward(CFG, t, c, truth).bytes for t, c in shapes]
    secs = [cost_of_forward(CFG, t, c, truth).est_time_s for t, c in shapes]
    fitted = roofline.fit_profile(flops, nbytes, secs)
    assert abs(fitted.peak_flops / truth.peak_flops - 1) < 0.02
    assert abs(fitted.mem_bandwidth / truth.mem_bandwidth - 1) < 0.05


def test_tail_index_leaves_ten_beyond():
    assert run.tail_index(100) == 89
    assert run.tail_index(21) == 10
    assert run.tail_index(16) == 8


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.UNITS


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "toy-fast", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
