import numpy as np
import pytest

from blockspec import (
    ConfigError,
    DegenerateInputError,
    HardwareProfile,
    RangeError,
    RunConfig,
    ScriptedModel,
    ScriptedSchedule,
    cost_of_forward,
    decode,
    trajectory_metrics,
)
from blockspec.cli import _write_csv
from blockspec.metrics import phase_summary, roofline_rows, step_cost_records
from blockspec.trajectory import StepRecord, Trajectory


PROFILE = HardwareProfile(name="test", peak_flops=312e12, mem_bandwidth=2.039e12)


def hand_cost(t, c):
    """Independent spelled-out evaluation of the documented cost formula for
    the toy config (d=64, layers=4, d_ff=256, vocab=128)."""
    qkvo = 8 * t * 64 * 64
    attn = 4 * t * c * 64
    mlp = 4 * t * 64 * 256
    head = 2 * t * 64 * 128
    flops = 4 * (qkvo + attn + mlp) + head
    params = 128 * 64 + 4 * (4 * 64 * 64 + 2 * 64 * 256) + 64 * 128
    nbytes = 4 * (params + 2 * 4 * c * 64 + 2 * 4 * t * 64)
    return float(flops), float(nbytes)


def synthetic_trajectory(toy_config, steps, jumps=(), truncations=0):
    traj = Trajectory(
        strategy="fast",
        run_config={},
        model_config=toy_config.to_dict(),
        prompt_len=4,
        gen_length_initial=64,
        block_size=32,
    )
    for i, (phase, t, c) in enumerate(steps):
        rec = StepRecord(index=i, phase=phase, kind="x", block=0, epoch=1,
                         t_tokens=t, c_tokens=c)
        rec.jump_count = jumps[i] if i < len(jumps) else 0
        traj.steps.append(rec)
    traj.gen_length_final = 64
    traj.completed = True
    return traj


# --- cost_of_forward ---------------------------------------------------------------

def test_cost_matches_hand_computation(toy_config):
    rec = cost_of_forward(toy_config, 32, 256, PROFILE)
    flops, nbytes = hand_cost(32, 256)
    assert rec.flops == flops
    assert rec.bytes == nbytes
    assert rec.arithmetic_intensity == flops / nbytes
    assert rec.est_time_s == max(flops / PROFILE.peak_flops,
                                 nbytes / PROFILE.mem_bandwidth)


def test_prefill_ai_exceeds_decode_ai(toy_config):
    prefill = cost_of_forward(toy_config, 256, 256, PROFILE)
    block = cost_of_forward(toy_config, 32, 256, PROFILE)
    assert prefill.arithmetic_intensity > block.arithmetic_intensity


def test_ai_monotone_in_query_tokens(toy_config):
    last = 0.0
    for t in (1, 8, 32, 64, 128, 256):
        ai = cost_of_forward(toy_config, t, 256, PROFILE).arithmetic_intensity
        assert ai >= last
        last = ai


def test_bound_classification(toy_config):
    balance100 = HardwareProfile(name="b100", peak_flops=100.0, mem_bandwidth=1.0)
    rec = cost_of_forward(toy_config, 32, 256, balance100)
    assert rec.arithmetic_intensity < 100
    assert rec.bound == "memory"
    tiny_bw = HardwareProfile(name="tiny", peak_flops=1.0, mem_bandwidth=1e12)
    rec2 = cost_of_forward(toy_config, 32, 256, tiny_bw)
    assert rec2.bound == "compute"


def test_bound_flips_exactly_at_balance(toy_config):
    rec = cost_of_forward(toy_config, 32, 256, PROFILE)
    ai = rec.arithmetic_intensity
    just_below = HardwareProfile(name="a", peak_flops=ai * 0.999, mem_bandwidth=1.0)
    just_above = HardwareProfile(name="b", peak_flops=ai * 1.001, mem_bandwidth=1.0)
    assert cost_of_forward(toy_config, 32, 256, just_below).bound == "compute"
    assert cost_of_forward(toy_config, 32, 256, just_above).bound == "memory"


def test_cost_rejects_context_smaller_than_queries(toy_config):
    with pytest.raises(RangeError):
        cost_of_forward(toy_config, 32, 16, PROFILE)
    with pytest.raises(RangeError):
        cost_of_forward(toy_config, 0, 16, PROFILE)


def test_est_time_is_roofline_max(toy_config):
    rec = cost_of_forward(toy_config, 32, 256, PROFILE)
    assert rec.est_time_s == pytest.approx(
        max(rec.flops / PROFILE.peak_flops, rec.bytes / PROFILE.mem_bandwidth),
        rel=0, abs=0,
    )


# --- trajectory metrics -----------------------------------------------------------------

def test_metrics_non_speculative_eff_equals_nfe(toy_config):
    traj = synthetic_trajectory(
        toy_config, [("prefill", 68, 68), ("decode", 32, 68), ("decode", 32, 68)]
    )
    report = trajectory_metrics(traj, PROFILE)
    assert report.nfe == 3
    assert report.eff_nfe == 3
    assert report.prefill_steps == 1
    assert report.decode_steps == 2


def test_metrics_jump_additivity(toy_config):
    steps = [("decode", 32, 68)] * 40
    traj = synthetic_trajectory(toy_config, steps, jumps=(2, 1) + (0,) * 38)
    report = trajectory_metrics(traj, PROFILE)
    assert report.nfe == 40
    assert report.eff_nfe == 43


def test_metrics_accounting_closure(toy_config):
    traj = synthetic_trajectory(
        toy_config, [("prefill", 68, 68), ("decode", 32, 68), ("prefill", 68, 68)]
    )
    records = step_cost_records(traj, PROFILE)
    report = trajectory_metrics(traj, PROFILE)
    assert report.total_est_time_s == pytest.approx(
        sum(r.est_time_s for r in records), rel=1e-15
    )
    prefill = sum(r.est_time_s for s, r in zip(traj.steps, records) if s.phase == "prefill")
    assert report.prefill_time_frac == pytest.approx(
        prefill / report.total_est_time_s, rel=1e-15
    )


def test_metrics_empty_trajectory_rejected(toy_config):
    traj = synthetic_trajectory(toy_config, [])
    with pytest.raises(DegenerateInputError):
        trajectory_metrics(traj, PROFILE)


# --- modeled speedups: ratios of report totals ------------------------------------------------

def speedup(traj_a, traj_b):
    """Modeled time ratio a/b, as compare computes it."""
    return (trajectory_metrics(traj_a, PROFILE).total_est_time_s
            / trajectory_metrics(traj_b, PROFILE).total_est_time_s)


def test_speedup_identity(toy_config):
    traj = synthetic_trajectory(toy_config, [("decode", 32, 68)])
    assert speedup(traj, traj) == 1.0


def test_speedup_vanilla_vs_fast(toy_config):
    """Fast replaces most full-sequence forwards with cheap block forwards;
    at sequence lengths where K/V traffic outweighs the weight read, the
    modeled ratio lands above one."""
    lo = {p: (10 + (p % 50), 0.5) for p in range(4, 516)}
    hi = {p: (10 + (p % 50), 0.95) for p in range(4, 516)}
    sched = ScriptedSchedule(steps=[lo, lo, lo, hi], vocab_size=128, mask_token_id=126)
    model = ScriptedModel(toy_config, sched)
    vanilla = decode(model, [1, 2, 3, 4],
                     RunConfig(strategy="vanilla", gen_length=512, block_size=32))
    fast = decode(model, [1, 2, 3, 4],
                  RunConfig(strategy="fast", gen_length=512, block_size=32))
    full_vanilla = sum(1 for s in vanilla.steps if s.t_tokens == s.c_tokens)
    full_fast = sum(1 for s in fast.steps if s.t_tokens == s.c_tokens)
    assert full_fast < full_vanilla
    assert speedup(vanilla, fast) > 1.0


def test_speedup_alp_golden_matches_analytic_value(toy_config):
    """odb truncates 1024 -> 128 at the first refresh; recomputing the cost
    model over the logged steps analytically reproduces the reported ratio to
    1e-9."""
    prompt_len, gen = 4, 1024
    entry = {prompt_len + off: (10 + (off % 50), 0.95) for off in range(gen)}
    entry[prompt_len + 120] = (toy_config.eos_token_id, 0.99)
    sched = ScriptedSchedule(steps=[entry], vocab_size=128, mask_token_id=126)
    model = ScriptedModel(toy_config, sched)
    fast = decode(model, [1, 2, 3, 4],
                  RunConfig(strategy="fast", gen_length=gen, block_size=32))
    odb = decode(model, [1, 2, 3, 4],
                 RunConfig(strategy="odb", gen_length=gen, block_size=32,
                           truncate_threshold=0.9))
    assert odb.gen_length_final == 128
    got = speedup(fast, odb)

    def analytic_time(traj):
        total = 0.0
        for step in traj.steps:
            flops, nbytes = hand_cost(step.t_tokens, step.c_tokens)
            total += max(flops / PROFILE.peak_flops, nbytes / PROFILE.mem_bandwidth)
        return total

    want = analytic_time(fast) / analytic_time(odb)
    assert got == pytest.approx(want, abs=1e-9)
    assert got > 1.0


# --- exports ------------------------------------------------------------------------------------

def test_cost_csv_columns(toy_config, tmp_path):
    traj = synthetic_trajectory(
        toy_config, [("prefill", 68, 68), ("decode", 32, 68)]
    )
    path = tmp_path / "roofline.csv"
    _write_csv(path, roofline_rows({"t0": traj}, PROFILE))
    lines = path.read_text().splitlines()
    assert lines[0] == "task,step,phase,T,C,flops,bytes,ai,bound,est_time_s"
    assert len(lines) == 3
    assert lines[1].split(",")[2] == "prefill"
    rec = cost_of_forward(toy_config, 68, 68, PROFILE)
    assert lines[1] == (f"t0,0,prefill,68,68,{rec.flops!r},{rec.bytes!r},"
                        f"{rec.arithmetic_intensity!r},{rec.bound},{rec.est_time_s!r}")


def test_phase_summary_contrast(toy_model, toy_config):
    config = RunConfig(strategy="fast", gen_length=64, block_size=32,
                       accept_threshold=0.05)
    traj = decode(toy_model, [5, 6, 7], config)
    summary = phase_summary(traj, PROFILE)
    assert summary["prefill"]["mean_ai"] > summary["decode"]["mean_ai"]


# Rates under which the balance point or a modeled time is not finite: a
# balance and times of inf (so a prefill share of nan), a time of inf from
# the smallest subnormal rate, and at a balance of 1 times so near the float
# maximum that a run's total overflows.
NON_FINITE_RATES = [(1e308, 1e-308), (5e-324, 1.0), (1.0, 5e-324), (1e-300, 1e-300)]


@pytest.mark.parametrize("peak_flops, mem_bandwidth", [
    (-1, 1), (0.0, 1.0), (1.0, 0.999999), *NON_FINITE_RATES,
])
def test_profile_refuses_a_rate_below_one_per_second(peak_flops, mem_bandwidth):
    with pytest.raises(ConfigError, match="at least 1 per second"):
        HardwareProfile(name="bad", peak_flops=peak_flops, mem_bandwidth=mem_bandwidth)


@pytest.mark.parametrize("peak_flops, mem_bandwidth", [
    (1.0, 1.0), (1.0, 1.7e308), (1.7e308, 1.0), (1.7e308, 1.7e308),
])
def test_profile_at_extreme_rates_models_finite_times(toy_config, peak_flops, mem_bandwidth):
    prof = HardwareProfile(name="edge", peak_flops=peak_flops, mem_bandwidth=mem_bandwidth)
    assert np.isfinite(prof.balance) and prof.balance > 0
    traj = synthetic_trajectory(toy_config, [("prefill", 68, 68), ("decode", 32, 68)])
    report = trajectory_metrics(traj, prof)
    assert np.isfinite(report.total_est_time_s) and report.total_est_time_s > 0
    assert 0.0 < report.prefill_time_frac < 1.0


def test_profile_validation(tmp_path):
    path = tmp_path / "p.json"
    path.write_text('{"name": "x", "peak_flops": 1e12, "mem_bandwidth": 1e11}')
    prof = HardwareProfile.from_json(path)
    assert prof.balance == pytest.approx(10.0)
