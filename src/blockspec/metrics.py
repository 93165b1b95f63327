"""Roofline cost model and trajectory accounting.

Modeled cost of one forward with T query tokens over C context tokens
(weights in 32-bit floats, first-order accounting):

    flops = n_layers * (8*T*d^2 + 4*T*C*d + 4*T*d*d_ff) + 2*T*d*vocab
    bytes = 4 * (param_count + 2*n_layers*C*d + 2*n_layers*T*d)

i.e. QKVO projections, attention score/value matmuls, the MLP and the output
projection; weights read once per forward, K/V read over the context and
written for the queries.  Activation traffic beyond K/V is ignored.  A step
is compute-bound iff flops/bytes reaches the profile's balance point, and
its modeled time is the roofline max of compute and memory time.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

from .errors import ConfigError, DegenerateInputError, RangeError, load_document
from .model import ModelConfig, count_params
from .trajectory import Trajectory


@dataclass(frozen=True)
class HardwareProfile:
    """Peak throughput and bandwidth defining the roofline balance point."""

    name: str
    peak_flops: float
    mem_bandwidth: float

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ConfigError(f"name must be a string, got {self.name!r}")
        for name in ("peak_flops", "mem_bandwidth"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{name} must be a number, got {value!r}")
            try:
                number = float(value)
            except OverflowError:
                number = math.inf
            if not (math.isfinite(number) and number > 0):
                raise ConfigError(f"{name} must be finite and positive, got {value!r}")
            object.__setattr__(self, name, number)

    @property
    def balance(self) -> float:
        return self.peak_flops / self.mem_bandwidth

    @classmethod
    def from_json(cls, path) -> "HardwareProfile":
        return load_document(cls, path, "profile")

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass(frozen=True)
class CostRecord:
    phase: str
    t_tokens: int
    c_tokens: int
    flops: float
    bytes: float
    arithmetic_intensity: float
    est_time_s: float
    bound: str


def cost_of_forward(model_cfg: ModelConfig, t: int, c: int, profile: HardwareProfile) -> CostRecord:
    """Roofline record for one forward; see the module docstring formula."""
    if t < 1:
        raise RangeError(f"need at least one query token, got {t}")
    if c < t:
        raise RangeError(f"context tokens ({c}) smaller than query tokens ({t})")
    d = model_cfg.d_model
    flops = float(
        model_cfg.n_layers * (8 * t * d * d + 4 * t * c * d + 4 * t * d * model_cfg.d_ff)
        + 2 * t * d * model_cfg.vocab_size
    )
    nbytes = float(
        4 * (count_params(model_cfg) + 2 * model_cfg.n_layers * c * d + 2 * model_cfg.n_layers * t * d)
    )
    ai = flops / nbytes
    est = max(flops / profile.peak_flops, nbytes / profile.mem_bandwidth)
    bound = "compute" if ai >= profile.balance else "memory"
    return CostRecord(
        phase="",
        t_tokens=t,
        c_tokens=c,
        flops=flops,
        bytes=nbytes,
        arithmetic_intensity=ai,
        est_time_s=est,
        bound=bound,
    )


def step_cost_records(traj: Trajectory, profile: HardwareProfile) -> list[CostRecord]:
    """One CostRecord per trajectory step, phase-labelled."""
    cfg = ModelConfig(**traj.model_config)
    return [
        replace(cost_of_forward(cfg, step.t_tokens, step.c_tokens, profile), phase=step.phase)
        for step in traj.steps
    ]


@dataclass
class MetricsReport:
    nfe: int
    eff_nfe: int
    prefill_steps: int
    decode_steps: int
    prefill_time_frac: float
    total_est_time_s: float
    tokens_generated: int
    truncation_count: int
    jump_total: int
    gen_length_final: int
    peak_cache_bytes: int

    def to_dict(self) -> dict:
        return dict(vars(self))


def trajectory_metrics(traj: Trajectory, profile: HardwareProfile) -> MetricsReport:
    """NFE / effective-NFE accounting plus modeled phase timing.

    A batched speculative forward counts once toward NFE; adopted jumps are
    added on top for the effective state-change count.
    """
    if not traj.steps:
        raise DegenerateInputError("empty trajectory")
    records = step_cost_records(traj, profile)
    total_time = sum(r.est_time_s for r in records)
    prefill_time = sum(r.est_time_s for r in records if r.phase == "prefill")
    nfe = traj.nfe
    jump_total = traj.total_jumps
    tokens_generated = sum(len(s.accepted) for s in traj.steps)
    return MetricsReport(
        nfe=nfe,
        eff_nfe=nfe + jump_total,
        prefill_steps=traj.prefill_steps,
        decode_steps=nfe - traj.prefill_steps,
        prefill_time_frac=prefill_time / total_time if total_time > 0 else 0.0,
        total_est_time_s=total_time,
        tokens_generated=tokens_generated,
        truncation_count=len(traj.truncations),
        jump_total=jump_total,
        gen_length_final=traj.gen_length_final,
        peak_cache_bytes=max((s.cache_bytes for s in traj.steps), default=0),
    )


def estimate_speedup(traj_a: Trajectory, traj_b: Trajectory, profile: HardwareProfile) -> float:
    """Modeled time ratio a/b; above 1 means b is the faster run."""
    time_a = sum(r.est_time_s for r in step_cost_records(traj_a, profile))
    time_b = sum(r.est_time_s for r in step_cost_records(traj_b, profile))
    if time_a <= 0 or time_b <= 0:
        raise DegenerateInputError("zero-time trajectory")
    return time_a / time_b


ROOFLINE_CSV_COLUMNS = ("step", "phase", "T", "C", "flops", "bytes", "ai", "bound", "est_time_s")


def write_cost_csv(path, trajectories: dict[str, Trajectory], profile: HardwareProfile) -> None:
    """Per-step CostRecord CSV over {task id: trajectory}, task column first."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["task", *ROOFLINE_CSV_COLUMNS])
        for task_id, traj in trajectories.items():
            for i, rec in enumerate(step_cost_records(traj, profile)):
                writer.writerow([
                    task_id, i, rec.phase, rec.t_tokens, rec.c_tokens,
                    repr(rec.flops), repr(rec.bytes), repr(rec.arithmetic_intensity),
                    rec.bound, repr(rec.est_time_s),
                ])


def phase_summary(traj: Trajectory, profile: HardwareProfile) -> dict:
    """Mean arithmetic intensity and bound classification per phase."""
    records = step_cost_records(traj, profile)
    out = {}
    for phase in ("prefill", "decode"):
        sub = [r for r in records if r.phase == phase]
        if not sub:
            continue
        mean_ai = sum(r.arithmetic_intensity for r in sub) / len(sub)
        out[phase] = {
            "steps": len(sub),
            "mean_ai": mean_ai,
            "bound": "compute" if mean_ai >= profile.balance else "memory",
        }
    return out
