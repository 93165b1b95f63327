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

from dataclasses import dataclass

from .errors import ConfigError, DegenerateInputError, RangeError, check_fields, load_document
from .model import ModelConfig, count_params
from .trajectory import Trajectory


@dataclass(frozen=True)
class HardwareProfile:
    """Peak throughput and bandwidth defining the roofline balance point."""

    name: str
    peak_flops: float
    mem_bandwidth: float

    def __post_init__(self):
        check_fields(self)
        # at one per second or more the balance point is at most peak_flops
        # and a modeled time at most a forward's flops or bytes, all finite
        for name in ("peak_flops", "mem_bandwidth"):
            if (rate := getattr(self, name)) < 1.0:
                raise ConfigError(f"{name} must be at least 1 per second, got {rate!r}")

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
    t_tokens: int
    c_tokens: int
    flops: float
    bytes: float
    arithmetic_intensity: float
    est_time_s: float
    bound: str


def cost_of_forward(model_cfg: ModelConfig, t: int, c: int, profile: HardwareProfile) -> CostRecord:
    """Roofline record for one forward; see the module docstring formula.

    Every forward is charged in full, logits included: a fast refresh, whose
    draft nobody reads and which stops at the last layer's K/V, is still
    priced as a whole forward, so that the roofline outputs stay as they are.
    """
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
        t_tokens=t,
        c_tokens=c,
        flops=flops,
        bytes=nbytes,
        arithmetic_intensity=ai,
        est_time_s=est,
        bound=bound,
    )


def step_cost_records(traj: Trajectory, profile: HardwareProfile) -> list[CostRecord]:
    """One CostRecord per trajectory step, in step order."""
    cfg = ModelConfig(**traj.model_config)
    return [cost_of_forward(cfg, step.t_tokens, step.c_tokens, profile) for step in traj.steps]


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
    prefill_time = sum(r.est_time_s for s, r in zip(traj.steps, records) if s.phase == "prefill")
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


def roofline_rows(trajectories: dict[str, Trajectory], profile: HardwareProfile) -> list[dict]:
    """One row per step of each {task id: trajectory}, keyed by the columns
    of roofline.csv, task column first."""
    return [
        {"task": task_id, "step": i, "phase": step.phase, "T": rec.t_tokens, "C": rec.c_tokens,
         "flops": rec.flops, "bytes": rec.bytes, "ai": rec.arithmetic_intensity,
         "bound": rec.bound, "est_time_s": rec.est_time_s}
        for task_id, traj in trajectories.items()
        for i, (step, rec) in enumerate(zip(traj.steps, step_cost_records(traj, profile)))
    ]


def phase_summary(traj: Trajectory, profile: HardwareProfile) -> dict:
    """Mean arithmetic intensity and bound classification per phase."""
    records = step_cost_records(traj, profile)
    out = {}
    for phase in ("prefill", "decode"):
        sub = [r for s, r in zip(traj.steps, records) if s.phase == phase]
        if not sub:
            continue
        mean_ai = sum(r.arithmetic_intensity for r in sub) / len(sub)
        out[phase] = {
            "steps": len(sub),
            "mean_ai": mean_ai,
            "bound": "compute" if mean_ai >= profile.balance else "memory",
        }
    return out
