"""Trajectory log: ordered step outcomes plus the data the cost model needs.

Every forward invocation becomes exactly one step record, so NFE equals the
record count.  Records carry the query/context token counts (T, C); FLOPs,
bytes and modeled times are derived later against a hardware profile.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class StepRecord:
    index: int
    phase: str                   # "prefill" | "decode"
    kind: str                    # "refresh" | "threshold" | "spec" | "tau"
    block: int
    epoch: int
    t_tokens: int
    c_tokens: int
    accepted: list = field(default_factory=list)     # (position, token, confidence)
    jump_count: int = 0
    stage: int = 0
    blocks_evaluated: int = 1
    candidates: list = field(default_factory=list)   # (position, token, confidence)
    adopted_tag: int = 0
    cache_bytes: int = 0                             # bytes held after a refresh

    def to_dict(self) -> dict:
        # a shallow copy: the decoder records entries as Python numbers
        return dict(vars(self))


@dataclass
class Trajectory:
    strategy: str
    run_config: dict
    model_config: dict
    prompt_len: int
    gen_length_initial: int
    block_size: int
    steps: list = field(default_factory=list)
    truncations: list = field(default_factory=list)
    final_tokens: list = field(default_factory=list)
    gen_length_final: int = 0
    completed: bool = False

    def add_step(self, record: StepRecord) -> None:
        self.steps.append(record)

    @property
    def nfe(self) -> int:
        return len(self.steps)

    @property
    def total_jumps(self) -> int:
        return sum(s.jump_count for s in self.steps)

    @property
    def prefill_steps(self) -> int:
        return sum(1 for s in self.steps if s.phase == "prefill")

    def to_dict(self) -> dict:
        return {
            **vars(self),
            "nfe": self.nfe,
            "total_jumps": self.total_jumps,
            "steps": [s.to_dict() for s in self.steps],
            "truncations": [e.to_dict() for e in self.truncations],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"
