"""Trajectory log: ordered step outcomes plus the data the cost model needs.

Every forward invocation becomes exactly one step record, so NFE equals the
record count.  Records carry the query/context token counts (T, C); FLOPs,
bytes and modeled times are derived later against a hardware profile.
``encode_json`` writes trajectories and the CLI's indented JSON documents
as ``json.dumps(..., sort_keys=True, indent=2)`` would.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str


@dataclass
class StepRecord:
    index: int
    phase: str                   # "prefill" | "decode"
    kind: str                    # "refresh" | "threshold" | "spec"
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
        return encode_json(self.to_dict()) + "\n"


def _json_float(x) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    raise ValueError(f"Out of range float values are not JSON compliant: {float.__repr__(x)}")


# Exact type -> the formatter json.dumps applies to a scalar of that type.
_SCALARS = {
    str: _json_str,
    int: int.__repr__,
    float: _json_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def encode_json(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte.

    Takes dicts with str keys, lists, tuples, str, int, float, bool and None,
    subclasses of these included.  A non-finite float raises ValueError (as
    ``allow_nan=False`` would) and any other value TypeError.

    Each container is formatted by one ``str.join`` over its items, recursing
    only into nested containers.  Up to Python 3.12 json.dumps runs its
    pure-Python encoder whenever an indent is asked for, and this writer is
    faster; Python 3.13 encodes an indent in C, and there json.dumps is about
    twice as fast as this writer.
    """
    fmt = _SCALARS.get(type(value))
    return fmt(value) if fmt else _json_other(value, "\n")


def _json_other(value, newline: str) -> str:
    """A value whose exact type has no scalar formatter: a list, tuple or
    dict, or a subclass of a type json.dumps accepts, formatted at the
    indent that `newline` ends in."""
    if isinstance(value, (list, tuple)):
        return _json_list(value, newline)
    if isinstance(value, dict):
        return _json_dict(value, newline)
    for base in (str, int, float):
        if isinstance(value, base):
            return _SCALARS[base](value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_list(items, newline: str) -> str:
    if not items:
        return "[]"
    inner = newline + "  "
    get = _SCALARS.get
    parts = [fmt(x) if (fmt := get(type(x))) else _json_other(x, inner) for x in items]
    return "[" + inner + ("," + inner).join(parts) + newline + "]"


@functools.lru_cache(maxsize=256)
def _key_order(keys: tuple) -> tuple[tuple[int, str], ...]:
    """(index into `keys`, encoded key and separator) of each key in sorted
    order; the dicts of one document share few key tuples.  A non-str key
    fails the sort or ``_json_str`` with TypeError, which is not cached."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return tuple((i, _json_str(keys[i]) + ": ") for i in order)


def _json_dict(items: dict, newline: str) -> str:
    if not items:
        return "{}"
    inner = newline + "  "
    get = _SCALARS.get
    values = tuple(items.values())
    parts = [
        key + (fmt(x) if (fmt := get(type(x := values[i]))) else _json_other(x, inner))
        for i, key in _key_order(tuple(items))
    ]
    return "{" + inner + ("," + inner).join(parts) + newline + "}"
