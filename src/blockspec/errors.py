"""Exception types shared across the package, and the loader and field check
of the JSON config documents (model config, run config, hardware profile)."""

import json
import math
from dataclasses import MISSING, fields
from functools import cache
from typing import get_args, get_type_hints


class ConfigError(ValueError):
    """Invalid model or run configuration."""


class ShapeError(ValueError):
    """Tensor/layout/cache dimension mismatch."""


class RangeError(ValueError):
    """Position or block range outside the sequence."""


class StaleCacheError(RuntimeError):
    """A cache was used as context for a block it was not refreshed for."""


class BlockCompleteError(RuntimeError):
    """A decode decision was requested for a block with no masked positions."""


class NoCandidatesError(RuntimeError):
    """Candidate selection on an empty rejection list; caller should fall
    back to a plain threshold step."""


class ProgressError(RuntimeError):
    """Internal invariant violation: a decode step unmasked zero tokens."""


class DegenerateInputError(ValueError):
    """Metric computation over an empty or zero-cost trajectory."""


# The kinds a config field's annotation may name, as an error says them.
KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string", type(None): "None"}


@cache
def field_kinds(cls) -> dict[str, tuple]:
    """Each field of the dataclass `cls` with the kinds its annotation
    names: ``(int,)`` for ``int``, ``(int, NoneType)`` for ``int | None``."""
    hints = get_type_hints(cls)
    return {f.name: get_args(hints[f.name]) or (hints[f.name],) for f in fields(cls)}


def check_value(name: str, value, kinds: tuple):
    """`value` if it is of one of `kinds`, as a float if a float kind takes
    it; else ConfigError naming `name`.  A bool is not an int, and a float
    must be finite (an int too large for a float is not)."""
    if float in kinds and isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(float(value)):
                return float(value)
        except OverflowError:
            pass
    elif type(value) in kinds:
        return value
    wanted = " or ".join(KIND_NAMES[kind] for kind in kinds)
    raise ConfigError(f"{name} must be {wanted}, got {value!r}")


def check_fields(config) -> None:
    """Hold every field of the frozen dataclass `config` to its annotation,
    storing each float field as a float."""
    for name, kinds in field_kinds(type(config)).items():
        object.__setattr__(config, name, check_value(name, getattr(config, name), kinds))


def from_document(cls, raw, what: str):
    """`cls(**raw)` for the dataclass `cls`, once `raw` is a JSON object
    holding every field without a default and no other key; each error
    names `what` and the offending keys."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must be a JSON object")
    required = {f.name: f.default is MISSING and f.default_factory is MISSING for f in fields(cls)}
    missing = [k for k, needed in required.items() if needed and k not in raw]
    extra = [k for k in raw if k not in required]
    if missing:
        raise ConfigError(f"{what} missing keys: {missing}")
    if extra:
        raise ConfigError(f"{what} has unknown keys: {extra}")
    return cls(**raw)


def load_document(cls, path, what: str):
    """`from_document` over the JSON file at `path`."""
    with open(path) as fh:
        return from_document(cls, json.load(fh), what)
