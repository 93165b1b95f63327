"""Exception types shared across the package, and the loader of the JSON
config documents (model config, run config, hardware profile)."""

import json
from dataclasses import MISSING, fields


class ConfigError(ValueError):
    """Invalid model or run configuration."""


class ShapeError(ValueError):
    """Tensor/layout/cache dimension mismatch."""


class RangeError(ValueError):
    """Position or block range outside the sequence."""


class StaleCacheError(RuntimeError):
    """A cache was used as context after its refresh epoch had passed."""


class BlockCompleteError(RuntimeError):
    """A decode decision was requested for a block with no masked positions."""


class NoCandidatesError(RuntimeError):
    """Candidate selection on an empty rejection list; caller should fall
    back to a plain threshold step."""


class ProgressError(RuntimeError):
    """Internal invariant violation: a decode step unmasked zero tokens."""


class DegenerateInputError(ValueError):
    """Metric computation over an empty or zero-cost trajectory."""


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
