"""Exception types shared across the package, the one reader of every input
document (model config, run config, hardware profile, schedule, task lines)
and the field check of the config documents."""

import json
import math
import reprlib
import sys
from contextlib import contextmanager
from dataclasses import MISSING, fields
from functools import cache
from pathlib import Path
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
    """Candidate selection on an empty rejection list.  The decode loop
    speculates only after a step that left rejections, so this marks a
    caller bug."""


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
    raise ConfigError(f"{name} must be {wanted}, got {reprlib.repr(value)}")


def check_fields(config) -> None:
    """Hold every field of the frozen dataclass `config` to its annotation,
    storing each float field as a float."""
    for name, kinds in field_kinds(type(config)).items():
        object.__setattr__(config, name, check_value(name, getattr(config, name), kinds))


def from_document(cls, raw):
    """`cls(**raw)` for the dataclass `cls`, once `raw` is a JSON object
    holding every field without a default and no other key; each error
    names the offending keys."""
    if not isinstance(raw, dict):
        raise ConfigError("must be a JSON object")
    required = {f.name: f.default is MISSING and f.default_factory is MISSING for f in fields(cls)}
    missing = [k for k, needed in required.items() if needed and k not in raw]
    extra = [k for k in raw if k not in required]
    if missing:
        raise ConfigError(f"missing keys: {missing}")
    if extra:
        raise ConfigError(f"unknown keys: {extra}")
    return cls(**raw)


@contextmanager
def reading(document: str):
    """Re-raise a failure to read, parse or check the input inside as one
    ConfigError that starts with `document`: its name and path, or a task
    file's line."""
    try:
        yield
    except json.JSONDecodeError as err:
        raise ConfigError(f"{document}: invalid JSON: {err}") from None
    # a ConfigError, undecodable UTF-8, nesting past the recursion limit
    except (OSError, ValueError, RecursionError) as err:
        raise ConfigError(f"{document}: {err}") from None


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict; a key given twice is refused."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"key {reprlib.repr(key)} given twice")
        obj[key] = value
    return obj


def _int_literal(text: str) -> int:
    """A JSON integer literal as an int; one longer than Python converts
    is refused by its length, not with Python's advice to raise the
    limit."""
    try:
        return int(text)
    except ValueError:
        digits = len(text.lstrip("-"))
        raise ConfigError(f"an integer literal of {digits} digits is longer than "
                          f"{sys.get_int_max_str_digits()} digits") from None


def parse_json(text: str):
    """The value of the JSON `text`; call it in ``reading``."""
    return json.loads(text, object_pairs_hook=_unique_keys, parse_int=_int_literal)


def read_json(path):
    """The JSON document in the UTF-8 file at `path`; call it in ``reading``."""
    return parse_json(Path(path).read_text(encoding="utf-8"))


def load_document(cls, path, what: str):
    """`from_document` over the JSON file at `path`; an error names `what`
    and `path`."""
    with reading(f"{what} {path}"):
        return from_document(cls, read_json(path))
