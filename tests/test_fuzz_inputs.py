"""Mutations of the bundled input documents, run through ``cli.main``: every
one exits 0 or 2, and an exit 2 names the document and what in it is
wrong."""

import contextlib
import io
import json
import math
import tempfile
from dataclasses import fields
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from blockspec.cli import main
from blockspec.decoder import RunConfig
from blockspec.metrics import HardwareProfile
from blockspec.model import ModelConfig

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# each input document's flag and bundled file
DOCUMENTS = {
    "--model-config": "toy_model.json",
    "--run-config": "run_llada_baseline.json",
    "--profile": "profile_a100.json",
    "--scripted": "schedule_eos87.json",
    "--tasks": "tasks_demo.jsonl",
}
# Values a mutation puts in place of another: type swaps and extremes.  No
# positive integer that could pass as a larger size, length or step count
# is among them, so no run is asked for a costly model or sequence.
VALUES = [True, None, "x", "", [], {}, 0, -1, 1.5, 10**400, -(10**400), 2**63,
          math.nan, math.inf, -math.inf]


class Twice(dict):
    """A JSON object that is written with its first key given twice."""


class Deep:
    """An array nested `depth` deep."""

    def __init__(self, depth: int):
        self.depth = depth


def encode(value) -> str:
    """JSON text of `value`, NaN and the infinities as Python writes them."""
    if isinstance(value, Deep):
        return "[" * value.depth + "]" * value.depth
    if isinstance(value, dict):
        items = list(value.items())
        if isinstance(value, Twice) and items:
            items.insert(0, items[0])
        return "{" + ", ".join(f"{json.dumps(k)}: {encode(v)}" for k, v in items) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(encode, value)) + "]"
    return json.dumps(value)


def paths(value, prefix=()):
    """Every path to a value inside `value`, outermost first."""
    yield prefix
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from paths(child, (*prefix, key))


def replace(value, path, new):
    """`value` with the item at `path` replaced by `new(item)`."""
    if not path:
        return new(value)
    copy = type(value)(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = replace(value[path[0]], path[1:], new)
    return copy


MUTATIONS = {
    "value": lambda draw, item: draw(st.sampled_from(VALUES)),
    "deep": lambda draw, item: Deep(draw(st.sampled_from([990, 200_000]))),
    "repeat": lambda draw, item: Twice(item) if isinstance(item, dict) else item,
    "drop": lambda draw, item: {k: v for k, v in item.items() if k != min(item)}
    if isinstance(item, dict) and item else item,
    "extra": lambda draw, item: {**item, "zz": draw(st.sampled_from(VALUES))}
    if isinstance(item, dict) else item,
}


@st.composite
def mutated_input(draw):
    """(flag, text) of one bundled document with one mutation; in the task
    file, of one of its lines."""
    flag = draw(st.sampled_from(sorted(DOCUMENTS)))
    text = (CONFIGS / DOCUMENTS[flag]).read_text()
    lines = text.splitlines() if flag == "--tasks" else [text]
    ln = draw(st.integers(0, len(lines) - 1))
    document = json.loads(lines[ln])
    path = draw(st.sampled_from(list(paths(document))))
    kind = draw(st.sampled_from(sorted(MUTATIONS)))
    lines[ln] = encode(replace(document, path, lambda item: MUTATIONS[kind](draw, item)))
    return flag, "\n".join(lines) + "\n"


# what an exit-2 message may name: a config field, a task or schedule key,
# a repeated or unknown key, or the JSON itself
NAMES = {f.name for cls in (ModelConfig, RunConfig, HardwareProfile) for f in fields(cls)} | {
    "prompt_tokens", "'id'", "step", "position", "key", "JSON"}


@settings(derandomize=True, database=None, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_input(), st.sampled_from(["vanilla", "fast", "odb"]))
def test_a_mutated_document_exits_0_or_2_naming_what_is_wrong(case, strategy):
    flag, text = case
    with tempfile.TemporaryDirectory() as tmp:
        files = {f: str(CONFIGS / file) for f, file in DOCUMENTS.items()}
        files[flag] = str(Path(tmp) / DOCUMENTS[flag])
        Path(files[flag]).write_text(text)
        argv = ["run", "--strategy", strategy, "--gen-length", "32", "--block-size", "16",
                "--out", str(Path(tmp) / "out"), *(a for item in files.items() for a in item)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
    message = err.getvalue()
    assert code in (0, 2), message
    if code == 2:
        assert message.startswith("error: ") and message.count("\n") == 1, message
        assert any(path in message for path in files.values()), message
        assert any(name in message for name in NAMES), message
