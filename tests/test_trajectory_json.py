"""The JSON writer gives the bytes of ``json.dumps(v, sort_keys=True,
indent=2)`` and refuses what that JSON cannot hold."""

import enum
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockspec import RunConfig, ScriptedModel, decode
from blockspec.trajectory import encode_json

from conftest import rising_schedule


def reference(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


EDGE_FLOATS = [-0.0, 5e-324, 1e-7, 1e16, 1.7976931348623157e308]
FINITE = st.floats(allow_nan=False, allow_infinity=False)
FLOATS = st.one_of(FINITE, st.sampled_from(EDGE_FLOATS), FINITE.map(np.float64))
# json.dumps writes an int of any size; numpy's int64 ends at 2**63 - 1
INTS = st.one_of(st.integers(), st.integers(min_value=2**63, max_value=2**80),
                 st.integers(min_value=-(2**80), max_value=-(2**63) - 1))
TEXT = st.text(st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7fé \U0001f600'),
                         st.characters()), max_size=8)
SCALARS = st.one_of(st.none(), st.booleans(), INTS, FLOATS, TEXT)
TREES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(TEXT, inner, max_size=4),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(TREES)
def test_writer_matches_json_dumps_on_random_trees(value):
    assert encode_json(value) == reference(value)


class Count(int):
    pass


class Share(float):
    pass


class Name(str):
    pass


class Level(enum.IntEnum):
    HIGH = 2


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": {}, "b": [], "c": (), "d": [[], {}, [[]]]},
    EDGE_FLOATS, [np.float64(x) for x in EDGE_FLOATS], [2**63, -(2**64) - 1, 0, -0],
    ['say "hi"\\', "\x00\x1f\x7f", "café \U0001f600"], [True, False, None],
    {"z": 1, "a": [1.5, "x", None], "M": (2, 3.25, True)},
    [Count(3), Share(0.1), Name("n"), Level.HIGH, {Name("k"): Count(4)}],
    "top", 7, 0.5, None,
], ids=repr)
def test_writer_matches_json_dumps_on_chosen_values(value):
    assert encode_json(value) == reference(value)


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, np.float64("inf"), Share("nan")])
def test_writer_refuses_a_non_finite_float(x):
    for value in (x, [x], {"k": (1, x)}):
        with pytest.raises(ValueError, match="not JSON compliant"):
            encode_json(value)


@pytest.mark.parametrize("value", [
    np.int64(3), [np.int64(3)], {1, 2}, {"k": [{1, 2}]}, {1: "a"}, {"a": 1, 2: "b"},
    {(1,): 1}, {None: 1}, object(),
], ids=lambda v: "object()" if type(v) is object else repr(v))  # an object's repr holds its address
def test_writer_refuses_other_values_and_keys(value):
    with pytest.raises(TypeError):
        encode_json(value)


@pytest.mark.parametrize("strategy", ["vanilla", "fast", "odb"])
@pytest.mark.parametrize("kind", ["toy", "scripted"])
def test_to_json_is_json_dumps_of_to_dict(toy_model, toy_config, kind, strategy):
    prompt = [3, 14, 15, 92, 65, 35, 89, 79, 32]
    if kind == "toy":
        model, gen_length = toy_model, 64
    else:
        model, gen_length = ScriptedModel(toy_config, rising_schedule(len(prompt), 96)), 96
    traj = decode(model, prompt, RunConfig(strategy, gen_length, 32))
    assert traj.to_json() == reference(traj.to_dict()) + "\n"
    # the scripted odb run cuts its length, so a truncation record is written
    assert bool(traj.truncations) == (kind == "scripted" and strategy == "odb")
