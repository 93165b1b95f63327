import csv
import json
from dataclasses import fields
from pathlib import Path

import pytest

import blockspec.engine
from blockspec.cli import main
from blockspec.decoder import RunConfig, StepOutcome
from blockspec.engine import decode
from blockspec.errors import ConfigError, field_kinds
from blockspec.metrics import HardwareProfile, phase_summary
from blockspec.model import MAX_POSITION, ModelConfig, ScriptedSchedule, ToyModel

from conftest import TOY


@pytest.fixture
def workdir(tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(TOY, sort_keys=True))
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(
        {"name": "test", "peak_flops": 312e12, "mem_bandwidth": 2.039e12}
    ))
    tasks = tmp_path / "tasks.jsonl"
    lines = [
        json.dumps({"id": f"t{i}", "prompt_tokens": [1 + i, 2, 3, 4]})
        for i in range(3)
    ]
    tasks.write_text("\n".join(lines) + "\n")
    return tmp_path, model, profile, tasks


def read_dir(path: Path) -> dict:
    return {
        p.relative_to(path).as_posix(): p.read_bytes()
        for p in sorted(path.rglob("*"))
        if p.is_file()
    }


BASE_RUN_FLAGS = {"gen_length": "64", "block_size": "32", "accept_threshold": "0.05"}


def base_args(model, tasks, out, extra=(), drop=()):
    """The common command line; `drop` names run-config fields whose flag to leave out."""
    flags = [arg for name, value in BASE_RUN_FLAGS.items() if name not in drop
             for arg in ("--" + name.replace("_", "-"), value)]
    return ["--model-config", str(model), "--tasks", str(tasks), "--out", str(out),
            *flags, *extra]


def test_run_writes_one_trajectory_per_task(workdir):
    tmp, model, profile, tasks = workdir
    out = tmp / "out_run"
    code = main(["run", *base_args(model, tasks, out), "--strategy", "fast",
                 "--profile", str(profile)])
    assert code == 0
    names = set(read_dir(out))
    assert {"summary.json", "metrics.csv", "roofline.csv",
            "trajectory_t0.json", "trajectory_t1.json", "trajectory_t2.json"} <= names
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["tasks"]) == {"t0", "t1", "t2"}


def test_run_twice_is_byte_identical(workdir):
    tmp, model, profile, tasks = workdir
    out1, out2 = tmp / "o1", tmp / "o2"
    for out in (out1, out2):
        code = main(["run", *base_args(model, tasks, out), "--strategy", "fast",
                     "--profile", str(profile), "--dump-mask"])
        assert code == 0
    assert read_dir(out1) == read_dir(out2)


def test_run_rejects_malformed_task_file(workdir, capsys):
    tmp, model, _, _ = workdir
    bad = tmp / "bad.jsonl"
    bad.write_text('{"id": "x"}\n')
    code = main(["run", *base_args(model, bad, tmp / "nope"), "--strategy", "fast"])
    assert code == 2
    err = capsys.readouterr().err
    assert "prompt_tokens" in err and "bad.jsonl:1" in err


def test_run_rejects_bad_json_line(workdir, capsys):
    tmp, model, _, _ = workdir
    bad = tmp / "bad2.jsonl"
    bad.write_text("{not json}\n")
    code = main(["run", *base_args(model, bad, tmp / "nope"), "--strategy", "fast"])
    assert code == 2
    assert "invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("tokens", [["x"], [1.7, 2], [True, 2], [1, TOY["mask_token_id"]]])
def test_run_rejects_bad_prompt_tokens(workdir, capsys, tokens):
    tmp, model, _, _ = workdir
    bad = tmp / "bad.jsonl"
    bad.write_text(json.dumps({"id": "x", "prompt_tokens": tokens}) + "\n")
    code = main(["run", *base_args(model, bad, tmp / "out"), "--strategy", "fast"])
    assert code == 2
    err = capsys.readouterr().err
    assert "prompt_tokens" in err and "bad.jsonl:1" in err


@pytest.mark.parametrize("scripted", [False, True], ids=["toy", "scripted"])
@pytest.mark.parametrize("tokens,index", [
    ([5, 999, 3], 1),
    ([5, -4, 3], 1),
    ([5, 3, TOY["vocab_size"]], 2),
    ([5, 3, 2**70], 2),
    ([5, 3, 2**63], 2),  # past int64 but not uint64: printed as an integer, not a float
])
def test_run_rejects_prompt_tokens_outside_vocab(workdir, capsys, tokens, index, scripted):
    tmp, model, _, _ = workdir
    bad = tmp / "bad.jsonl"
    bad.write_text(json.dumps({"id": "x", "prompt_tokens": tokens}) + "\n")
    extra = []
    if scripted:
        schedule = tmp / "schedule.json"
        schedule.write_text(json.dumps({"0": {"positions": {"3": [17, 0.95]}}}))
        extra = ["--scripted", str(schedule)]
    code = main(["run", *base_args(model, bad, tmp / "out", extra), "--strategy", "odb"])
    assert code == 2
    err = capsys.readouterr().err
    assert f"prompt_tokens[{index}] = {tokens[index]} outside vocab" in err
    assert "bad.jsonl:1" in err
    assert not (tmp / "out" / "trajectory_x.json").exists()


@pytest.mark.parametrize("scripted", [False, True], ids=["toy", "scripted"])
def test_run_rejects_a_task_past_the_last_position(workdir, capsys, scripted):
    """A prompt and response longer than MAX_POSITION exit 2 before any
    forward, naming both fields, under either model."""
    tmp, model, _, _ = workdir
    long = tmp / "long.jsonl"
    long.write_text(json.dumps({"id": "x", "prompt_tokens": [5] * 65500}) + "\n")
    extra = []
    if scripted:
        schedule = tmp / "schedule.json"
        schedule.write_text(json.dumps({"0": {"positions": {"3": [17, 0.95]}}}))
        extra = ["--scripted", str(schedule)]
    code = main(["run", *base_args(model, long, tmp / "out", extra), "--strategy", "odb"])
    assert code == 2
    err = capsys.readouterr().err
    assert "65500 prompt_tokens and gen_length 64" in err and "long.jsonl:1" in err
    assert not (tmp / "out" / "trajectory_x.json").exists()


@pytest.mark.parametrize("flags", [
    ["--accept-threshold", "nan"],
    ["--accept-threshold", "inf"],
    ["--truncate-threshold", "nan", "--strategy", "odb"],
    ["--truncate-threshold", "0"],
    ["--truncate-threshold", "-0.5"],
])
def test_run_rejects_bad_thresholds(workdir, capsys, flags):
    tmp, model, _, tasks = workdir
    code = main(["run", *base_args(model, tasks, tmp / "out"), "--strategy", "fast", *flags])
    assert code == 2
    assert "threshold" in capsys.readouterr().err


def nested(depth: int) -> str:
    return "[" * depth + "]" * depth


DOCUMENT_NAMES = {"--run-config": "run config", "--profile": "profile",
                  "--model-config": "model config"}
# each config document with one key given twice
REPEATED_KEY_DOCUMENTS = {
    "--run-config": '{"accept_threshold": 0.5, "accept_threshold": 0.9}',
    "--profile": '{"name": "a", "name": "b", "peak_flops": 1e12, "mem_bandwidth": 1e12}',
    "--model-config": json.dumps(TOY)[:-1] + ', "seed": 7}',
}


@pytest.mark.parametrize("option,content,named", [
    ("--run-config", "[1, 2]", "bad.json"),
    ("--profile", "[1, 2]", "bad.json"),
    ("--profile", '{"name": "x", "peak_flops": [1], "mem_bandwidth": 1}', "bad.json"),
    ("--run-config", '{"speculation": false}', "speculation"),
    ("--run-config", '{"gen_length": 128.0}', "gen_length"),
    ("--run-config", '{"stage2_min_decoded": "x"}', "stage2_min_decoded"),
    # a key that names no RunConfig field is refused, not ignored
    ("--run-config", '{"seed": 1}', "unknown keys: ['seed']"),
    ("--run-config", '{"tau_steps": 4}', "unknown keys: ['tau_steps']"),
    ("--run-config", '{"stage2_min_decoded": 2.5}', "stage2_min_decoded"),
    ("--run-config", '{"accept_threshold": "x"}', "accept_threshold"),
    ("--run-config", '{"accept_threshold": 1' + "0" * 400 + "}", "accept_threshold"),
    ("--model-config", json.dumps({**TOY, "seed": -1}), "seed"),
    ("--model-config", json.dumps({**TOY, "d_model": 64.5}), "d_model"),
    ("--model-config", json.dumps({**TOY, "n_layers": True}), "n_layers"),
    ("--model-config", json.dumps({**TOY, "vocab_size": "128"}), "vocab_size"),
    ("--model-config", "5", "JSON object"),
    # count_params is ~6.4e11, far past the toy bound: refused before any weight is drawn
    ("--model-config", json.dumps({**TOY, "d_model": 200000, "n_heads": 1}), "bad.json"),
    ("--profile", '{"name": "x", "peak_flops": NaN, "mem_bandwidth": 1}', "peak_flops"),
    ("--profile", '{"name": 5, "peak_flops": 1e12, "mem_bandwidth": 1e12}', "name"),
    ("--profile", '{"name": "x", "peak_flops": true, "mem_bandwidth": 1e12}', "peak_flops"),
    ("--profile", '{"name": "x", "peak_flops": "1e12", "mem_bandwidth": 1e12}', "peak_flops"),
    ("--profile", '{"name": "x", "peak_flops": 1e12, "mem_bandwidth": "2e12"}', "mem_bandwidth"),
    ("--profile", '{"name": "x", "peak_flops": 1e12, "mem_bandwidth": false}', "mem_bandwidth"),
    ("--profile", '{"name": "x", "peak_flops": 1' + "0" * 400 + ', "mem_bandwidth": 1}', "peak_flops"),
    ("--profile", '{"name": "x", "peak_flops": 1e12, "mem_bandwidth": 1e11, "peak_flop": 2e12}',
     "peak_flop'"),
    *[pytest.param(option, content, named, id=f"{option[2:]}-{case}")
      for option, repeated in REPEATED_KEY_DOCUMENTS.items()
      for case, content, named in (("repeated-key", repeated, "given twice"),
                                   ("nested-990", nested(990), "recursion"),
                                   ("nested-200000", nested(200_000), "recursion"))],
])
def test_run_rejects_malformed_config_files(workdir, capsys, option, content, named):
    tmp, model, _, tasks = workdir
    bad = tmp / "bad.json"
    bad.write_text(content + "\n")
    # a flag overrides the run config, so the document's bad value must come alone
    drop = list(BASE_RUN_FLAGS) if option == "--run-config" else []
    code = main(["run", *base_args(model, tasks, tmp / "out", drop=drop), "--strategy", "fast",
                 option, str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    document = DOCUMENT_NAMES[option]
    assert f"error: {document} {bad}: " in err and err.count(document) == 1
    assert named in err


@pytest.mark.parametrize("flags,named", [
    (["--stage2-min-decoded", "0"], "stage2_min_decoded"),
    (["--gen-length", "1099511627776"], "gen_length"),
])
def test_run_rejects_out_of_range_flags(workdir, capsys, flags, named):
    tmp, model, _, tasks = workdir
    code = main(["run", *base_args(model, tasks, tmp / "out"), "--strategy", "fast", *flags])
    assert code == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("command,flag", [("run", "--seed"), ("compare", "--tau-steps")])
def test_run_and_compare_refuse_a_flag_no_field_reads(workdir, capsys, command, flag):
    tmp, model, profile, tasks = workdir
    chosen = (["--strategy", "vanilla"] if command == "run"
              else ["--strategies", "vanilla", "fast", "--profile", str(profile)])
    with pytest.raises(SystemExit) as exit_info:
        main([command, *base_args(model, tasks, tmp / "out"), *chosen, flag, "4"])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag} 4" in capsys.readouterr().err
    assert not (tmp / "out").exists()


def test_run_exits_4_naming_the_task_and_the_invariant(tmp_path, monkeypatch, capsys):
    """A step that writes over a prompt token stops the run at its first
    task: stderr names the task's path:line, its id and the violated
    invariant, without a traceback."""
    monkeypatch.setattr(
        blockspec.engine, "threshold_step",
        lambda state, logits, threshold: StepOutcome(accepted=[(1, 9, 0.9)], rejected_top=[]),
    )
    configs = Path(__file__).resolve().parents[1] / "configs"
    tasks = configs / "tasks_demo.jsonl"
    first_id = json.loads(tasks.read_text().splitlines()[0])["id"]
    code = main(["run", "--model-config", str(configs / "toy_model.json"), "--tasks", str(tasks),
                 "--out", str(tmp_path / "out"), "--strategy", "fast"])
    assert code == 4
    err = capsys.readouterr().err
    assert f"tasks_demo.jsonl:1: task {first_id}: " in err
    assert "position 1 accepted twice" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["n_layers", "vocab_size", "d_model"])
def test_scripted_run_bounds_model_sizes(workdir, capsys, name):
    """A scripted model never materializes weights, so the size bound of
    ModelConfig is what refuses a size no array can hold."""
    tmp, _, _, tasks = workdir
    model = tmp / "big.json"
    model.write_text(json.dumps({**TOY, name: 10**400}))
    schedule = Path(__file__).resolve().parents[1] / "configs" / "schedule_eos87.json"
    code = main(["run", *base_args(model, tasks, tmp / "out"), "--strategy", "odb",
                 "--scripted", str(schedule)])
    assert code == 2
    assert name in capsys.readouterr().err


CONFIG_CLASSES = {  # each config class with the fields of one valid instance
    ModelConfig: TOY,
    RunConfig: {"strategy": "fast", "gen_length": 64, "block_size": 32},
    HardwareProfile: {"name": "t", "peak_flops": 1e12, "mem_bandwidth": 1e11},
}


@pytest.mark.parametrize("cls,name", [(cls, f.name) for cls in CONFIG_CLASSES for f in fields(cls)],
                         ids=lambda v: getattr(v, "__name__", v))
def test_every_config_field_is_type_checked(cls, name):
    """Every field's annotation is one the check handles, and a bool, a
    string and an out-of-range int (too large for a float, or below zero
    for the counts, sizes, ids and seeds) are refused naming the field."""
    kinds = field_kinds(cls)[name]
    assert set(kinds) <= {int, float, str, type(None)}
    bad = [True, 10**400 if float in kinds else -1]
    if str not in kinds:
        bad.append("1")
    for value in bad:
        with pytest.raises(ConfigError, match=name):
            cls(**{**CONFIG_CLASSES[cls], name: value})


def test_run_config_document_and_flag_write_the_same_bytes(workdir):
    """An int threshold from --run-config is stored as the float the flag
    parses to, so both runs write the same files."""
    tmp, model, _, tasks = workdir
    doc = tmp / "rc.json"
    doc.write_text('{"accept_threshold": 1, "truncate_threshold": 1}')
    by_doc, by_flag = tmp / "by_doc", tmp / "by_flag"
    args = ["--model-config", str(model), "--tasks", str(tasks), "--strategy", "odb",
            "--gen-length", "64"]
    assert main(["run", *args, "--out", str(by_doc), "--run-config", str(doc)]) == 0
    assert main(["run", *args, "--out", str(by_flag), "--accept-threshold", "1",
                 "--truncate-threshold", "1"]) == 0
    assert read_dir(by_doc) == read_dir(by_flag)


@pytest.mark.parametrize("document,flags,expected", [
    ({}, [], {"gen_length": 128, "block_size": 32, "accept_threshold": 0.9,
              "truncate_threshold": 0.9}),
    ({"gen_length": 64, "accept_threshold": 0.5, "truncate_threshold": 0.75}, [],
     {"gen_length": 64, "block_size": 32, "accept_threshold": 0.5, "truncate_threshold": 0.75}),
    ({"gen_length": 64, "block_size": 16, "accept_threshold": 0.5},
     ["--gen-length", "32", "--accept-threshold", "0.25"],
     {"gen_length": 32, "block_size": 16, "accept_threshold": 0.25, "truncate_threshold": 0.9}),
], ids=["defaults", "document", "flags-override-document"])
def test_run_config_precedence(workdir, document, flags, expected):
    """A flag given on the command line beats --run-config, which beats the
    defaults (128/32 for the lengths, RunConfig's own for the rest)."""
    tmp, model, _, tasks = workdir
    doc = tmp / "rc.json"
    doc.write_text(json.dumps(document))
    out = tmp / "out"
    code = main(["run", "--model-config", str(model), "--tasks", str(tasks), "--out", str(out),
                 "--strategy", "fast", "--run-config", str(doc), *flags])
    assert code == 0
    run_config = json.loads((out / "summary.json").read_text())["run_config"]
    assert {k: run_config[k] for k in expected} == expected
    traj = json.loads((out / "trajectory_t0.json").read_text())
    assert traj["gen_length_final"] == expected["gen_length"]


@pytest.mark.parametrize("schedule,named", [
    ({"x": {}}, "'x'"),
    ({"0": {}, "7": {}}, "'7'"),
    ({"0": 5}, "step '0'"),
    ({"0": {"positions": {"20": [5]}}}, "position '20'"),
    ({}, "no steps"),
    ({"0": {"positions": {"-1": [5, 0.5]}}}, "pos -1"),
    ({"0": {"eos": [[65536, 0.5]]}}, "pos 65536"),
    ({"0": {"postions": {"20": [5, 0.99]}, "eos": []}}, "step '0': unknown keys ['postions']"),
    ({"0": {"positions": {"20": [5, 10**400]}}}, "position '20' confidence"),
    pytest.param('{"0": {}, "0": {}}', "key '0' given twice", id="repeated-step"),
    pytest.param('{"0": {"positions": {"20": [5, 0.5], "20": [6, 0.5]}}}',
                 "key '20' given twice", id="repeated-position"),
    pytest.param(nested(990), "recursion", id="nested-990"),
    pytest.param(nested(200_000), "recursion", id="nested-200000"),
    # a step or position given twice after integer conversion
    ({"0": {"positions": {"20": [5, 0.5], "020": [6, 0.5]}}}, "position '020'"),
    ({"0": {"positions": {"2_0": [5, 0.5]}}}, "position '2_0'"),
    ({"0": {}, "00": {}}, "step key '00'"),
    ({"0": {"positions": {"20": [5, 0.5]}, "eos": [[20, 0.9]]}}, "step '0': position 20 given twice"),
    ({"0": {"eos": [[20, 0.9], [20, 0.5]]}}, "step '0': position 20 given twice"),
])
def test_run_rejects_malformed_schedule(workdir, capsys, schedule, named):
    tmp, model, _, tasks = workdir
    bad = tmp / "sched.json"
    bad.write_text((schedule if isinstance(schedule, str) else json.dumps(schedule)) + "\n")
    code = main(["run", *base_args(model, tasks, tmp / "out"), "--strategy", "fast",
                 "--scripted", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: schedule {bad}: " in err and err.count("schedule") == 1
    assert named in err


@pytest.mark.parametrize("task_id", ["a/b", "../x", None, 5, "", "a\\b", "..", "a\0b"])
def test_run_rejects_unsafe_task_id(workdir, capsys, task_id):
    tmp, model, _, _ = workdir
    bad = tmp / "bad.jsonl"
    bad.write_text(json.dumps({"id": task_id, "prompt_tokens": [1, 2]}) + "\n")
    code = main(["run", *base_args(model, bad, tmp / "out"), "--strategy", "fast"])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad.jsonl:1" in err and "'id'" in err
    assert not (tmp / "out").exists()


@pytest.mark.parametrize("task_id,code", [
    pytest.param("x" * 300, 2, id="300-ascii-chars"),
    pytest.param("\u00e9" * 116, 2, id="116-chars-232-bytes"),
    pytest.param("a\ud800b", 2, id="lone-surrogate"),
    pytest.param("\u00e9" * 115 + "x", 0, id="231-bytes"),
])
def test_compare_bounds_task_id_bytes(workdir, capsys, task_id, code):
    """trajectory_<id>_vanilla.json is the longest name an id goes into."""
    tmp, model, profile, _ = workdir
    tasks = tmp / "ids.jsonl"
    tasks.write_text(json.dumps({"id": task_id, "prompt_tokens": [1, 2]}) + "\n")
    out = tmp / "out"
    assert main(["compare", *base_args(model, tasks, out),
                 "--strategies", "vanilla", "fast", "--profile", str(profile)]) == code
    if code:
        err = capsys.readouterr().err
        assert "ids.jsonl:1" in err and "'id'" in err
        assert not out.exists()
    else:
        assert (out / f"trajectory_{task_id}_vanilla.json").is_file()


@pytest.mark.parametrize("content,line,named", [
    (b'{"id": "a", "id": "b", "prompt_tokens": [1, 2]}\n', 1, "key 'id' given twice"),
    (b'{"id": "a", "prompt_tokens": [1, 2]}\n' + nested(990).encode(), 2, "recursion"),
    (nested(200_000).encode(), 1, "recursion"),
    (b'{"id": "a", "prompt_tokens": [' + b"1" * 5000 + b"]}", 1,
     "an integer literal of 5000 digits is longer than 4300 digits"),
    (b'{"id": "a", "prompt_tokens": [1, 2]}\n\xff\n', None, "utf-8"),
], ids=["repeated-key", "nested-990", "nested-200000", "5000-digits", "not-utf-8"])
def test_run_rejects_an_unreadable_task_file(workdir, capsys, content, line, named):
    tmp, model, _, _ = workdir
    bad = tmp / "bad.jsonl"
    bad.write_bytes(content)
    code = main(["run", *base_args(model, bad, tmp / "out"), "--strategy", "fast"])
    assert code == 2
    err = capsys.readouterr().err
    where = f"{bad}:{line}" if line else f"{bad}"
    assert f"error: tasks file {where}: " in err and err.count("tasks file") == 1
    assert named in err and "set_int_max_str_digits" not in err
    assert not (tmp / "out").exists()


def document(value, placeholder: str) -> str:
    """`value` as JSON with each string `"@"` in it replaced by `placeholder`."""
    return json.dumps(value).replace('"@"', placeholder)


# deep enough that a full repr runs to 600 characters, and still parsed
DEEP, LONG = nested(300), "1" * 4000


@pytest.mark.parametrize("option,content,named", [
    ("--model-config", document({**TOY, "d_model": "@"}, DEEP), "d_model"),
    ("--run-config", document({"accept_threshold": "@"}, LONG), "accept_threshold"),
    ("--profile", document({"name": "x", "peak_flops": "@", "mem_bandwidth": 1}, LONG),
     "peak_flops"),
    ("--scripted", document({"0": "@"}, DEEP), "step '0'"),
    ("--scripted", document({"0": {"positions": {"20": "@"}}}, DEEP), "position '20'"),
    ("--scripted", document({"0": {"positions": {"20": ["@", 0.5]}}}, LONG), "pos 20: token"),
    ("--scripted", document({"0": {"positions": {LONG: [5, 0.5]}}}, ""), "position outside"),
    ("--tasks", document({"id": "/" + "x" * 4000, "prompt_tokens": [1, 2]}, ""), "'id'"),
    ("--tasks", document({"id": "a", "prompt_tokens": [1, "@"]}, LONG), "prompt_tokens[1]"),
    ("--run-config", f'{{"{LONG}": 1, "{LONG}": 2}}', "given twice"),
], ids=["deep-model-field", "long-run-field", "long-profile-field", "deep-step",
        "deep-position", "long-token", "long-position", "long-task-id", "long-prompt-token",
        "long-repeated-key"])
def test_exit_2_messages_bound_the_value_they_show(workdir, capsys, option, content, named):
    """A deeply nested array or a 4 000-digit value is shown in a few dozen
    characters, and the message still names its field."""
    tmp, model, _, tasks = workdir
    bad = tmp / "bad.json"
    bad.write_text(content + "\n")
    drop = list(BASE_RUN_FLAGS) if option == "--run-config" else []
    args = base_args(model, bad if option == "--tasks" else tasks, tmp / "out", drop=drop)
    if option != "--tasks":
        args += [option, str(bad)]
    assert main(["run", *args, "--strategy", "fast"]) == 2
    err = capsys.readouterr().err
    assert named in err and len(err) < 200 + len(str(bad))


def test_a_990_deep_field_value_is_shown_short():
    value = []
    for _ in range(989):
        value = [value]
    with pytest.raises(ConfigError) as err:
        ModelConfig(**{**TOY, "d_model": value})
    assert str(err.value).startswith("d_model must be an integer, got [[[[[[") and len(str(err.value)) < 60


def test_a_task_line_may_hold_a_unicode_line_separator(workdir):
    """Only a newline ends a JSONL line: U+2028 inside a string does not."""
    tmp, model, _, _ = workdir
    tasks = tmp / "tasks.jsonl"
    tasks.write_text(json.dumps({"id": "a", "note": "x\u2028y", "prompt_tokens": [1, 2]},
                                ensure_ascii=False) + "\n")
    assert main(["run", *base_args(model, tasks, tmp / "out"), "--strategy", "fast"]) == 0


def test_run_rejects_non_object_task_line(workdir, capsys):
    tmp, model, _, _ = workdir
    bad = tmp / "bad.jsonl"
    bad.write_text('{"id": "a", "prompt_tokens": [1, 2]}\n5\n')
    code = main(["run", *base_args(model, bad, tmp / "out"), "--strategy", "fast"])
    assert code == 2
    assert "bad.jsonl:2" in capsys.readouterr().err


def test_compare_emits_all_pair_speedups(workdir):
    tmp, model, profile, tasks = workdir
    out = tmp / "out_cmp"
    code = main(["compare", *base_args(model, tasks, out),
                 "--strategies", "vanilla", "fast", "odb",
                 "--profile", str(profile)])
    assert code == 0
    payload = json.loads((out / "compare.json").read_text())
    assert payload["speedup_columns"] == ["fast/vanilla", "odb/vanilla", "odb/fast"]
    with open(out / "compare.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    for col in ("fast/vanilla", "odb/vanilla", "odb/fast"):
        assert col in rows[0]
    for strategy in ("vanilla", "fast", "odb"):
        assert (out / f"trajectory_t0_{strategy}.json").exists()


def test_compare_requires_two_strategies(workdir, capsys):
    tmp, model, profile, tasks = workdir
    code = main(["compare", *base_args(model, tasks, tmp / "x"),
                 "--strategies", "fast", "--profile", str(profile)])
    assert code == 3
    assert "two strategies" in capsys.readouterr().err


def test_compare_refuses_an_unknown_strategy(workdir, capsys):
    tmp, model, profile, tasks = workdir
    out = tmp / "x"
    with pytest.raises(SystemExit) as exit_:
        main(["compare", *base_args(model, tasks, out),
              "--strategies", "fast", "turbo", "--profile", str(profile)])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "--strategies" in err and "'turbo'" in err
    assert not out.exists()


def test_run_profile_writes_the_phase_summary_of_every_task(workdir):
    tmp, model, profile, tasks = workdir
    out = tmp / "out_phases"
    code = main(["run", *base_args(model, tasks, out), "--strategy", "odb",
                 "--profile", str(profile)])
    assert code == 0
    document = json.loads((out / "roofline_summary.json").read_text())
    prof = HardwareProfile.from_json(profile)
    assert document["profile"] == prof.to_dict()
    assert document["balance"] == prof.balance
    summary = json.loads((out / "summary.json").read_text())
    assert list(document["tasks"]) == list(summary["tasks"]) == ["t0", "t1", "t2"]
    config = RunConfig(strategy="odb", gen_length=64, block_size=32, accept_threshold=0.05)
    toy = ToyModel(ModelConfig.from_json(model))
    for line in tasks.read_text().splitlines():
        task = json.loads(line)
        traj = decode(toy, task["prompt_tokens"], config)
        assert document["tasks"][task["id"]] == phase_summary(traj, prof)


def test_roofline_rows_alternate_per_block_cycle(workdir):
    tmp, model, profile, tasks = workdir
    out = tmp / "out_roof"
    code = main(["run", *base_args(model, tasks, out), "--strategy", "fast",
                 "--profile", str(profile)])
    assert code == 0
    with open(out / "roofline.csv") as fh:
        rows = [r for r in csv.DictReader(fh) if r["task"] == "t0"]
    phases = [r["phase"] for r in rows]
    # per block cycle: one prefill row then decode rows
    assert phases[0] == "prefill"
    assert phases.count("prefill") == 2  # 64 tokens / 32 per block
    idx = [i for i, p in enumerate(phases) if p == "prefill"]
    for i in idx[1:]:
        assert phases[i - 1] == "decode"
    summary = json.loads((out / "roofline_summary.json").read_text())
    t0 = summary["tasks"]["t0"]
    assert t0["prefill"]["mean_ai"] > t0["decode"]["mean_ai"]


def test_roofline_tiny_bandwidth_is_all_compute(workdir):
    tmp, model, _, tasks = workdir
    tiny = tmp / "tiny.json"
    tiny.write_text(json.dumps(
        {"name": "tiny-bw", "peak_flops": 1.0, "mem_bandwidth": 1e15}
    ))
    out = tmp / "out_tiny"
    code = main(["run", *base_args(model, tasks, out), "--strategy", "fast",
                 "--profile", str(tiny)])
    assert code == 0
    with open(out / "roofline.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(r["bound"] == "compute" for r in rows)


def test_dump_mask_writes_grids(workdir):
    tmp, model, profile, tasks = workdir
    out = tmp / "out_masks"
    code = main(["run", *base_args(model, tasks, out), "--strategy", "fast",
                 "--dump-mask"])
    assert code == 0
    for name in ("mask_block.csv", "mask_spec_stage1.csv", "mask_spec_stage2.csv"):
        grid = (out / "masks" / name).read_text().splitlines()
        assert len(grid) > 1


def test_dump_mask_grid_is_the_layout_visibility(workdir):
    """Each grid row is a query row over every key slot, labelled
    ``cache:<position>`` or ``t<tag>:<position>``: a context key is visible
    to every row and, at stage 1, where no row is shared, a fresh key only
    to the rows of its own tag."""
    tmp, model, _, tasks = workdir
    out = tmp / "out_masks"
    code = main(["run", *base_args(model, tasks, out), "--strategy", "odb", "--dump-mask"])
    assert code == 0
    for name in ("mask_block.csv", "mask_spec_stage1.csv"):
        with open(out / "masks" / name, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header[0] == "query"
        keys = [label.split(":") for label in header[1:]]
        n_ctx = sum(kind == "cache" for kind, _ in keys)
        assert n_ctx == 64 and all(kind != "cache" for kind, _ in keys[n_ctx:])
        assert [row[0] for row in rows] == header[1 + n_ctx:]
        for row in rows:
            tag = row[0].split(":")[0]
            assert row[1:] == ["1" if kind in ("cache", tag) else "0" for kind, _ in keys]


@pytest.mark.parametrize("stage,budget", [(1, 3), (2, 4)])
def test_dump_mask_follows_spec_stage(workdir, monkeypatch, stage, budget):
    """The dump writes the layouts the sizing rule gives: one that keeps a
    single stage from the first decoded count dumps only that stage's grid,
    on its budget of candidates, with no decoded (shared) row."""
    import blockspec.cli

    monkeypatch.setattr(blockspec.cli, "spec_stage", lambda n_decoded, config: (stage, budget))
    tmp, model, _, tasks = workdir
    out = tmp / "out_masks"
    assert main(["run", *base_args(model, tasks, out), "--strategy", "fast", "--dump-mask"]) == 0
    grids = {p.name: p.read_text().splitlines() for p in (out / "masks").iterdir()}
    assert set(grids) == {"mask_block.csv", f"mask_spec_stage{stage}.csv"}
    # a header, then the main block and 2 * budget - 1 speculative blocks of 32 rows
    assert len(grids[f"mask_spec_stage{stage}.csv"]) == 1 + 32 * 2 * budget


@pytest.mark.parametrize("block_size", [1, 2, 3, 4])
def test_dump_mask_at_small_block_sizes(workdir, block_size):
    """Stage 2 starts from stage2_min_decoded decoded rows and speculates on
    the block's other positions; a grid no candidate can reach is skipped."""
    tmp, model, _, tasks = workdir
    out = tmp / "out_masks"
    code = main(["run", *base_args(model, tasks, out), "--strategy", "odb",
                 "--gen-length", "12", "--block-size", str(block_size), "--dump-mask"])
    assert code == 0
    grids = {p.name: p.read_text().splitlines() for p in (out / "masks").iterdir()}
    # block 1: one decoded row leaves no candidate for stage 2
    stage2 = {"mask_spec_stage2.csv"} if block_size > 1 else set()
    assert set(grids) == {"mask_block.csv", "mask_spec_stage1.csv"} | stage2
    assert len(grids["mask_block.csv"]) == 1 + block_size
    # a lattice of m candidates has 2m - 1 speculative blocks; each repeats
    # the main block's rows, less stage 2's one decoded (shared) row
    m1 = min(2, block_size)
    assert len(grids["mask_spec_stage1.csv"]) == 1 + block_size * 2 * m1
    if stage2:
        m2 = min(4, block_size - 1)
        assert len(grids["mask_spec_stage2.csv"]) == (
            1 + block_size + (2 * m2 - 1) * (block_size - 1)
        )


def test_gen_tasks_and_schedule(workdir):
    tmp, model, _, _ = workdir
    tasks_out = tmp / "gen.jsonl"
    sched_out = tmp / "sched.json"
    code = main(["gen-tasks", "--model-config", str(model), "--count", "2",
                 "--prompt-len", "8", "--seed", "5", "--out", str(tasks_out),
                 "--gen-length", "128", "--eos-offset", "87",
                 "--schedule-out", str(sched_out)])
    assert code == 0
    lines = tasks_out.read_text().splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert len(rec["prompt_tokens"]) == 8
    assert TOY["mask_token_id"] not in rec["prompt_tokens"]
    sched = json.loads(sched_out.read_text())
    assert sched["0"]["eos"] == [[8 + 87, 0.99]]
    # the eos entry alone scripts its position
    assert sorted(map(int, sched["0"]["positions"])) == [8 + off for off in range(128) if off != 87]
    # regenerating with the same seed is identical
    tasks_out2 = tmp / "gen2.jsonl"
    main(["gen-tasks", "--model-config", str(model), "--count", "2",
          "--prompt-len", "8", "--seed", "5", "--out", str(tasks_out2),
          "--gen-length", "128"])
    assert tasks_out.read_text() == tasks_out2.read_text()


def test_gen_tasks_seed_picks_the_prompts(workdir):
    """gen-tasks keeps its own --seed; these prompts are the ones seed 5
    has always drawn for the toy vocabulary."""
    tmp, model, _, _ = workdir
    tasks_out = tmp / "gen.jsonl"
    code = main(["gen-tasks", "--model-config", str(model), "--count", "2",
                 "--prompt-len", "8", "--seed", "5", "--out", str(tasks_out)])
    assert code == 0
    assert tasks_out.read_text() == (
        '{"id": "task000", "note": "seeded synthetic prompt 0", '
        '"prompt_tokens": [84, 101, 2, 101, 59, 64, 79, 36]}\n'
        '{"id": "task001", "note": "seeded synthetic prompt 1", '
        '"prompt_tokens": [123, 6, 35, 48, 71, 51, 16, 5]}\n'
    )


@pytest.mark.parametrize("flag,value", [
    ("--eos-confidence", "1.5"),
    ("--eos-confidence", "nan"),
    ("--fill-confidence", "-0.1"),
    ("--fill-confidence", "inf"),
])
def test_gen_tasks_rejects_bad_confidence_before_writing(workdir, capsys, flag, value):
    tmp, model, _, _ = workdir
    tasks_out = tmp / "gen.jsonl"
    sched_out = tmp / "sched.json"
    code = main(["gen-tasks", "--model-config", str(model), "--out", str(tasks_out),
                 "--eos-offset", "5", "--schedule-out", str(sched_out), flag, value])
    assert code == 2
    assert flag in capsys.readouterr().err
    assert not tasks_out.exists() and not sched_out.exists()


@pytest.mark.parametrize("gen_length", [MAX_POSITION, MAX_POSITION - 15])
def test_gen_tasks_refuses_a_schedule_past_the_last_position(workdir, capsys, gen_length):
    tmp, model, _, _ = workdir
    tasks_out = tmp / "gen.jsonl"
    sched_out = tmp / "sched.json"
    code = main(["gen-tasks", "--model-config", str(model), "--out", str(tasks_out),
                 "--prompt-len", "16", "--gen-length", str(gen_length),
                 "--eos-offset", "5", "--schedule-out", str(sched_out)])
    assert code == 2
    assert "--gen-length" in capsys.readouterr().err
    assert not tasks_out.exists() and not sched_out.exists()


def test_gen_tasks_schedule_may_reach_the_last_position(workdir):
    """The largest schedule gen-tasks writes is one that run accepts."""
    tmp, model, _, _ = workdir
    tasks_out = tmp / "gen.jsonl"
    sched_out = tmp / "sched.json"
    code = main(["gen-tasks", "--model-config", str(model), "--out", str(tasks_out),
                 "--count", "1", "--prompt-len", "16", "--gen-length", str(MAX_POSITION - 16),
                 "--eos-offset", "5", "--schedule-out", str(sched_out)])
    assert code == 0
    cfg = ModelConfig.from_json(model)
    schedule = ScriptedSchedule.from_dict(json.loads(sched_out.read_text()), cfg.vocab_size,
                                          cfg.mask_token_id, cfg.eos_token_id)
    assert max(schedule.entry(0)) == MAX_POSITION - 1


@pytest.mark.parametrize("flags,named", [
    (["--seed", "-1"], "--seed"),
    (["--count", "0"], "--count"),
    (["--prompt-len", "0"], "--prompt-len"),
    (["--prompt-len", str(MAX_POSITION)], "--prompt-len"),
    (["--prompt-len", "70000"], "--prompt-len"),
    (["--prompt-len", str(10**11)], "--prompt-len"),
    (["--gen-length", "0"], "--gen-length"),
    (["--gen-length", "-5", "--eos-offset", "0"], "--gen-length"),
    (["--eos-offset", "-1"], "--eos-offset"),
    (["--gen-length", "64", "--eos-offset", "64"], "--eos-offset"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
@pytest.mark.parametrize("schedule", [False, True], ids=["tasks", "tasks+schedule"])
def test_gen_tasks_refuses_a_bad_flag_before_writing(workdir, capsys, flags, named, schedule):
    tmp, model, _, _ = workdir
    tasks_out = tmp / "new" / "gen.jsonl"
    sched_out = tmp / "new" / "sched.json"
    extra = ["--eos-offset", "5", "--schedule-out", str(sched_out)] if schedule else []
    code = main(["gen-tasks", "--model-config", str(model), "--out", str(tasks_out),
                 *extra, *flags])
    assert code == 2
    assert named in capsys.readouterr().err
    assert not (tmp / "new").exists()


def test_gen_tasks_creates_missing_output_directories(workdir):
    tmp, model, _, _ = workdir
    tasks_out = tmp / "a" / "b" / "gen.jsonl"
    sched_out = tmp / "c" / "sched.json"
    code = main(["gen-tasks", "--model-config", str(model), "--out", str(tasks_out),
                 "--eos-offset", "5", "--schedule-out", str(sched_out)])
    assert code == 0
    assert len(tasks_out.read_text().splitlines()) == 3
    assert "0" in json.loads(sched_out.read_text())


@pytest.mark.parametrize("target", ["--out", "--schedule-out"])
@pytest.mark.parametrize("place", ["under a file", "a directory"])
def test_gen_tasks_refuses_an_output_path_before_writing(workdir, capsys, target, place):
    tmp, model, _, _ = workdir
    paths = {"--out": tmp / "gen.jsonl", "--schedule-out": tmp / "sched.json"}
    if place == "under a file":
        (tmp / "file").write_text("")
        paths[target] = tmp / "file" / "out.json"
    else:
        paths[target] = tmp
    code = main(["gen-tasks", "--model-config", str(model), "--eos-offset", "5",
                 "--out", str(paths["--out"]), "--schedule-out", str(paths["--schedule-out"])])
    assert code == 2
    assert f"error: {target} " in capsys.readouterr().err
    assert not any(p.is_file() for p in paths.values())


def test_run_refuses_an_out_directory_that_cannot_be_created(workdir, capsys):
    tmp, model, _, tasks = workdir
    (tmp / "file").write_text("")
    code = main(["run", *base_args(model, tasks, tmp / "file" / "out")])
    assert code == 2
    assert "--out" in capsys.readouterr().err


def test_gen_tasks_rejects_a_vocab_without_ordinary_tokens(workdir, capsys):
    tmp, _, _, _ = workdir
    model = tmp / "tiny_vocab.json"
    model.write_text(json.dumps({**TOY, "vocab_size": 2, "mask_token_id": 0, "eos_token_id": 1}))
    tasks_out = tmp / "gen.jsonl"
    code = main(["gen-tasks", "--model-config", str(model), "--out", str(tasks_out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "model config" in err and "tiny_vocab.json" in err and "vocab_size" in err
    assert not tasks_out.exists()


@pytest.mark.parametrize("strategy", ["vanilla", "fast", "odb"])
def test_a_scripted_run_over_a_2_token_vocab_accepts_with_certainty(tmp_path, strategy):
    """The one token other than the mask has no competitor, so every
    accepted confidence is 1.0."""
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"vocab_size": 2, "d_model": 8, "n_layers": 1, "n_heads": 2,
                                 "d_ff": 8, "mask_token_id": 0, "eos_token_id": 1, "seed": 1}))
    schedule = tmp_path / "schedule.json"
    schedule.write_text(json.dumps({"0": {"positions": {"3": [1, 0.5]}}}))
    tasks = tmp_path / "tasks.jsonl"
    tasks.write_text(json.dumps({"id": "t", "prompt_tokens": [1, 1, 1]}) + "\n")
    out = tmp_path / "out"
    code = main(["run", "--model-config", str(model), "--tasks", str(tasks),
                 "--scripted", str(schedule), "--gen-length", "4", "--block-size", "4",
                 "--strategy", strategy, "--out", str(out)])
    assert code == 0
    traj = json.loads((out / "trajectory_t.json").read_text())
    accepted = [entry for step in traj["steps"] for entry in step["accepted"]]
    assert sorted(pos for pos, _, _ in accepted) == [3, 4, 5, 6]
    assert all(conf == 1.0 for _, _, conf in accepted)


def test_scripted_alp_compare_consistency(workdir):
    """The compare table's odb/fast column is the ratio of the two runs'
    modeled totals, bit for bit (cross-module consistency on the ALP
    scenario)."""
    from blockspec import (
        HardwareProfile,
        ModelConfig,
        RunConfig,
        ScriptedModel,
        ScriptedSchedule,
        decode,
        trajectory_metrics,
    )

    tmp, model, profile, _ = workdir
    sched_out = tmp / "sched.json"
    tasks_out = tmp / "alp_tasks.jsonl"
    main(["gen-tasks", "--model-config", str(model), "--count", "1",
          "--prompt-len", "8", "--seed", "5", "--out", str(tasks_out),
          "--gen-length", "256", "--eos-offset", "87",
          "--schedule-out", str(sched_out)])
    out = tmp / "out_alp"
    code = main(["compare", "--model-config", str(model), "--scripted", str(sched_out),
                 "--tasks", str(tasks_out), "--out", str(out),
                 "--gen-length", "256", "--block-size", "32",
                 "--accept-threshold", "0.9", "--truncate-threshold", "0.9",
                 "--strategies", "fast", "odb",
                 "--profile", str(profile)])
    assert code == 0
    payload = json.loads((out / "compare.json").read_text())
    row = payload["per_task"][0]

    cfg = ModelConfig.from_json(model)
    schedule = ScriptedSchedule.from_dict(json.loads(sched_out.read_text()), cfg.vocab_size,
                                          cfg.mask_token_id, cfg.eos_token_id)
    smodel = ScriptedModel(cfg, schedule)
    prompt = json.loads(tasks_out.read_text().splitlines()[0])["prompt_tokens"]
    fast = decode(smodel, prompt, RunConfig(strategy="fast", gen_length=256, block_size=32))
    odb = decode(smodel, prompt, RunConfig(strategy="odb", gen_length=256,
                                           block_size=32, truncate_threshold=0.9))
    prof = HardwareProfile.from_json(profile)
    want = (trajectory_metrics(fast, prof).total_est_time_s
            / trajectory_metrics(odb, prof).total_est_time_s)
    assert row["odb/fast"] == want
    assert row["odb/fast"] > 1.0


# Rates under which the balance point or a modeled time is not finite.
NON_FINITE_PROFILES = {
    "inf-balance": ({"peak_flops": 1e308, "mem_bandwidth": 1e-308}, "mem_bandwidth"),
    "subnormal-peak": ({"peak_flops": 5e-324, "mem_bandwidth": 1e11}, "peak_flops"),
    "inf-times": ({"peak_flops": 1e-300, "mem_bandwidth": 1e-300}, "peak_flops"),
}


@pytest.mark.parametrize("command", [
    ["run", "--strategy", "odb", "--dump-mask"],
    ["compare", "--strategies", "vanilla", "fast", "odb"],
], ids=["run", "compare"])
@pytest.mark.parametrize("rates, named", NON_FINITE_PROFILES.values(), ids=NON_FINITE_PROFILES)
def test_a_profile_with_non_finite_costs_is_refused_before_writing(
    workdir, capsys, command, rates, named
):
    tmp, model, _, tasks = workdir
    profile = tmp / "overflow.json"
    profile.write_text(json.dumps({"name": "overflow", **rates}))
    out = tmp / "out_overflow"
    code = main([command[0], *base_args(model, tasks, out), *command[1:],
                 "--profile", str(profile)])
    assert code == 2
    err = capsys.readouterr().err
    assert "overflow.json" in err and f"{named} must be at least 1 per second" in err
    assert not out.exists()


@pytest.mark.parametrize("scripted", [False, True], ids=["toy", "scripted"])
def test_llada_baseline_config_commits_one_token_per_step(tmp_path, scripted):
    """The baseline dLLM, LLaDA's low-confidence remasking at one token per
    step, is vanilla at accept_threshold 1.0: no confidence lies above it,
    so each full-sequence forward commits only its forced top-1."""
    configs = Path(__file__).resolve().parents[1] / "configs"
    out = tmp_path / "baseline"
    extra = ["--scripted", str(configs / "schedule_eos87.json")] if scripted else []
    code = main(["run", "--model-config", str(configs / "toy_model.json"),
                 "--tasks", str(configs / "tasks_demo.jsonl"), "--out", str(out),
                 "--strategy", "vanilla",
                 "--run-config", str(configs / "run_llada_baseline.json"), *extra])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["run_config"]["accept_threshold"] == 1.0
    gen_length = summary["run_config"]["gen_length"]
    assert summary["tasks"]
    for task_id, entry in summary["tasks"].items():
        traj = json.loads((out / f"trajectory_{task_id}.json").read_text())
        assert entry["nfe"] == traj["nfe"] == len(traj["steps"]) == gen_length
        assert all(len(step["accepted"]) == 1 for step in traj["steps"])
        assert all(step["t_tokens"] == step["c_tokens"] for step in traj["steps"])
