import csv
import json
from pathlib import Path

import pytest

from blockspec.cli import main
from blockspec.errors import from_document

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


BASE_RUN_FLAGS = {"gen_length": "64", "block_size": "32", "accept_threshold": "0.05", "seed": "3"}


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


@pytest.mark.parametrize("option,content,named", [
    ("--run-config", "[1, 2]", "bad.json"),
    ("--profile", "[1, 2]", "bad.json"),
    ("--profile", '{"name": "x", "peak_flops": [1], "mem_bandwidth": 1}', "bad.json"),
    ("--run-config", '{"speculation": false}', "speculation"),
    ("--run-config", '{"gen_length": 128.0}', "gen_length"),
    ("--run-config", '{"seed": "x", "tau_steps": 3}', "seed"),
    ("--run-config", '{"stage2_min_decoded": 2.5}', "stage2_min_decoded"),
    ("--run-config", '{"accept_threshold": "x"}', "accept_threshold"),
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
])
def test_run_rejects_malformed_config_files(workdir, capsys, option, content, named):
    tmp, model, _, tasks = workdir
    bad = tmp / "bad.json"
    bad.write_text(content + "\n")
    # a flag overrides the run config, so the document's bad value must come alone
    document = json.loads(content) if option == "--run-config" else None
    drop = list(document) if isinstance(document, dict) else []
    code = main(["run", *base_args(model, tasks, tmp / "out", drop=drop), "--strategy", "fast",
                 option, str(bad)])
    assert code == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("document,flags,expected", [
    ({}, [], {"gen_length": 128, "block_size": 32, "accept_threshold": 0.9, "seed": 0}),
    ({"gen_length": 64, "accept_threshold": 0.5, "seed": 4}, [],
     {"gen_length": 64, "block_size": 32, "accept_threshold": 0.5, "seed": 4}),
    ({"gen_length": 64, "block_size": 16, "accept_threshold": 0.5},
     ["--gen-length", "32", "--accept-threshold", "0.25"],
     {"gen_length": 32, "block_size": 16, "accept_threshold": 0.25, "seed": 0}),
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
])
def test_run_rejects_malformed_schedule(workdir, capsys, schedule, named):
    tmp, model, _, tasks = workdir
    bad = tmp / "sched.json"
    bad.write_text(json.dumps(schedule) + "\n")
    code = main(["run", *base_args(model, tasks, tmp / "out"), "--strategy", "fast",
                 "--scripted", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "sched.json" in err and named in err


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


def test_roofline_rows_alternate_per_block_cycle(workdir):
    tmp, model, profile, tasks = workdir
    out = tmp / "out_roof"
    code = main(["roofline", *base_args(model, tasks, out), "--strategy", "fast",
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
    code = main(["roofline", *base_args(model, tasks, out), "--strategy", "fast",
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


@pytest.mark.parametrize("block_size", [1, 2, 3, 4])
def test_dump_mask_at_small_block_sizes(workdir, block_size):
    """Stage 2 starts from stage2_threshold decoded rows and speculates on
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
    # regenerating with the same seed is identical
    tasks_out2 = tmp / "gen2.jsonl"
    main(["gen-tasks", "--model-config", str(model), "--count", "2",
          "--prompt-len", "8", "--seed", "5", "--out", str(tasks_out2),
          "--gen-length", "128"])
    assert tasks_out.read_text() == tasks_out2.read_text()


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


def test_scripted_alp_compare_consistency(workdir):
    """The compare table's odb/fast column equals estimate_speedup on the
    same trajectories (cross-module consistency on the ALP scenario)."""
    from blockspec import (
        HardwareProfile,
        ModelConfig,
        RunConfig,
        ScriptedModel,
        ScriptedSchedule,
        decode,
        estimate_speedup,
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
                 "--seed", "3", "--strategies", "fast", "odb",
                 "--profile", str(profile)])
    assert code == 0
    payload = json.loads((out / "compare.json").read_text())
    row = payload["per_task"][0]

    cfg = from_document(ModelConfig, json.loads(model.read_text()), "model config")
    schedule = ScriptedSchedule.from_json(sched_out, cfg.vocab_size,
                                          cfg.mask_token_id, cfg.eos_token_id)
    smodel = ScriptedModel(cfg, schedule)
    prompt = json.loads(tasks_out.read_text().splitlines()[0])["prompt_tokens"]
    fast = decode(smodel, prompt, RunConfig(strategy="fast", gen_length=256, block_size=32))
    odb = decode(smodel, prompt, RunConfig(strategy="odb", gen_length=256,
                                           block_size=32, truncate_threshold=0.9))
    prof = HardwareProfile.from_json(profile)
    assert row["odb/fast"] == pytest.approx(estimate_speedup(fast, odb, prof), abs=1e-12)
    assert row["odb/fast"] > 1.0


def test_vanilla_tau_mode_through_cli(workdir):
    tmp, model, profile, tasks = workdir
    out = tmp / "out_tau"
    code = main(["run", *base_args(model, tasks, out), "--strategy", "vanilla",
                 "--tau-steps", "8", "--profile", str(profile)])
    assert code == 0
    traj = json.loads((out / "trajectory_t0.json").read_text())
    assert all(s["kind"] == "tau" for s in traj["steps"])
    assert traj["nfe"] <= 8
