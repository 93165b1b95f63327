"""Command-line harness: run strategies over task files, compare them, and
emit trajectory/metrics/roofline artifacts.

Exit codes (also shown by --help):
  0  success
  2  invalid arguments or malformed input file (message names the field)
  3  usage error detected after parsing (e.g. fewer than two strategies)
  4  decode invariant violation (step dump on stderr)
  1  unexpected internal error
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, fields
from itertools import combinations
from pathlib import Path

import numpy as np

from .decoder import STRATEGIES, RunConfig, decode
from .errors import ConfigError, ProgressError, RangeError, ShapeError, from_document
from .layout import build_block_layout, build_spec_layout
from .metrics import (
    HardwareProfile,
    estimate_speedup,
    phase_summary,
    trajectory_metrics,
    write_cost_csv,
)
from .model import ModelConfig, ScriptedModel, ScriptedSchedule, ToyModel
from .speculative import Candidate, CandidateSet, SpecSet

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_USAGE = 3
EXIT_INVARIANT = 4

EPILOG = __doc__

# A task id becomes part of file names, the longest being
# trajectory_<id>_<strategy>.json, and file systems cap a name at 255 bytes.
MAX_TASK_ID_BYTES = 255 - len("trajectory__.json") - max(map(len, STRATEGIES))

# One flag per RunConfig field after the strategy, each None unless given.
RUN_FLAGS = [f for f in fields(RunConfig) if f.name != "strategy"]
# The lengths a run takes when neither a flag nor --run-config sets them;
# RunConfig's own field defaults supply the rest.
LENGTH_DEFAULTS = {"gen_length": 128, "block_size": 32}

# compare's count columns and totals, each read from one MetricsReport field
COUNT_COLUMNS = {"nfe": "nfe", "eff_nfe": "eff_nfe", "tokens": "tokens_generated",
                 "truncations": "truncation_count"}


@dataclass(frozen=True)
class TaskRecord:
    id: str
    prompt_tokens: tuple[int, ...]
    source: str = ""                 # "path:line" the task was read from


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def load_tasks(path) -> list[TaskRecord]:
    """Parse a JSONL task file; diagnostics carry line and field."""
    tasks: list[TaskRecord] = []
    seen = set()
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as err:
        raise CliError(f"cannot read tasks file {path}: {err}", EXIT_PARSE) from err
    for ln, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as err:
            raise CliError(f"{path}:{ln}: invalid JSON: {err}", EXIT_PARSE) from err
        if not isinstance(raw, dict):
            raise CliError(f"{path}:{ln}: a task must be a JSON object", EXIT_PARSE)
        for key in ("id", "prompt_tokens"):
            if key not in raw:
                raise CliError(f"{path}:{ln}: missing field '{key}'", EXIT_PARSE)
        tokens = raw["prompt_tokens"]
        if (
            not isinstance(tokens, list)
            or not tokens
            or not all(isinstance(t, int) and not isinstance(t, bool) for t in tokens)
        ):
            raise CliError(
                f"{path}:{ln}: field 'prompt_tokens' must be a non-empty list of integers",
                EXIT_PARSE,
            )
        task_id = raw["id"]
        # the id names the task's output files, so it must be one path part
        if (
            not isinstance(task_id, str)
            or task_id in ("", ".", "..")
            or any(c in task_id for c in "/\\\0")
        ):
            raise CliError(
                f"{path}:{ln}: field 'id' must be a non-empty string without '/', '\\' "
                f"or NUL and not '.' or '..', got {task_id!r}",
                EXIT_PARSE,
            )
        try:
            fits = len(task_id.encode("utf-8")) <= MAX_TASK_ID_BYTES
        except UnicodeEncodeError:  # a lone surrogate
            fits = False
        if not fits:
            raise CliError(
                f"{path}:{ln}: field 'id' must be valid UTF-8 of at most "
                f"{MAX_TASK_ID_BYTES} bytes",
                EXIT_PARSE,
            )
        if task_id in seen:
            raise CliError(f"{path}:{ln}: duplicate task id '{task_id}'", EXIT_PARSE)
        seen.add(task_id)
        tasks.append(TaskRecord(id=task_id, prompt_tokens=tuple(tokens), source=f"{path}:{ln}"))
    if not tasks:
        raise CliError(f"{path}: no tasks found", EXIT_PARSE)
    return tasks


def _load(cls, path, what: str, *context):
    """`cls.from_json(path, *context)`; a bad file exits 2 naming `what` and `path`."""
    try:
        return cls.from_json(path, *context)
    except (OSError, ValueError, TypeError) as err:
        raise CliError(f"{what} {path}: {err}", EXIT_PARSE) from err


def _load_model(args):
    cfg = _load(ModelConfig, args.model_config, "model config")
    if args.scripted:
        ids = (cfg.vocab_size, cfg.mask_token_id, cfg.eos_token_id)
        return ScriptedModel(cfg, _load(ScriptedSchedule, args.scripted, "schedule", *ids))
    try:
        return ToyModel(cfg)
    except ConfigError as err:
        raise CliError(f"model config {args.model_config}: {err}", EXIT_PARSE) from err


def _run_config(args, strategy: str) -> RunConfig:
    """The length defaults, overridden by the --run-config document, then by
    every run flag given on the command line, then by `strategy`."""
    path = args.run_config
    try:
        document = {}
        if path:
            with open(path) as fh:
                document = json.load(fh)
            if not isinstance(document, dict):
                raise ConfigError("must be a JSON object")
        flags = {f.name: v for f in RUN_FLAGS if (v := getattr(args, f.name)) is not None}
        merged = {**LENGTH_DEFAULTS, **document, **flags, "strategy": strategy}
        return from_document(RunConfig, merged, "run config")
    except (OSError, ValueError, TypeError) as err:
        raise CliError(f"run config{f' {path}' if path else ''}: {err}", EXIT_PARSE) from err


def _setup(args, strategies):
    """Tasks, model, one run config per strategy, the profile (None without
    --profile) and the output directory, created once every input is read."""
    tasks = load_tasks(args.tasks)
    model = _load_model(args)
    configs = [_run_config(args, strategy) for strategy in strategies]
    profile = _load(HardwareProfile, args.profile, "profile") if args.profile else None
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return tasks, model, configs, profile, out_dir


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _decode_task(model, task: TaskRecord, config: RunConfig):
    try:
        return decode(model, list(task.prompt_tokens), config)
    except ProgressError as err:
        raise CliError(
            f"{task.source}: task {task.id}: invariant violation: {err}", EXIT_INVARIANT
        ) from err
    except (ConfigError, RangeError, ShapeError) as err:
        raise CliError(f"{task.source}: task {task.id}: {err}", EXIT_PARSE) from err


def _dump_masks(out_dir: Path, config: RunConfig) -> None:
    """Write representative dense masks (block, stage-1, stage-2 layouts).

    Stage 2 starts with the block's first `stage2_threshold` positions
    decoded; each stage takes up to 2 (stage 1) or 4 (stage 2) candidates
    from the block's other positions, and a stage left with none is
    skipped.
    """
    masks = out_dir / "masks"
    masks.mkdir(exist_ok=True)
    bs = config.block_size
    start, end = bs, 2 * bs  # pretend prompt of one block
    ctx = [p for p in range(3 * bs) if not (start <= p < end)]
    build_block_layout((start, end), ctx).dump_mask_csv(masks / "mask_block.csv")
    for stage, n_decoded in ((1, 0), (2, config.stage2_threshold)):
        free = range(start + n_decoded, end)[: 2 * stage]
        if not free:
            continue
        spec = SpecSet.build(CandidateSet(tuple(Candidate(p, 1, 0.5) for p in free)), stage)
        decoded = range(start, start + n_decoded)
        build_spec_layout((start, end), spec, stage, decoded, ctx).dump_mask_csv(
            masks / f"mask_spec_stage{stage}.csv"
        )


def cmd_run(args) -> int:
    tasks, model, (config,), profile, out_dir = _setup(args, [args.strategy])

    summary = {"strategy": args.strategy, "run_config": config.to_dict(), "tasks": {}}
    metrics_rows = []
    trajectories = {}
    for task in tasks:
        traj = _decode_task(model, task, config)
        (out_dir / f"trajectory_{task.id}.json").write_text(traj.to_json())
        entry = {
            "nfe": traj.nfe,
            "total_jumps": traj.total_jumps,
            "prefill_steps": traj.prefill_steps,
            "gen_length_final": traj.gen_length_final,
            "truncations": len(traj.truncations),
        }
        if profile is not None:
            report = trajectory_metrics(traj, profile)
            entry["metrics"] = report.to_dict()
            metrics_rows.append({"task": task.id, **report.to_dict()})
            trajectories[task.id] = traj
        summary["tasks"][task.id] = entry
    if profile is not None:
        summary["profile"] = profile.to_dict()
        _write_rows_csv(out_dir / "metrics.csv", metrics_rows)
        write_cost_csv(out_dir / "roofline.csv", trajectories, profile)
    _write_json(out_dir / "summary.json", summary)
    if args.dump_mask:
        _dump_masks(out_dir, config)
    return EXIT_OK


def _write_rows_csv(path: Path, rows: list[dict]) -> None:
    """Dict rows as CSV under the first row's keys; floats written by repr."""
    cols = list(rows[0])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols)
        for row in rows:
            writer.writerow([repr(row[c]) if isinstance(row[c], float) else row[c] for c in cols])


def cmd_compare(args) -> int:
    if len(args.strategies) < 2:
        raise CliError("compare needs at least two strategies", EXIT_USAGE)
    for s in args.strategies:
        if s not in STRATEGIES:
            raise CliError(f"unknown strategy '{s}'", EXIT_USAGE)
    if len(set(args.strategies)) != len(args.strategies):
        raise CliError("strategies must be distinct", EXIT_USAGE)
    tasks, model, configs, profile, out_dir = _setup(args, args.strategies)

    pairs = list(combinations(args.strategies, 2))
    speedup_cols = [f"{b}/{a}" for a, b in pairs]
    table = []
    aggregate = {s: {**dict.fromkeys(COUNT_COLUMNS, 0), "time": 0.0} for s in args.strategies}
    for task in tasks:
        trajs = {}
        row = {"task": task.id}
        for strategy, config in zip(args.strategies, configs):
            traj = _decode_task(model, task, config)
            (out_dir / f"trajectory_{task.id}_{strategy}.json").write_text(traj.to_json())
            report = trajectory_metrics(traj, profile)
            trajs[strategy] = traj
            agg = aggregate[strategy]
            for column, name in COUNT_COLUMNS.items():
                row[f"{strategy}_{column}"] = getattr(report, name)
                agg[column] += getattr(report, name)
            agg["time"] += report.total_est_time_s
        for a, b in pairs:
            row[f"{b}/{a}"] = estimate_speedup(trajs[a], trajs[b], profile)
        table.append(row)

    agg_speedups = {
        f"{b}/{a}": (aggregate[a]["time"] / aggregate[b]["time"]) for a, b in pairs
    }
    payload = {
        "strategies": list(args.strategies),
        "profile": profile.to_dict(),
        "per_task": table,
        "aggregate": {
            "totals": aggregate,
            "speedups": agg_speedups,
        },
        "speedup_columns": speedup_cols,
    }
    _write_json(out_dir / "compare.json", payload)
    _write_rows_csv(out_dir / "compare.csv", table)
    return EXIT_OK


def cmd_roofline(args) -> int:
    tasks, model, (config,), profile, out_dir = _setup(args, [args.strategy])

    trajectories = {}
    summaries = {}
    for task in tasks:
        traj = _decode_task(model, task, config)
        trajectories[task.id] = traj
        summaries[task.id] = phase_summary(traj, profile)
    write_cost_csv(out_dir / "roofline.csv", trajectories, profile)
    _write_json(
        out_dir / "roofline_summary.json",
        {"profile": profile.to_dict(), "balance": profile.balance, "tasks": summaries},
    )
    return EXIT_OK


def cmd_gen_tasks(args) -> int:
    cfg = _load(ModelConfig, args.model_config, "model config")
    if args.count < 1 or args.prompt_len < 1:
        raise CliError("count and prompt-len must be positive", EXIT_USAGE)
    for flag, value in (("--eos-confidence", args.eos_confidence),
                        ("--fill-confidence", args.fill_confidence)):
        if not (math.isfinite(value) and 0.0 <= value <= 1.0):
            raise CliError(f"{flag} must be a finite confidence in [0, 1], got {value}", EXIT_PARSE)
    if args.schedule_out:
        if args.eos_offset is None:
            raise CliError("--schedule-out requires --eos-offset", EXIT_USAGE)
        if not (0 <= args.eos_offset < args.gen_length):
            raise CliError("--eos-offset must lie inside the generation window", EXIT_USAGE)
    rng = np.random.default_rng(args.seed)
    special = {cfg.mask_token_id, cfg.eos_token_id}
    ordinary = [t for t in range(cfg.vocab_size) if t not in special]
    if not ordinary:
        raise CliError(f"model config {args.model_config}: vocab_size {cfg.vocab_size} leaves "
                       "no token besides mask_token_id and eos_token_id", EXIT_PARSE)
    lines = []
    for i in range(args.count):
        prompt = rng.choice(ordinary, size=args.prompt_len, replace=True)
        lines.append(
            json.dumps(
                {
                    "id": f"task{i:03d}",
                    "prompt_tokens": [int(t) for t in prompt],
                    "note": f"seeded synthetic prompt {i}",
                },
                sort_keys=True,
            )
        )
    Path(args.out).write_text("\n".join(lines) + "\n")

    if args.schedule_out:
        positions = {}
        for off in range(args.gen_length):
            pos = args.prompt_len + off
            token = ordinary[(7 + 3 * off) % len(ordinary)]
            positions[str(pos)] = [int(token), args.fill_confidence]
        schedule = {
            "0": {
                "positions": positions,
                "eos": [[args.prompt_len + args.eos_offset, args.eos_confidence]],
            }
        }
        _write_json(Path(args.schedule_out), schedule)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockspec",
        description="Masked-diffusion block decoding harness with speculative jumps and roofline modeling.",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_strategy=True):
        p.add_argument("--model-config", required=True, help="model config JSON")
        p.add_argument("--scripted", help="scripted schedule JSON (replaces the toy model)")
        p.add_argument("--tasks", required=True, help="JSONL task file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--run-config", help="RunConfig JSON; a flag given overrides its key")
        if with_strategy:
            p.add_argument("--strategy", default="fast", choices=STRATEGIES)
        for f in RUN_FLAGS:  # the thresholds are floats, every other run flag an int
            kind = float if "float" in str(f.type) else int
            p.add_argument("--" + f.name.replace("_", "-"), type=kind,
                           help=f"default {LENGTH_DEFAULTS.get(f.name, f.default)}")

    p_run = sub.add_parser("run", help="decode every task under one strategy")
    common(p_run)
    p_run.add_argument("--profile", help="hardware profile JSON (enables cost outputs)")
    p_run.add_argument("--dump-mask", action="store_true",
                       help="dump dense attention masks as 0/1 CSV grids")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run several strategies and tabulate speedups")
    common(p_cmp, with_strategy=False)
    p_cmp.add_argument("--strategies", nargs="+", required=True)
    p_cmp.add_argument("--profile", required=True)
    p_cmp.set_defaults(func=cmd_compare)

    p_roof = sub.add_parser("roofline", help="per-step cost records and phase summary")
    common(p_roof)
    p_roof.add_argument("--profile", required=True)
    p_roof.set_defaults(func=cmd_roofline)

    p_gen = sub.add_parser("gen-tasks", help="generate seeded synthetic tasks (and optional schedules)")
    p_gen.add_argument("--model-config", required=True)
    p_gen.add_argument("--count", type=int, default=3)
    p_gen.add_argument("--prompt-len", type=int, default=16)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--gen-length", type=int, default=128)
    p_gen.add_argument("--eos-offset", type=int, default=None,
                       help="response offset of a scripted high-confidence EOS")
    p_gen.add_argument("--eos-confidence", type=float, default=0.99)
    p_gen.add_argument("--fill-confidence", type=float, default=0.95)
    p_gen.add_argument("--schedule-out", help="write a constant scripted schedule JSON")
    p_gen.set_defaults(func=cmd_gen_tasks)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except Exception as err:  # pragma: no cover - last-resort diagnostics
        print(f"internal error: {err!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
