"""Benchmark workloads and their seeded inputs.

Every input is drawn from the workload seed alone, so the same seed gives
the same prompts, schedules and therefore the same trajectories.  The
program under test only ever receives the generated prompts and models.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import blockspec

BLOCK_SIZE = 32
PROMPT_LEN_RANGE = (8, 48)          # prompt lengths vary per request within [lo, hi)

# Scripted confidence schedule: each position starts from a Beta draw and
# rises by a per-position step, so a candidate rejected at step k usually
# clears the 0.9 threshold at step k + 1 (which is what makes jumps happen).
SCRIPTED_START_BETA = (2.0, 5.0)
SCRIPTED_START_SCALE = 0.8
SCRIPTED_RISE_RANGE = (0.08, 0.2)
SCRIPTED_CONF_CAP = 0.99
SCRIPTED_EOS_CONF_RANGE = (0.93, 0.99)


@dataclass(frozen=True)
class Workload:
    name: str
    model: str                       # "toy" | "scripted"
    strategy: str
    gen_length: int
    pool: int                        # distinct requests per seed; one pass sends each once
    # Calibration weight of the numpy kernel: the share of request time in
    # numpy-bound forwards for toy models.  The scripted forward is itself
    # interpreter-bound; its calibration tracked the host best at 0.25.
    numpy_share: float
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "toy-fast", "toy", "fast", 256, 6, 0.87,
            "toy model, fast, gen 256: cached block forwards plus one refresh per "
            "block; model does most work, speculative and alp none",
        ),
        Workload(
            "toy-odb", "toy", "odb", 256, 8, 0.77,
            "toy model, odb, gen 256: stage-1/2 speculative forwards over "
            "block-diagonal masks dominate; ALP scans but never cuts",
        ),
        Workload(
            "scripted-odb", "scripted", "odb", 256, 48, 0.25,
            "scripted model, odb: confidences cross the threshold so jumps and ALP "
            "cuts happen; decoder and speculative overhead dominate",
        ),
        Workload(
            "toy-vanilla", "toy", "vanilla", 128, 8, 0.9,
            "toy model, vanilla, gen 128: full-sequence forwards with no cache; "
            "the separate vanilla loop and the only run where cache does nothing",
        ),
    )
}


@dataclass
class Request:
    index: int                       # position in the seeded pool
    prompt: tuple[int, ...]
    model: object
    config: blockspec.RunConfig


@dataclass
class Setup:
    workload: Workload
    model_config: blockspec.ModelConfig
    requests: list[Request]
    warmup: str


def ordinary_tokens(cfg: blockspec.ModelConfig) -> np.ndarray:
    special = {cfg.mask_token_id, cfg.eos_token_id}
    return np.asarray([t for t in range(cfg.vocab_size) if t not in special], dtype=np.int64)


def grid(rng: np.random.Generator, lo: int, hi: int, count: int) -> list[int]:
    """`count` evenly spaced values across [lo, hi), in seeded order.

    Prompt lengths and EOS offsets vary inside a pool, but their spread,
    which latency follows most, is the same for every seed; the seed draws
    the order, the tokens and the confidences.
    """
    values = [int(lo + (hi - lo) * (i + 0.5) / count) for i in range(count)]
    return [values[i] for i in rng.permutation(count)]


def draw_prompt(rng: np.random.Generator, cfg: blockspec.ModelConfig, length: int) -> tuple[int, ...]:
    return tuple(int(t) for t in rng.choice(ordinary_tokens(cfg), size=length))


def toy_prompts(seed: int, cfg: blockspec.ModelConfig, count: int) -> list[tuple[int, ...]]:
    """Seeded toy prompts of varied length."""
    rng = np.random.default_rng([seed, 0])
    return [draw_prompt(rng, cfg, n) for n in grid(rng, *PROMPT_LEN_RANGE, count)]


def scripted_schedule(
    rng: np.random.Generator,
    cfg: blockspec.ModelConfig,
    prompt_len: int,
    gen_length: int,
    eos_offset: int,
    truncate_threshold: float = 0.9,
) -> blockspec.ScriptedSchedule:
    """One request's rising-confidence schedule.

    Each response position keeps one fixed ordinary token at every step; its
    confidence starts at ``scale * Beta(a, b)`` and rises by a per-position
    step until it is capped.  Step 0 also carries one confident EOS (above
    ``truncate_threshold``) at response offset ``eos_offset``, so the first
    refresh truncates the length when the offset lies beyond the first
    block.  The schedule is long enough
    that its last step, which later steps repeat, clears the threshold
    everywhere.
    """
    ordinary = ordinary_tokens(cfg)
    tokens = rng.choice(ordinary, size=gen_length)
    start = SCRIPTED_START_SCALE * rng.beta(*SCRIPTED_START_BETA, size=gen_length)
    rise = rng.uniform(*SCRIPTED_RISE_RANGE, size=gen_length)
    eos_conf = float(rng.uniform(*SCRIPTED_EOS_CONF_RANGE))
    if not eos_conf > truncate_threshold:
        raise ValueError("scripted EOS confidence must clear the truncate threshold")
    n_steps = int(math.ceil(float(np.max((SCRIPTED_CONF_CAP - start) / rise)))) + 1
    positions = [prompt_len + off for off in range(gen_length)]
    steps = []
    for k in range(n_steps):
        conf = np.minimum(start + k * rise, SCRIPTED_CONF_CAP)
        steps.append(
            {p: (int(t), float(c)) for p, t, c in zip(positions, tokens, conf)}
        )
    steps[0][prompt_len + eos_offset] = (cfg.eos_token_id, eos_conf)
    return blockspec.ScriptedSchedule(
        steps=steps,
        vocab_size=cfg.vocab_size,
        mask_token_id=cfg.mask_token_id,
        eos_token_id=cfg.eos_token_id,
    )


def build_requests(workload: Workload, seed: int, cfg: blockspec.ModelConfig) -> list[Request]:
    run_cfg = blockspec.RunConfig(
        strategy=workload.strategy,
        gen_length=workload.gen_length,
        block_size=BLOCK_SIZE,
    )
    if workload.model == "toy":
        model = blockspec.ToyModel(cfg)
        return [
            Request(i, prompt, model, run_cfg)
            for i, prompt in enumerate(toy_prompts(seed, cfg, workload.pool))
        ]
    rng = np.random.default_rng([seed, 1])
    lengths = grid(rng, *PROMPT_LEN_RANGE, workload.pool)
    eos_offsets = grid(rng, 2 * BLOCK_SIZE, workload.gen_length - BLOCK_SIZE, workload.pool)
    requests = []
    for i, (length, eos_offset) in enumerate(zip(lengths, eos_offsets)):
        prompt = draw_prompt(rng, cfg, length)
        schedule = scripted_schedule(
            rng, cfg, length, workload.gen_length, eos_offset, run_cfg.truncate_threshold
        )
        requests.append(Request(i, prompt, blockspec.ScriptedModel(cfg, schedule), run_cfg))
    return requests


def with_strategy(request: Request, strategy: str, gen_length: int | None = None) -> Request:
    cfg = request.config
    run_cfg = blockspec.RunConfig(
        strategy=strategy,
        gen_length=cfg.gen_length if gen_length is None else gen_length,
        block_size=cfg.block_size,
        accept_threshold=cfg.accept_threshold,
        truncate_threshold=cfg.truncate_threshold,
    )
    return Request(request.index, request.prompt, request.model, run_cfg)


def warm_up(requests: list[Request], strategy: str) -> str:
    """Run every code path of `strategy` once before timing.

    Toy requests decode the first prompt at two blocks (refresh, block and
    both speculative stages all occur there); scripted requests decode the
    first three requests in full, they are cheap.
    """
    if isinstance(requests[0].model, blockspec.ToyModel):
        req = with_strategy(requests[0], strategy, gen_length=2 * BLOCK_SIZE)
        blockspec.decode(req.model, req.prompt, req.config).to_json()
        return f"1 decode of pool[0], {strategy}, gen {2 * BLOCK_SIZE}"
    for req in requests[:3]:
        req = with_strategy(req, strategy)
        blockspec.decode(req.model, req.prompt, req.config).to_json()
    return f"3 full decodes of pool[0:3], {strategy}"


def setup(workload: Workload, seed: int, root: Path) -> tuple[Setup, float]:
    """Model construction, input generation and warm-up; returns the set-up
    and its wall time in seconds."""
    t0 = time.perf_counter()
    cfg = blockspec.ModelConfig.from_json(root / "configs" / "toy_model.json")
    requests = build_requests(workload, seed, cfg)
    warmup = warm_up(requests, workload.strategy)
    elapsed = time.perf_counter() - t0
    return Setup(workload, cfg, requests, warmup), elapsed
