"""Jump-share speculative decoding.

One speculative step batches the main block (tag 0) with a lattice of
candidate-subset blocks into a single forward, applies threshold acceptance
independently inside every block, then resolves an accept-jump chain over
the subset ladder {c1} -> {c1,c2} -> {c1,c2,c3} -> {c1,c2,c3,c4}:

* start at the largest ladder block whose full subset was accepted by the
  main block; failing that, at the best accepted singleton;
* keep jumping while the next ladder block's single missing candidate is
  accepted inside the current block's result.

Entering any non-main block counts as one jump and every chain hop adds one;
jumps feed the effective-NFE metric.  The singleton {c2} can join the ladder
through its one missing candidate; {c3} and {c4} are adoption fallbacks only
(their next ladder block misses two or more candidates).

A step sizes itself from the step before it, by ``spec_stage`` alone:
stage 1 recomputes every block position per speculative block on up to two
candidates; stage 2, once ``stage2_min_decoded`` block tokens are decoded,
speculates on up to four and keeps only still-masked rows in speculative
blocks, sharing the main block's decoded-row K/V with all of them via the
attention mask, so the batched forward itself realizes the decoded-share
strategy in exactly one model evaluation.

A step decides from [tags x masked positions] tables, with no per-block
lists:

* ``layout.spec_decision_rows`` gives every (tag, masked position) its
  query row in closed form from the layout's block order;
* the lattice's committed (tag, candidate) cells are built once per
  candidate count (``SpecSet.cells``);
* one greedy pass and one ``threshold_decide`` fill the accept table, and
  two array operations on it and the greedy tokens give the candidate-hit
  table that ``resolve_jump`` walks;
* only the adopted block becomes (position, token, confidence) lists.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cache import cache_view
from .decoder import (
    DecodeState,
    RunConfig,
    StepOutcome,
    decision_entries,
    masked_greedy,
    threshold_decide,
)
from .errors import ConfigError, NoCandidatesError, RangeError, ShapeError
from .layout import AttentionLayout, build_spec_layout, spec_decision_rows

# Candidates a speculative step takes at each stage.
STAGE_CANDIDATES = {1: 2, 2: 4}


def spec_stage(n_decoded: int, config: RunConfig) -> tuple[int, int]:
    """(stage, candidate budget) of a speculative step over a block with
    `n_decoded` decoded tokens: the one statement of the sizing rule, which
    ``spec_step`` and the CLI's mask dump follow."""
    stage = 2 if n_decoded >= config.stage2_min_decoded else 1
    return stage, STAGE_CANDIDATES[stage]


class Candidate(NamedTuple):
    position: int
    token: int
    confidence: float


# Top rejected entries, confidence descending (ties by position).
CandidateSet = tuple[Candidate, ...]


def select_candidates(outcome: StepOutcome, k: int) -> CandidateSet:
    """Pick up to k speculative candidates from a step's rejections.

    rejected_top is already confidence-sorted with position tiebreaks, so the
    head of the list is the candidate order c1..ck.
    """
    if k < 1:
        raise ConfigError(f"candidate budget must be positive, got {k}")
    if not outcome.rejected_top:
        raise NoCandidatesError("no rejected entries to speculate on")
    return tuple(Candidate(int(p), int(t), float(c)) for p, t, c in outcome.rejected_top[:k])


@functools.cache
def _lattice(m: int) -> tuple[tuple, np.ndarray, np.ndarray]:
    """The blocks of an m-candidate lattice and their (tag, ordinal - 1)
    cells; built once per candidate count."""
    blocks = [(1, (1,))]
    for j in range(2, m + 1):
        blocks += [(2 * j - 2, (j,)), (2 * j - 1, tuple(range(1, j + 1)))]
    cells = [(tag, j - 1) for tag, subset in blocks for j in subset]
    cells = np.array(cells, dtype=np.int64).T.copy()
    cells.setflags(write=False)
    return tuple(blocks), cells[0], cells[1]


@dataclass(frozen=True)
class SpecSet:
    """The lattice of speculative blocks evaluated in one forward.

    ``blocks`` lists (tag, subset) with subsets as 1-based candidate ordinals:
    {c1} is tag 1, then for each further candidate cj the singleton {cj} is
    tag 2j-2 and the prefix {c1..cj} is tag 2j-1; the stage sets only the
    rows a block holds (``build_spec_layout``).  The main block (empty
    subset, tag 0) is implicit.
    """

    stage: int
    candidates: tuple[Candidate, ...]
    blocks: tuple[tuple[int, tuple[int, ...]], ...]

    @classmethod
    def build(cls, candidate_set: CandidateSet, stage: int) -> "SpecSet":
        if not candidate_set:
            raise NoCandidatesError("cannot build a speculative set without candidates")
        if stage not in (1, 2):
            raise RangeError(f"stage must be 1 or 2, got {stage}")
        return cls(stage=stage, candidates=candidate_set, blocks=_lattice(len(candidate_set))[0])

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def cells(self) -> tuple[np.ndarray, np.ndarray]:
        """(tag, ordinal - 1) of every candidate a speculative block commits,
        as two parallel int64 arrays in block order."""
        return _lattice(len(self.candidates))[1:]


def resolve_jump(hit, spec_set: SpecSet) -> tuple[int, int]:
    """Ladder resolution over a step's candidate-hit table.

    ``hit[tag][j - 1]`` is true when block `tag`'s threshold acceptance
    unmasked candidate j's position to candidate j's exact token.  The walk
    tracks the ladder rung j, i.e. the prefix block {c1..cj} (tag 2j-1).
    Returns (adopted tag, jump count).
    """
    m = len(spec_set.candidates)
    j = 0
    while j < m and hit[0][j]:
        j += 1
    jumps = 1
    if j == 0:
        single = next((i for i in range(2, m + 1) if hit[0][i - 1]), None)
        if single is None:
            return 0, 0
        # only {c2} (tag 2) reaches the ladder, through its one missing c1
        if single > 2 or not hit[2][0]:
            return 2 * single - 2, 1
        j, jumps = 2, 2
    while j < m and hit[2 * j - 1][j]:
        j += 1
        jumps += 1
    return 2 * j - 1, jumps


def _candidate_columns(candidates: CandidateSet, masked: np.ndarray, mask_token_id: int,
                       vocab_size: int) -> np.ndarray:
    """Column of each candidate among the masked positions.

    A candidate must sit at a masked position that no other candidate holds
    and carry a vocab token other than the mask token; anything else would
    waste the speculation, so it raises RangeError naming the candidate.
    """
    column = {p: i for i, p in enumerate(masked.tolist())}
    seen = set()
    for j, cand in enumerate(candidates, 1):
        if cand.position not in column:
            problem = "position is not masked"
        elif cand.position in seen:
            problem = "another candidate holds the position"
        elif cand.token == mask_token_id:
            problem = "token is the mask token"
        elif not 0 <= cand.token < vocab_size:
            problem = f"token outside vocab [0, {vocab_size})"
        else:
            seen.add(cand.position)
            continue
        raise RangeError(f"candidate c{j} (position {cand.position}, token {cand.token}): {problem}")
    return np.array([column[c.position] for c in candidates], dtype=np.int64)


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a is b or np.array_equal(a, b)


def spec_step(
    model,
    state: DecodeState,
    cache,
    previous: StepOutcome,
    config: RunConfig,
    *,
    step: int = 0,
) -> tuple[StepOutcome, AttentionLayout]:
    """One batched speculative forward plus jump resolution, sized from the
    step before it.

    ``spec_stage`` gives the stage and the budget of `previous`'s top
    rejections taken as candidates.  Counts as a single model evaluation;
    blocks_evaluated reports the lattice width.  The adopted block's
    candidate subset plus its own threshold acceptances become the step's
    accepted set.  Returns the outcome and the layout of the forward, whose
    query and key counts are the step's cost.
    `cache` must be the active block's, else StaleCacheError.
    """
    block_range = state.block_range()
    start, end = block_range
    # every block position is masked or decoded, so one comparison gives both
    masked_flags = state.tokens[start:end] == state.mask_token_id
    masked_abs = masked_flags.nonzero()[0] + start
    stage, budget = spec_stage(masked_flags.size - masked_abs.size, config)
    spec_set = SpecSet.build(select_candidates(previous, budget), stage)
    cand_cols = _candidate_columns(spec_set.candidates, masked_abs, state.mask_token_id,
                                   model.config.vocab_size)

    view = cache_view(cache, block_range)
    if stage == 1:
        layout = view.stage1_layout(spec_set)
    else:
        decoded_abs = (~masked_flags).nonzero()[0] + start
        layout = build_spec_layout(block_range, spec_set, decoded_abs, view.positions)

    # The decision table: row `tag` holds that block's query row for every
    # masked position (tags run 0..n_blocks).  A block's candidate cells are
    # committed, not decided: they are invalid, and their rows read the
    # candidate tokens; every other row reads the current token.
    table = spec_decision_rows(block_range, spec_set, masked_abs)
    cand_tokens = np.array([c.token for c in spec_set.candidates], dtype=np.int64)
    cell_tags, cell_ordinals = spec_set.cells
    cell_cols = cand_cols[cell_ordinals]
    valid = np.ones(table.shape, dtype=bool)
    valid[cell_tags, cell_cols] = False
    tokens = state.tokens[layout.query_positions]
    tokens[table[cell_tags, cell_cols]] = cand_tokens[cell_ordinals]

    logits, _ = model.forward(tokens, layout, view, step=step)
    # the models hand the layout's own arrays through, so identity settles
    # the check without comparing
    if not (_same(logits.positions, layout.query_positions)
            and _same(logits.tags, layout.query_tags)):
        raise ShapeError("forward rows differ from the speculative layout's query rows")

    greedy_tokens, greedy_confs = masked_greedy(logits, state.mask_token_id, table.ravel())
    greedy_tokens = greedy_tokens.reshape(table.shape)
    greedy_confs = greedy_confs.reshape(table.shape)
    accept = threshold_decide(greedy_confs, config.accept_threshold, valid)
    hit = accept[:, cand_cols] & (greedy_tokens[:, cand_cols] == cand_tokens)
    adopted_tag, jump_count = resolve_jump(hit.tolist(), spec_set)

    # Lists only for the adopted block: its committed candidates merge with
    # its acceptances by position.  The merge runs in float64, which holds a
    # float32 confidence and a hand-built candidate's confidence exactly.
    subset = cell_ordinals[cell_tags == adopted_tag]
    committed = cand_cols[subset]
    merged_tokens = greedy_tokens[adopted_tag].copy()
    merged_tokens[committed] = cand_tokens[subset]
    merged_confs = greedy_confs[adopted_tag].astype(np.float64)
    merged_confs[committed] = [spec_set.candidates[i].confidence for i in subset.tolist()]
    taken = accept[adopted_tag].copy()
    taken[committed] = True
    outcome = StepOutcome(
        accepted=decision_entries(masked_abs, merged_tokens, merged_confs, taken),
        rejected_top=decision_entries(
            masked_abs, greedy_tokens[adopted_tag], greedy_confs[adopted_tag], ~taken,
            ranked=True,
        ),
        jump_count=jump_count,
        adopted_tag=adopted_tag,
        stage=stage,
        blocks_evaluated=1 + spec_set.n_blocks,
        candidates=list(spec_set.candidates),
    )
    return outcome, layout
