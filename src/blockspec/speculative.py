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

Stage 1 recomputes every block position per speculative block.  Stage 2
(entered once enough of the block is decoded) keeps only still-masked rows
in speculative blocks and shares the main block's decoded-row K/V with all
of them via the attention mask, so the batched forward itself realizes the
decoded-share strategy in exactly one model evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .layout import build_spec_layout
from .model import RowIndex


@dataclass(frozen=True)
class Candidate:
    position: int
    token: int
    confidence: float


@dataclass(frozen=True)
class CandidateSet:
    """Top rejected entries, confidence descending (ties by position)."""

    candidates: tuple[Candidate, ...]

    def __len__(self) -> int:
        return len(self.candidates)

    def __getitem__(self, i: int) -> Candidate:
        return self.candidates[i]


def select_candidates(outcome: StepOutcome, k: int) -> CandidateSet:
    """Pick up to k speculative candidates from a step's rejections.

    rejected_top is already confidence-sorted with position tiebreaks, so the
    head of the list is the candidate order c1..ck.
    """
    if k not in (2, 4):
        raise ConfigError(f"candidate budget must be 2 or 4, got {k}")
    if not outcome.rejected_top:
        raise NoCandidatesError("no rejected entries to speculate on")
    picked = outcome.rejected_top[: k]
    return CandidateSet(
        candidates=tuple(Candidate(int(p), int(t), float(c)) for p, t, c in picked)
    )


@dataclass(frozen=True)
class SpecSet:
    """The lattice of speculative blocks evaluated in one forward.

    ``blocks`` lists (tag, subset) with subsets as 1-based candidate ordinals:
    {c1} is tag 1, then for each further candidate cj the singleton {cj} is
    tag 2j-2 and the prefix {c1..cj} is tag 2j-1.  Two candidates give the
    3-block stage-1 lattice; four give the 7-block stage-2 lattice.  The main
    block (empty subset, tag 0) is implicit.
    """

    stage: int
    candidates: tuple[Candidate, ...]
    blocks: tuple[tuple[int, tuple[int, ...]], ...]

    @classmethod
    def build(cls, candidate_set: CandidateSet, stage: int) -> "SpecSet":
        m = len(candidate_set)
        if m == 0:
            raise NoCandidatesError("cannot build a speculative set without candidates")
        limit = 2 if stage == 1 else 4
        if m > limit:
            raise ConfigError(f"stage {stage} allows at most {limit} candidates, got {m}")
        blocks = [(1, (1,))]
        for j in range(2, m + 1):
            blocks += [(2 * j - 2, (j,)), (2 * j - 1, tuple(range(1, j + 1)))]
        return cls(stage=stage, candidates=candidate_set.candidates, blocks=tuple(blocks))

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def subset_of(self, tag: int) -> tuple[int, ...]:
        if tag == 0:
            return ()
        if not 1 <= tag <= len(self.blocks):
            raise RangeError(f"no speculative block with tag {tag}")
        return self.blocks[tag - 1][1]


def resolve_jump(block_results: dict[int, StepOutcome], spec_set: SpecSet) -> tuple[int, int]:
    """Ladder resolution over per-block threshold outcomes.

    A candidate is "accepted in block X" when X's threshold acceptance
    unmasked the candidate's position to the candidate's exact token.  The
    walk tracks the ladder rung j, i.e. the prefix block {c1..cj} (tag 2j-1).
    Returns (adopted tag, jump count).
    """
    m = len(spec_set.candidates)

    def accepted_in(tag: int, ordinal: int) -> bool:
        cand = spec_set.candidates[ordinal - 1]
        return any(
            p == cand.position and t == cand.token
            for p, t, _ in block_results[tag].accepted
        )

    j = 0
    while j < m and accepted_in(0, j + 1):
        j += 1
    jumps = 1
    if j == 0:
        single = next((i for i in range(2, m + 1) if accepted_in(0, i)), None)
        if single is None:
            return 0, 0
        # only {c2} (tag 2) reaches the ladder, through its one missing c1
        if single > 2 or not accepted_in(2, 1):
            return 2 * single - 2, 1
        j, jumps = 2, 2
    while j < m and accepted_in(2 * j - 1, j + 1):
        j += 1
        jumps += 1
    return 2 * j - 1, jumps


def spec_step(
    model,
    state: DecodeState,
    cache,
    candidates: CandidateSet,
    stage: int,
    config: RunConfig,
    *,
    epoch: int,
    step: int = 0,
) -> tuple[StepOutcome, int, int]:
    """One batched speculative forward plus jump resolution.

    Counts as a single model evaluation; blocks_evaluated reports the lattice
    width.  The adopted block's candidate subset plus its own threshold
    acceptances become the step's accepted set.  Returns (outcome, query
    rows, context+query key count) for cost accounting.
    """
    if len(candidates) == 0:
        raise NoCandidatesError("speculative step needs at least one candidate")
    block_range = state.block_range()
    masked_abs = state.block_masked_positions()
    decoded_abs = state.block_decoded_positions()
    column = {p: i for i, p in enumerate(masked_abs.tolist())}
    for cand in candidates.candidates:
        if cand.position not in column:
            raise RangeError(f"candidate position {cand.position} is not masked")
    if stage == 2 and decoded_abs.size < config.stage2_threshold:
        raise RangeError(
            f"stage 2 needs >= {config.stage2_threshold} decoded tokens, have {decoded_abs.size}"
        )

    spec_set = SpecSet.build(candidates, stage)
    view = cache_view(cache, epoch=epoch)
    layout = build_spec_layout(block_range, spec_set, stage, decoded_abs, view.position_ids)

    # The decision table: row `tag` holds that block's query row for every
    # masked position (tags run 0..n_blocks).  A block's candidate cells are
    # committed, not decided: they are invalid, and their rows read the
    # candidate tokens; every other row reads the current token.
    query_positions = np.asarray(layout.query_positions)
    query_tags = np.asarray(layout.query_tags)
    n_tags = 1 + spec_set.n_blocks
    table = RowIndex(query_positions, query_tags).rows(masked_abs, np.arange(n_tags)[:, None])
    cell_tags, cell_cols, cell_tokens = zip(*(
        (tag, column[c.position], c.token)
        for tag, subset in spec_set.blocks
        for c in (spec_set.candidates[j - 1] for j in subset)
    ))
    valid = np.ones(table.shape, dtype=bool)
    valid[cell_tags, cell_cols] = False
    tokens = state.tokens[query_positions]
    tokens[table[cell_tags, cell_cols]] = cell_tokens

    logits, _ = model.forward(tokens, layout, view, step=step)
    if not (logits.n_rows == layout.n_queries and (logits.positions == query_positions).all()
            and (logits.tags == query_tags).all()):
        raise ShapeError("forward rows differ from the speculative layout's query rows")

    greedy_tokens, greedy_confs = masked_greedy(logits, state.mask_token_id, table.ravel())
    greedy_tokens = greedy_tokens.reshape(table.shape)
    greedy_confs = greedy_confs.reshape(table.shape)
    accept = threshold_decide(greedy_confs, config.accept_threshold, valid)
    results = {tag: StepOutcome(accepted=[], rejected_top=[]) for tag in range(n_tags)}
    hit_tags, hit_cols = np.nonzero(accept)
    hits = zip(
        masked_abs[hit_cols].tolist(),
        greedy_tokens[hit_tags, hit_cols].tolist(),
        greedy_confs[hit_tags, hit_cols].tolist(),
    )
    for tag, entry in zip(hit_tags.tolist(), hits):
        results[tag].accepted.append(entry)
    adopted_tag, jump_count = resolve_jump(results, spec_set)
    subset = spec_set.subset_of(adopted_tag)
    committed = [
        (c.position, c.token, c.confidence)
        for c in (spec_set.candidates[j - 1] for j in subset)
    ]
    accepted_all = sorted(committed + results[adopted_tag].accepted, key=lambda e: e[0])
    rejected = valid[adopted_tag] & ~accept[adopted_tag]
    outcome = StepOutcome(
        accepted=accepted_all,
        rejected_top=decision_entries(
            masked_abs, greedy_tokens[adopted_tag], greedy_confs[adopted_tag], rejected,
            ranked=True,
        ),
        jump_count=jump_count,
        adopted_tag=adopted_tag,
        stage=stage,
        blocks_evaluated=1 + spec_set.n_blocks,
        candidates=[(c.position, c.token, c.confidence) for c in spec_set.candidates],
    )
    t_rows = layout.n_queries
    c_keys = view.size + t_rows
    return outcome, t_rows, c_keys
