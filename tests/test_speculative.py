from collections import Counter

import numpy as np
import pytest

import blockspec.cache
import blockspec.layout
import blockspec.speculative
import reference_decide
from blockspec import (
    ConfigError,
    LogitsView,
    NoCandidatesError,
    RangeError,
    RunConfig,
    ScriptedModel,
    ScriptedSchedule,
    ShapeError,
    StaleCacheError,
    decode,
)
from blockspec.cache import refresh_dual_cache
from blockspec.decoder import StepOutcome
from blockspec.speculative import (
    Candidate,
    STAGE_CANDIDATES,
    CandidateSet,
    SpecSet,
    resolve_jump,
    select_candidates,
    spec_stage,
    spec_step,
)

from conftest import block_decoded_positions, hit_table, random_state, same_step, subset_of


def cands(n, base_pos=100):
    return CandidateSet(tuple(
        Candidate(base_pos + i, 10 + i, 0.9 - 0.1 * i) for i in range(n)
    ))


def rejecting(candidates):
    """A previous step whose rejections, in order, are `candidates`."""
    return StepOutcome(accepted=[], rejected_top=list(candidates))


def outcome_accepting(spec_set, ordinals):
    """StepOutcome whose accepted list contains exactly those candidates."""
    acc = [
        (spec_set.candidates[j - 1].position, spec_set.candidates[j - 1].token, 0.95)
        for j in ordinals
    ]
    return StepOutcome(accepted=acc, rejected_top=[])


# --- candidate selection --------------------------------------------------------

def test_select_candidates_from_rejections():
    outcome = StepOutcome(
        accepted=[], rejected_top=[(4, 7, 0.88), (3, 8, 0.50), (1, 9, 0.30)]
    )
    cset = select_candidates(outcome, 2)
    assert len(cset) == 2
    assert (cset[0].position, cset[0].confidence) == (4, 0.88)
    assert (cset[1].position, cset[1].confidence) == (3, 0.50)


def test_select_candidates_degenerates_with_few_rejections():
    outcome = StepOutcome(accepted=[], rejected_top=[(4, 7, 0.88)])
    cset = select_candidates(outcome, 2)
    assert len(cset) == 1


def test_select_candidates_tie_prefers_lower_position():
    outcome = StepOutcome(
        accepted=[], rejected_top=[(5, 7, 0.70), (9, 8, 0.70)]
    )
    cset = select_candidates(outcome, 2)
    assert cset[0].position == 5


def test_select_candidates_requires_rejections_and_a_positive_budget():
    """Any budget k >= 1 picks the head k rejections; the budgets a stage
    takes are spec_stage's to choose."""
    with pytest.raises(NoCandidatesError):
        select_candidates(StepOutcome(accepted=[], rejected_top=[]), 2)
    outcome = StepOutcome(accepted=[], rejected_top=[(p, 2, 0.5 - 0.1 * p) for p in range(5)])
    for k in (0, -1):
        with pytest.raises(ConfigError, match=f"got {k}"):
            select_candidates(outcome, k)
    for k in (1, 3, 5, 6):
        assert [c.position for c in select_candidates(outcome, k)] == list(range(min(k, 5)))


@pytest.mark.parametrize("block_size,stage2_min_decoded", [(32, None), (32, 1), (32, 16), (4, 4), (1, 1)])
def test_spec_stage_takes_stage_2_from_the_threshold(block_size, stage2_min_decoded):
    config = RunConfig("odb", 2 * block_size, block_size, stage2_min_decoded=stage2_min_decoded)
    for n_decoded in range(block_size):
        stage = 2 if n_decoded >= config.stage2_min_decoded else 1
        assert spec_stage(n_decoded, config) == (stage, STAGE_CANDIDATES[stage])


# --- spec set lattice --------------------------------------------------------------

def test_spec_set_stage1_lattice():
    spec = SpecSet.build(cands(2), stage=1)
    assert [(t, s) for t, s in spec.blocks] == [(1, (1,)), (2, (2,)), (3, (1, 2))]


def test_spec_set_stage2_lattice():
    spec = SpecSet.build(cands(4), stage=2)
    assert [(t, s) for t, s in spec.blocks] == [
        (1, (1,)), (2, (2,)), (3, (1, 2)),
        (4, (3,)), (5, (1, 2, 3)),
        (6, (4,)), (7, (1, 2, 3, 4)),
    ]


def test_spec_set_checks_the_stage_not_the_candidate_count():
    """The lattice follows the candidate count at either stage; the stage
    sets only the layout's rows."""
    for m, n_blocks in ((1, 1), (3, 5), (4, 7), (5, 9)):
        for stage in (1, 2):
            spec = SpecSet.build(cands(m), stage=stage)
            assert (spec.stage, spec.n_blocks) == (stage, n_blocks)
    for stage in (0, 3):
        with pytest.raises(RangeError, match=f"got {stage}"):
            SpecSet.build(cands(1), stage=stage)


# --- resolve_jump: pinned branches ---------------------------------------------------

def test_jump_both_candidates_accepted_adopts_pair_block():
    spec = SpecSet.build(cands(2), stage=1)
    results = {t: outcome_accepting(spec, []) for t in (1, 2, 3)}
    results[0] = outcome_accepting(spec, [1, 2])
    tag, jumps = resolve_jump(hit_table(results, spec), spec)
    assert subset_of(spec, tag) == (1, 2)
    assert jumps == 1


def test_jump_chain_verification_reaches_pair_block():
    spec = SpecSet.build(cands(2), stage=1)
    results = {0: outcome_accepting(spec, [1]),
               1: outcome_accepting(spec, [2]),   # c2 verified inside {c1}
               2: outcome_accepting(spec, []),
               3: outcome_accepting(spec, [])}
    tag, jumps = resolve_jump(hit_table(results, spec), spec)
    assert subset_of(spec, tag) == (1, 2)
    assert jumps == 2


def test_jump_chain_failure_adopts_singleton():
    spec = SpecSet.build(cands(2), stage=1)
    results = {0: outcome_accepting(spec, [1]),
               1: outcome_accepting(spec, []),    # c2 rejected inside {c1}
               2: outcome_accepting(spec, []),
               3: outcome_accepting(spec, [])}
    tag, jumps = resolve_jump(hit_table(results, spec), spec)
    assert subset_of(spec, tag) == (1,)
    assert jumps == 1


def test_jump_nothing_accepted_stays_on_main_block():
    spec = SpecSet.build(cands(2), stage=1)
    results = {t: outcome_accepting(spec, []) for t in (0, 1, 2, 3)}
    assert resolve_jump(hit_table(results, spec), spec) == (0, 0)


def test_jump_second_singleton_can_chain_up():
    spec = SpecSet.build(cands(2), stage=1)
    results = {0: outcome_accepting(spec, [2]),
               1: outcome_accepting(spec, []),
               2: outcome_accepting(spec, [1]),   # c1 verified inside {c2}
               3: outcome_accepting(spec, [])}
    tag, jumps = resolve_jump(hit_table(results, spec), spec)
    assert subset_of(spec, tag) == (1, 2)
    assert jumps == 2


def test_jump_third_singleton_is_fallback_only():
    spec = SpecSet.build(cands(4), stage=2)
    results = {t: outcome_accepting(spec, []) for t in range(8)}
    results[0] = outcome_accepting(spec, [3])
    results[4] = outcome_accepting(spec, [1, 2, 4])  # irrelevant: cannot chain
    tag, jumps = resolve_jump(hit_table(results, spec), spec)
    assert subset_of(spec, tag) == (3,)
    assert jumps == 1


def test_jump_full_ladder_walk():
    spec = SpecSet.build(cands(4), stage=2)
    results = {t: outcome_accepting(spec, []) for t in range(8)}
    results[0] = outcome_accepting(spec, [1])
    results[1] = outcome_accepting(spec, [2])
    results[3] = outcome_accepting(spec, [3])
    results[5] = outcome_accepting(spec, [4])
    tag, jumps = resolve_jump(hit_table(results, spec), spec)
    assert subset_of(spec, tag) == (1, 2, 3, 4)
    assert jumps == 4


# --- resolve_jump: brute-force oracle ------------------------------------------------

def oracle_two_candidate_cases(accepted):
    """Literal two-candidate case analysis: both unmasked in the main block
    jumps straight to the pair block; one unmasked moves to its singleton and
    verifies the other there; chain failure adopts the singleton."""
    a0 = accepted[frozenset()]
    if 1 in a0 and 2 in a0:
        return frozenset({1, 2}), 1
    if 1 in a0:
        if 2 in accepted[frozenset({1})]:
            return frozenset({1, 2}), 2
        return frozenset({1}), 1
    if 2 in a0:
        if 1 in accepted[frozenset({2})]:
            return frozenset({1, 2}), 2
        return frozenset({2}), 1
    return frozenset(), 0


def oracle_chain_enumeration(accepted, subsets, m):
    """Path enumerator over the prepared blocks.

    Start: longest prefix fully inside the main block's acceptances, else the
    best accepted singleton, else the main block.  Hops: any prepared prefix
    strictly containing the current subset with exactly one missing ordinal
    that the current block's result accepted; asserts the hop target is
    unique whenever one exists.
    """
    prefixes = [frozenset(range(1, j + 1)) for j in range(1, m + 1)
                if frozenset(range(1, j + 1)) in subsets]
    a0 = accepted[frozenset()]
    start = None
    for p in sorted(prefixes, key=len, reverse=True):
        if p <= a0:
            start = p
            break
    if start is None:
        for i in range(2, m + 1):
            if frozenset({i}) in subsets and i in a0:
                start = frozenset({i})
                break
    if start is None:
        return frozenset(), 0
    cur, jumps = start, 1
    while True:
        hops = []
        for p in prefixes:
            if cur < p and len(p - cur) == 1 and next(iter(p - cur)) in accepted[cur]:
                hops.append(p)
        if not hops:
            break
        assert len(hops) == 1, "hop target must be unique"
        cur = hops[0]
        jumps += 1
    return cur, jumps


def test_resolve_jump_matches_oracles_exhaustively():
    """Randomized acceptance patterns over 1, 2, 3 and 4 candidates; the
    ladder walk must agree with the enumerating oracle (and for two
    candidates with the literal case analysis), jump counts included."""
    rng = np.random.default_rng(1234)
    branch_seen = {"direct_pair": 0, "chain_pair": 0, "chain_fail": 0}
    for trial in range(10_000):
        m = int(rng.choice([1, 2, 2, 3, 4, 4]))
        stage = 1 if m <= 2 else 2
        spec = SpecSet.build(cands(m), stage=stage)
        subsets = {frozenset(s) for _, s in spec.blocks}
        accept_by_subset = {frozenset(): set()}
        results = {}
        # random acceptance pattern per block
        a0 = {j for j in range(1, m + 1) if rng.random() < 0.45}
        accept_by_subset[frozenset()] = a0
        results[0] = outcome_accepting(spec, sorted(a0))
        for tag, subset in spec.blocks:
            inside = {j for j in range(1, m + 1)
                      if j not in subset and rng.random() < 0.45}
            accept_by_subset[frozenset(subset)] = inside
            results[tag] = outcome_accepting(spec, sorted(inside))

        got_tag, got_jumps = resolve_jump(hit_table(results, spec), spec)
        got_subset = frozenset(subset_of(spec, got_tag))

        want_subset, want_jumps = oracle_chain_enumeration(
            accept_by_subset, subsets, m
        )
        assert (got_subset, got_jumps) == (want_subset, want_jumps), (
            f"trial {trial}: m={m} a0={sorted(a0)} "
            f"got {sorted(got_subset), got_jumps} want {sorted(want_subset), want_jumps}"
        )
        if m == 2:
            case_subset, case_jumps = oracle_two_candidate_cases(accept_by_subset)
            assert (got_subset, got_jumps) == (case_subset, case_jumps)
            if got_subset == {1, 2} and got_jumps == 1:
                branch_seen["direct_pair"] += 1
            elif got_subset == {1, 2} and got_jumps == 2 and 1 in a0:
                branch_seen["chain_pair"] += 1
            elif got_subset == {1} and got_jumps == 1:
                branch_seen["chain_fail"] += 1
    assert all(v > 0 for v in branch_seen.values()), branch_seen


def test_adopted_subset_is_consistent_with_verifications():
    """The adopted subset is covered by the main block's acceptances plus
    candidates verified along the chain."""
    rng = np.random.default_rng(99)
    for _ in range(2000):
        m = int(rng.choice([2, 4]))
        spec = SpecSet.build(cands(m), stage=1 if m == 2 else 2)
        results = {}
        verified = {}
        a0 = {j for j in range(1, m + 1) if rng.random() < 0.5}
        results[0] = outcome_accepting(spec, sorted(a0))
        for tag, subset in spec.blocks:
            inside = {j for j in range(1, m + 1)
                      if j not in subset and rng.random() < 0.5}
            verified[tag] = inside
            results[tag] = outcome_accepting(spec, sorted(inside))
        tag, _ = resolve_jump(hit_table(results, spec), spec)
        subset = set(subset_of(spec, tag))
        reachable = set(a0)
        for t, inside in verified.items():
            reachable |= inside
        assert subset <= reachable | a0


# --- spec_step integration ------------------------------------------------------------

def _below_threshold_model(toy_config, span, conf=0.5):
    entry = {p: (10 + (p % 50), conf - 0.001 * (p % 32)) for p in span}
    sched = ScriptedSchedule(steps=[entry], vocab_size=toy_config.vocab_size,
                             mask_token_id=toy_config.mask_token_id)
    return ScriptedModel(toy_config, sched)


def test_spec_step_stage1_row_count(toy_config):
    from blockspec.cache import refresh_dual_cache

    model = _below_threshold_model(toy_config, range(12, 76))
    rng = np.random.default_rng(0)
    state = random_state(rng, toy_config, prompt_len=12, gen_length=64,
                         block_size=32, n_decoded=2)
    cache, _ = refresh_dual_cache(model, state, state.block_range())
    config = RunConfig(strategy="odb", gen_length=64, block_size=32)
    cset = CandidateSet(tuple(
        Candidate(int(p), 11, 0.5) for p in state.block_masked_positions()[:2]
    ))
    outcome, layout = spec_step(model, state, cache, rejecting(cset), config)
    assert layout.n_queries == 128
    assert outcome.blocks_evaluated == 4
    assert layout.n_keys == len(cache.positions) + 128


def test_spec_step_stage2_row_count(toy_config):
    from blockspec.cache import refresh_dual_cache

    model = _below_threshold_model(toy_config, range(12, 76))
    rng = np.random.default_rng(1)
    state = random_state(rng, toy_config, prompt_len=12, gen_length=64,
                         block_size=32, n_decoded=12)
    cache, _ = refresh_dual_cache(model, state, state.block_range())
    config = RunConfig(strategy="odb", gen_length=64, block_size=32)
    cset = CandidateSet(tuple(
        Candidate(int(p), 11, 0.5) for p in state.block_masked_positions()[:4]
    ))
    outcome, layout = spec_step(model, state, cache, rejecting(cset), config)
    assert layout.n_queries == 32 + 7 * 20
    assert outcome.blocks_evaluated == 8
    assert outcome.stage == 2


@pytest.mark.parametrize("below", [True, False], ids=["threshold-1", "threshold"])
@pytest.mark.parametrize("stage2_min_decoded", [None, 1, 20], ids=["default", "1", "20"])
def test_spec_step_takes_stage_2_at_the_threshold(toy_config, stage2_min_decoded, below):
    """One decoded block token short of ``stage2_min_decoded`` a step is stage
    1 on two of five rejections; at the threshold it is stage 2 on four,
    with the rows of that lattice, as the reference's rule says."""
    model = _below_threshold_model(toy_config, range(12, 76))
    config = RunConfig(strategy="odb", gen_length=64, block_size=32,
                       stage2_min_decoded=stage2_min_decoded)
    n_decoded = config.stage2_min_decoded - below
    state = random_state(np.random.default_rng(n_decoded), toy_config, prompt_len=12,
                         gen_length=64, block_size=32, n_decoded=n_decoded)
    cache, _ = refresh_dual_cache(model, state, state.block_range())
    previous = rejecting((int(p), 11, 0.5) for p in state.block_masked_positions()[:5])

    outcome, layout = spec_step(model, state, cache, previous, config)
    candidates, stage = reference_decide.spec_size(state, previous, config)
    assert stage == (1 if below else 2)
    assert outcome.stage == layout.stage == stage
    assert outcome.candidates == list(candidates) and len(candidates) == (2 if below else 4)
    n_blocks = 3 if below else 7
    assert outcome.blocks_evaluated == 1 + n_blocks
    assert layout.n_queries == 32 + n_blocks * (32 if below else 32 - n_decoded)
    assert same_step((outcome, layout), reference_decide.spec_step(
        model, state, cache, candidates, stage, config))


@pytest.mark.parametrize("step", [spec_step, reference_decide.sized_spec_step],
                         ids=["program", "reference"])
def test_spec_step_refuses_a_cache_refreshed_for_another_block(toy_config, step):
    """Block 1's stage-1 step over a cache refreshed for block 0 is refused."""
    from blockspec.cache import refresh_dual_cache

    model = _below_threshold_model(toy_config, range(12, 140))
    rng = np.random.default_rng(3)
    state = random_state(rng, toy_config, prompt_len=12, gen_length=128,
                         block_size=32, active_block=1, n_decoded=2)
    cache, _ = refresh_dual_cache(model, state, state.block_range(0))
    config = RunConfig(strategy="odb", gen_length=128, block_size=32)
    cset = CandidateSet(tuple(
        Candidate(int(p), 11, 0.5) for p in state.block_masked_positions()[:2]
    ))
    with pytest.raises(StaleCacheError, match=r"refreshed for block \(12, 44\)"):
        step(model, state, cache, rejecting(cset), config)


def test_single_candidate_degenerates_to_verified_threshold(toy_config):
    """With one candidate the lattice is {c1} alone: the step behaves like a
    plain threshold step plus one verification of c1."""
    from blockspec.cache import refresh_dual_cache

    span = range(12, 76)
    model = _below_threshold_model(toy_config, span)
    rng = np.random.default_rng(2)
    state = random_state(rng, toy_config, prompt_len=12, gen_length=64,
                         block_size=32, n_decoded=1)
    cache, _ = refresh_dual_cache(model, state, state.block_range())
    config = RunConfig(strategy="odb", gen_length=64, block_size=32)
    masked = state.block_masked_positions()
    # candidate = the position the forced top-1 rule will accept, with the
    # scripted token, so the main block verifies it
    entry = model.schedule.steps[0]
    best = max(masked, key=lambda p: (entry[int(p)][1], -p))
    cset = CandidateSet((Candidate(int(best), entry[int(best)][0],
                                   entry[int(best)][1]),))
    outcome, layout = spec_step(model, state, cache, rejecting(cset), config)
    assert outcome.blocks_evaluated == 2
    assert layout.n_queries == 64
    assert outcome.jump_count == 1
    accepted_pos = [p for p, _, _ in outcome.accepted]
    assert int(best) in accepted_pos
    assert len(accepted_pos) == 2  # candidate + the adopted block's top-1


# --- the forward's rows and the stage-1 layouts ---------------------------------

def _spec_inputs(toy_config, stage, seed=4):
    """A scripted model, a block-0 state decoded far enough for `stage`
    under the default threshold, its cache and a full candidate set of
    masked positions."""
    model = _below_threshold_model(toy_config, range(12, 76))
    rng = np.random.default_rng(seed)
    state = random_state(rng, toy_config, prompt_len=12, gen_length=64,
                         block_size=32, n_decoded=2 if stage == 1 else 12)
    cache, _ = refresh_dual_cache(model, state, state.block_range())
    masked = state.block_masked_positions()[: STAGE_CANDIDATES[stage]]
    cset = CandidateSet(tuple(Candidate(int(p), 11, 0.5) for p in masked))
    return model, state, cache, cset


def _rewrap_rows(model, change):
    """Make `model` hand spec_step a view of `change(logits, positions, tags)`."""
    forward = model.forward

    def wrapped(*args, **kwargs):
        view, kv = forward(*args, **kwargs)
        return LogitsView(*change(view.logits, view.positions, view.tags)), kv

    model.forward = wrapped


@pytest.mark.parametrize("stage", [1, 2])
def test_spec_step_accepts_equal_but_distinct_row_arrays(toy_config, stage):
    model, state, cache, cset = _spec_inputs(toy_config, stage)
    config = RunConfig(strategy="odb", gen_length=64, block_size=32)
    want = spec_step(model, state, cache, rejecting(cset), config)
    assert want[0].stage == stage
    _rewrap_rows(model, lambda logits, positions, tags: (logits, positions.copy(), tags.copy()))
    assert same_step(spec_step(model, state, cache, rejecting(cset), config), want)


def _reversed_rows(logits, positions, tags):
    return logits[::-1], positions[::-1], tags[::-1]


def _swapped_tags(logits, positions, tags):
    """The first row's tag 0 traded with the last row's speculative tag."""
    tags = tags.copy()
    tags[[0, -1]] = tags[[-1, 0]]
    return logits, positions, tags


@pytest.mark.parametrize("change", [_reversed_rows, _swapped_tags], ids=["permuted", "swapped-tags"])
@pytest.mark.parametrize("stage", [1, 2])
def test_spec_step_refuses_rows_out_of_layout_order(toy_config, stage, change):
    model, state, cache, cset = _spec_inputs(toy_config, stage)
    _rewrap_rows(model, change)
    config = RunConfig(strategy="odb", gen_length=64, block_size=32)
    with pytest.raises(ShapeError, match="forward rows differ"):
        spec_step(model, state, cache, rejecting(cset), config)


@pytest.fixture
def spec_layout_builds(monkeypatch):
    """(block start, stage, lattice width) of every build_spec_layout call
    made by the decode path."""
    builds = []
    build = blockspec.layout.build_spec_layout

    def counting(block_range, spec_set, decoded_positions, context_positions):
        builds.append((block_range[0], spec_set.stage, spec_set.n_blocks))
        return build(block_range, spec_set, decoded_positions, context_positions)

    for module in (blockspec.cache, blockspec.speculative):
        monkeypatch.setattr(module, "build_spec_layout", counting)
    return builds


def test_stage1_layouts_are_built_once_per_width_per_block_cycle(toy_config, spec_layout_builds):
    model = _below_threshold_model(toy_config, range(12, 108))
    traj = decode(model, list(range(1, 13)),
                  RunConfig(strategy="odb", gen_length=96, block_size=32, truncate_threshold=1.1))
    spec = [s for s in traj.steps if s.kind == "spec"]
    stage1 = Counter((12 + 32 * s.block, s.blocks_evaluated - 1) for s in spec if s.stage == 1)
    built = Counter((start, width) for start, stage, width in spec_layout_builds if stage == 1)
    # every block cycle reaches stage 1, and some layout serves several steps
    assert {start for start, _ in stage1} == {12, 44, 76}
    assert sum(stage1.values()) > len(stage1)
    assert built == Counter(dict.fromkeys(stage1, 1))
    # stage 2 builds per step
    assert sum(1 for b in spec_layout_builds if b[1] == 2) == sum(1 for s in spec if s.stage == 2) > 0


def test_a_truncated_cache_builds_its_own_stage1_layouts(toy_config, spec_layout_builds):
    _, _, cache, cset = _spec_inputs(toy_config, 1)
    wide, narrow = SpecSet.build(cset, 1), SpecSet.build(cset[:1], 1)
    layout = cache.stage1_layout(wide)
    assert cache.stage1_layout(wide) is layout
    assert cache.stage1_layout(narrow).n_queries == 2 * 32
    short = cache.truncated(60)
    short_layout = short.stage1_layout(wide)
    assert short_layout is not layout and short.stage1_layout(wide) is short_layout
    assert short_layout.context_positions is short.positions
    assert np.array_equal(short_layout.query_positions, layout.query_positions)
    assert spec_layout_builds == [(12, 1, 3), (12, 1, 1), (12, 1, 3)]
    with pytest.raises(RangeError):
        cache.stage1_layout(SpecSet.build(cset, 2))


# --- end-to-end NFE family --------------------------------------------------------------

def test_odb_beats_fast_on_stable_below_threshold_schedule(toy_config):
    """All confidences below threshold: fast unmasks one token per step, the
    jump chains unmask 3 (stage 1) or 5 (stage 2) per speculative step."""
    span = range(4, 68)
    model = _below_threshold_model(toy_config, span)
    fast = decode(model, [1, 2, 3, 4],
                  RunConfig(strategy="fast", gen_length=64, block_size=32))
    odb = decode(model, [1, 2, 3, 4],
                 RunConfig(strategy="odb", gen_length=64, block_size=32,
                           truncate_threshold=1.1))
    assert odb.nfe < fast.nfe
    assert odb.total_jumps > 0
    assert fast.final_tokens == odb.final_tokens  # stable predictions
    spec_steps = [s for s in odb.steps if s.kind == "spec"]
    assert {s.stage for s in spec_steps} == {1, 2}
    stage1 = [s for s in spec_steps if s.stage == 1]
    stage2 = [s for s in spec_steps if s.stage == 2]
    assert all(len(s.accepted) == 3 and s.jump_count == 2 for s in stage1)
    assert all(len(s.accepted) == 5 and s.jump_count == 4
               for s in stage2 if len(s.candidates) == 4)


def test_odb_gains_on_rising_confidence_schedule(toy_config):
    """Candidates rejected at one step clear the threshold at the next (the
    next-step acceptance pattern); the adopted block then also unmasks its
    own forced top-1, so odb needs fewer forwards than fast."""
    span = list(range(4, 36))
    tok = lambda p: 10 + (p % 50)
    steps = []
    # wave w: positions 2w, 2w+1 confident, next pair nearly confident
    for w in range(16):
        entry = {}
        for i, p in enumerate(span):
            if i < 2 * w + 2:
                entry[p] = (tok(p), 0.95)
            elif i < 2 * w + 4:
                entry[p] = (tok(p), 0.85 - 0.01 * (i % 2))
            else:
                entry[p] = (tok(p), 0.30)
        steps.append(entry)
    sched = ScriptedSchedule(steps=steps, vocab_size=toy_config.vocab_size,
                             mask_token_id=toy_config.mask_token_id)
    model = ScriptedModel(toy_config, sched)
    fast = decode(model, [1, 2, 3, 4],
                  RunConfig(strategy="fast", gen_length=32, block_size=32))
    odb = decode(model, [1, 2, 3, 4],
                 RunConfig(strategy="odb", gen_length=32, block_size=32,
                           truncate_threshold=1.1))
    assert odb.nfe < fast.nfe
    assert odb.total_jumps > 0


# --- malformed candidate sets ------------------------------------------------------------

@pytest.mark.parametrize("case", ["repeated-position", "mask-token", "outside-vocab", "not-masked"])
def test_spec_step_refuses_a_malformed_candidate_before_the_forward(toy_config, case):
    from blockspec.cache import refresh_dual_cache

    model = _below_threshold_model(toy_config, range(12, 76))
    rng = np.random.default_rng(3)
    state = random_state(rng, toy_config, prompt_len=12, gen_length=64,
                         block_size=32, n_decoded=2)
    cache, _ = refresh_dual_cache(model, state, state.block_range())
    masked = state.block_masked_positions().tolist()
    decoded = int(block_decoded_positions(state)[0])
    first, second = Candidate(masked[0], 11, 0.5), Candidate(masked[1], 12, 0.4)
    broken, match = {
        "repeated-position": ((first, Candidate(masked[0], 12, 0.4)),
                              "candidate c2 .*another candidate holds the position"),
        "mask-token": ((Candidate(masked[0], toy_config.mask_token_id, 0.5), second),
                       "candidate c1 .*token is the mask token"),
        "outside-vocab": ((first, Candidate(masked[1], toy_config.vocab_size, 0.4)),
                          r"candidate c2 .*token outside vocab \[0, 128\)"),
        "not-masked": ((Candidate(decoded, 11, 0.5), second),
                       "candidate c1 .*position is not masked"),
    }[case]
    calls = []
    model.forward = lambda *args, **kwargs: calls.append(args)
    config = RunConfig(strategy="odb", gen_length=64, block_size=32)
    with pytest.raises(RangeError, match=match):
        spec_step(model, state, cache, rejecting(broken), config)
    assert not calls
