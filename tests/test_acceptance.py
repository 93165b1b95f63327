"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated at run time.
"""

import json
import time

import numpy as np
import pytest

from blockspec import (
    DecodeState,
    HardwareProfile,
    RunConfig,
    ScriptedModel,
    ScriptedSchedule,
    ToyModel,
    cost_of_forward,
    decode,
    tau_leaping_step,
    trajectory_metrics,
)
from blockspec.cache import cache_view, refresh_dual_cache
from blockspec.decoder import masked_greedy
from blockspec.layout import build_block_layout, build_spec_layout, full_sequence_layout
from blockspec.model import LogitsView, scripted_forward
from blockspec.speculative import Candidate, CandidateSet, SpecSet, resolve_jump

from conftest import TOY, comparable_dict, random_state, rel_err, select
from reference_decide import threshold_decide
from shared_kv import SharedKV, build_shared_kv, isolate, shared_view
from test_speculative import oracle_chain_enumeration, oracle_two_candidate_cases, outcome_accepting

PROFILE = HardwareProfile(name="a100-80gb-sxm", peak_flops=312e12, mem_bandwidth=2.039e12)

# regression lock for criterion 8, calibrated once on the reference scenario
PREFILL_FRAC_BAND = (0.344, 0.364)


def _spec_tokens(state, layout, spec_set):
    cand_token = {c.position: c.token for c in spec_set.candidates}
    subset_pos = {
        tag: {spec_set.candidates[j - 1].position for j in subset}
        for tag, subset in spec_set.blocks
    }
    tokens = np.empty(layout.n_queries, dtype=np.int64)
    for i, (pos, tag) in enumerate(zip(layout.query_positions, layout.query_tags)):
        if tag != 0 and pos in subset_pos[tag]:
            tokens[i] = cand_token[pos]
        else:
            tokens[i] = state.tokens[pos]
    return tokens, subset_pos


def _acceptance_sets(view, rows, positions, mask_token_id, threshold):
    sub = LogitsView(view.logits[rows], np.asarray(positions, dtype=np.int64),
                     np.zeros(len(rows), dtype=np.int64))
    toks, confs = masked_greedy(sub, mask_token_id)
    entries = [(int(p), int(t), float(c)) for p, t, c in zip(positions, toks, confs)]
    accepted, _ = threshold_decide(entries, threshold)
    return {(p, t) for p, t, _ in accepted}


def test_criterion_1_cache_correctness(toy_config):
    """Block-decode forwards through DualCache equal dense forwards over the
    refresh-time snapshot, <= 1e-5 relative, 50 seeds, under a minute."""
    model = ToyModel(toy_config)
    start_time = time.monotonic()
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        state = random_state(
            rng, toy_config,
            prompt_len=int(rng.integers(4, 24)),
            gen_length=96, block_size=32,
            active_block=int(rng.integers(0, 3)),
            n_decoded=int(rng.integers(0, 16)),
        )
        block = state.block_range()
        cache, _ = refresh_dual_cache(model, state, block, epoch=1)
        view = cache_view(cache, epoch=1)
        layout = build_block_layout(block, view.positions)
        cached, _ = model.forward(state.tokens[block[0]:block[1]], layout, view)
        dense, _ = model.forward(state.tokens, full_sequence_layout(state.seq_len))
        rows = [dense.row(p) for p in range(block[0], block[1])]
        worst = max(worst, rel_err(cached.logits, dense.logits[rows]))
    elapsed = time.monotonic() - start_time
    assert worst <= 1e-5
    assert elapsed < 60
    print(f"\n[criterion 1] PASS - cache correctness: max rel err {worst:.2e} "
          f"over 50 seeds in {elapsed:.1f}s")


def test_criterion_2_mask_isolation(toy_config):
    """Batched stage-1 and stage-2 forwards match per-block isolated
    forwards within 1e-5 and produce identical acceptance sets, 50 seeds."""
    model = ToyModel(toy_config)
    config = RunConfig(strategy="odb", gen_length=96, block_size=32)
    threshold = 0.02
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(2000 + seed)
        stage = 1 if seed % 2 == 0 else 2
        n_decoded = int(rng.integers(1, 6)) if stage == 1 else int(rng.integers(8, 20))
        state = random_state(rng, toy_config, prompt_len=12, gen_length=96,
                             block_size=32, active_block=int(rng.integers(0, 3)),
                             n_decoded=n_decoded)
        block = state.block_range()
        cache, _ = refresh_dual_cache(model, state, block, epoch=1)
        masked = state.block_masked_positions()
        m = 2 if stage == 1 else 4
        picks = rng.choice(masked, size=m, replace=False)
        cands = CandidateSet(tuple(
            Candidate(int(p), int(rng.integers(0, 120)), 0.5) for p in sorted(picks)
        ))
        spec_set = SpecSet.build(cands, stage=stage)
        view = cache_view(cache, epoch=1)
        layout = build_spec_layout(block, spec_set, stage,
                                   state.block_decoded_positions(), view.positions)
        tokens, subset_pos = _spec_tokens(state, layout, spec_set)
        batched, _ = model.forward(tokens, layout, view)
        shared = build_shared_kv(model, state, block, cache) if stage == 2 else None
        for tag in [0] + [t for t, _ in spec_set.blocks]:
            iso_layout, rows = isolate(layout, tag)
            iso_view = (shared_view(cache, shared, epoch=1)
                        if stage == 2 and tag != 0 else cache_view(cache, epoch=1))
            iso, _ = model.forward(tokens[rows], iso_layout, iso_view)
            worst = max(worst, rel_err(iso.logits, batched.logits[rows]))
            decision = [int(p) for p in masked
                        if tag == 0 or int(p) not in subset_pos[tag]]
            if not decision:
                continue
            batched_rows = [batched.row(p, tag) for p in decision]
            iso_rows = [iso.row(p, 0) for p in decision]
            got = _acceptance_sets(batched, batched_rows, decision,
                                   toy_config.mask_token_id, threshold)
            want = _acceptance_sets(iso, iso_rows, decision,
                                    toy_config.mask_token_id, threshold)
            assert got == want
    assert worst <= 1e-5
    print(f"\n[criterion 2] PASS - mask isolation: max rel err {worst:.2e}, "
          f"acceptance sets identical over 50 seeds (stages 1 and 2)")


def test_criterion_3_shared_kv_correctness(toy_config):
    """Stage-2 speculative rows computed against a SharedKV equal the same
    rows with decoded-token K/V substituted by hand from the main block's
    forward, <= 1e-5 relative, 50 seeds."""
    model = ToyModel(toy_config)
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(3000 + seed)
        state = random_state(rng, toy_config, prompt_len=10, gen_length=64,
                             block_size=32, active_block=int(rng.integers(0, 2)),
                             n_decoded=int(rng.integers(8, 24)))
        block = state.block_range()
        cache, _ = refresh_dual_cache(model, state, block, epoch=1)
        masked = state.block_masked_positions()
        m = min(4, masked.size)
        picks = sorted(rng.choice(masked, size=m, replace=False))
        cands = CandidateSet(tuple(
            Candidate(int(p), int(rng.integers(0, 120)), 0.5) for p in picks
        ))
        spec_set = SpecSet.build(cands, stage=2)
        view = cache_view(cache, epoch=1)
        layout = build_spec_layout(block, spec_set, 2,
                                   state.block_decoded_positions(), view.positions)
        tokens, _ = _spec_tokens(state, layout, spec_set)
        batched, _ = model.forward(tokens, layout, view)

        # by-hand substitution: harvest decoded-row K/V from the main block's
        # own forward, then run each speculative block against them
        plain_layout = build_block_layout(block, view.positions)
        _, block_kv = model.forward(state.tokens[block[0]:block[1]], plain_layout, view)
        decoded = state.block_decoded_positions()
        rows_in_block = decoded - block[0]
        by_hand = SharedKV(
            positions=decoded,
            keys=[k[rows_in_block] for k, _ in block_kv],
            values=[v[rows_in_block] for _, v in block_kv],
            epoch=1,
        )
        for tag, _subset in spec_set.blocks:
            iso_layout, rows = isolate(layout, tag)
            iso_view = shared_view(cache, by_hand, epoch=1)
            iso, _ = model.forward(tokens[rows], iso_layout, iso_view)
            worst = max(worst, rel_err(iso.logits, batched.logits[rows]))
        # and the packaged builder agrees with the by-hand harvest
        built = build_shared_kv(model, state, block, cache)
        for li in range(len(built.keys)):
            assert np.array_equal(built.keys[li], by_hand.keys[li])
            assert np.array_equal(built.values[li], by_hand.values[li])
    assert worst <= 1e-5
    print(f"\n[criterion 3] PASS - shared-KV correctness: max rel err {worst:.2e} "
          f"over 50 seeds")


def test_criterion_4_jump_resolution_oracle():
    """resolve_jump equals the brute-force ladder oracle over >= 10,000
    randomized scenarios (1, 2 and 4 candidates plus degenerate 3), jump
    counts included; the three verbatim two-candidate branches all occur."""
    rng = np.random.default_rng(4321)
    branches = {"direct_pair": 0, "chain_pair": 0, "chain_fail": 0}
    trials = 0
    base = [Candidate(100 + i, 10 + i, 0.9 - 0.1 * i) for i in range(4)]
    while trials < 12_000:
        m = int(rng.choice([1, 2, 2, 3, 4, 4]))
        stage = 1 if m <= 2 else 2
        spec = SpecSet.build(CandidateSet(tuple(base[:m])), stage=stage)
        subsets = {frozenset(s) for _, s in spec.blocks}
        accept_by_subset = {}
        results = {}
        a0 = {j for j in range(1, m + 1) if rng.random() < 0.45}
        accept_by_subset[frozenset()] = a0
        results[0] = outcome_accepting(spec, sorted(a0))
        for tag, subset in spec.blocks:
            inside = {j for j in range(1, m + 1)
                      if j not in subset and rng.random() < 0.45}
            accept_by_subset[frozenset(subset)] = inside
            results[tag] = outcome_accepting(spec, sorted(inside))
        got_tag, got_jumps = resolve_jump(results, spec)
        got = (frozenset(spec.subset_of(got_tag)), got_jumps)
        want = oracle_chain_enumeration(accept_by_subset, subsets, m)
        assert got == want, f"trial {trials}: got {got}, oracle {want}"
        if m == 2:
            assert got == oracle_two_candidate_cases(accept_by_subset)
            if got[0] == {1, 2} and got[1] == 1:
                branches["direct_pair"] += 1
            elif got[0] == {1, 2} and got[1] == 2 and 1 in a0:
                branches["chain_pair"] += 1
            elif got[0] == {1} and got[1] == 1:
                branches["chain_fail"] += 1
        trials += 1
    assert all(v > 0 for v in branches.values()), branches
    print(f"\n[criterion 4] PASS - jump resolution: {trials} randomized scenarios "
          f"match the oracle exactly; branch counts {branches}")


def test_criterion_5_reverse_transition_sampler(toy_config):
    """t=0.5 -> s=0.25 over 1000 masked positions unmasks a fraction in
    [0.45, 0.55]; s=0 unmasks everything; unmasked positions never change."""
    state = DecodeState.new([1], 1000, 1000, toy_config.mask_token_id)
    state.t = 0.5
    sched = ScriptedSchedule(
        steps=[{p: (10 + (p % 50), 0.9) for p in range(1, 1001)}],
        vocab_size=128, mask_token_id=126,
    )
    view = scripted_forward(sched, 0, list(range(1, 1001)))
    out = tau_leaping_step(state, view, 0.25, np.random.default_rng(42))
    frac = 1.0 - float(out.masked[1:].mean())
    assert 0.45 <= frac <= 0.55

    out_zero = tau_leaping_step(state, view, 0.0, np.random.default_rng(7))
    assert not out_zero.masked.any()

    partial = out.copy()
    partial.t = 0.25
    before = partial.tokens.copy()
    fixed = ~partial.masked
    view2 = scripted_forward(sched, 0, list(range(1, 1001)))
    full_view = LogitsView(
        np.concatenate([np.zeros((1, 128), dtype=np.float32), view2.logits]),
        np.arange(1001), np.zeros(1001, dtype=np.int64),
    )
    out2 = tau_leaping_step(partial, select(full_view, partial.masked_positions()),
                            0.1, np.random.default_rng(8))
    assert np.array_equal(out2.tokens[fixed], before[fixed])
    print(f"\n[criterion 5] PASS - reverse transition sampler: unmask fraction "
          f"{frac:.3f} in [0.45, 0.55]; s=0 unmasks all; unmasked frozen")


def test_criterion_6_alp_behavior(toy_config):
    """Scripted 0.99 EOS at offset 87 truncates 1024 -> 96; lengths shrink
    monotonically; no unmasked token is deleted; truncate_threshold 1.1
    reproduces the fast trajectory bit for bit."""
    prompt_len, gen = 4, 1024
    entry = {prompt_len + off: (10 + (off % 50), 0.95) for off in range(gen)}
    entry[prompt_len + 87] = (toy_config.eos_token_id, 0.99)
    sched = ScriptedSchedule(steps=[entry], vocab_size=128, mask_token_id=126)
    model = ScriptedModel(toy_config, sched)
    prompt = [1, 2, 3, 4]
    odb = decode(model, prompt, RunConfig(strategy="odb", gen_length=gen,
                                          block_size=32, truncate_threshold=0.9))
    assert odb.gen_length_final == 96
    lengths = [gen] + [e.new_gen_length for e in odb.truncations]
    assert all(a >= b for a, b in zip(lengths, lengths[1:]))
    committed = {p: t for s in odb.steps for p, t, _ in s.accepted}
    assert all(odb.final_tokens[p] == t for p, t in committed.items())

    fast = decode(model, prompt, RunConfig(strategy="fast", gen_length=gen,
                                           block_size=32))
    odb_idle = decode(model, prompt, RunConfig(strategy="odb", gen_length=gen,
                                               block_size=32, truncate_threshold=1.1))
    assert comparable_dict(odb_idle) == comparable_dict(fast)
    print(f"\n[criterion 6] PASS - adaptive length prediction: 1024 -> "
          f"{odb.gen_length_final}; monotone truncations {lengths}; "
          f"idle threshold reproduces fast exactly")


def test_criterion_7_nfe_accounting(toy_config):
    """On schedules where rejected candidates are accepted at the next step,
    odb needs strictly fewer forwards than fast; Eff_NFE = NFE + jumps, and
    non-speculative runs have Eff_NFE = NFE exactly."""
    span = range(4, 68)
    entry = {p: (10 + (p % 50), 0.5 - 0.001 * (p % 32)) for p in span}
    sched = ScriptedSchedule(steps=[entry], vocab_size=128, mask_token_id=126)
    model = ScriptedModel(toy_config, sched)
    prompt = [1, 2, 3, 4]
    fast = decode(model, prompt, RunConfig(strategy="fast", gen_length=64,
                                           block_size=32))
    odb = decode(model, prompt, RunConfig(strategy="odb", gen_length=64,
                                          block_size=32, truncate_threshold=1.1))
    rep_fast = trajectory_metrics(fast, PROFILE)
    rep_odb = trajectory_metrics(odb, PROFILE)
    assert rep_odb.nfe < rep_fast.nfe
    assert rep_odb.eff_nfe == rep_odb.nfe + odb.total_jumps
    assert odb.total_jumps > 0
    assert rep_fast.eff_nfe == rep_fast.nfe
    print(f"\n[criterion 7] PASS - NFE accounting: odb {rep_odb.nfe} < fast "
          f"{rep_fast.nfe}; Eff_NFE {rep_odb.eff_nfe} = NFE + "
          f"{odb.total_jumps} jumps; non-speculative Eff_NFE == NFE")


def test_criterion_8_cost_model(toy_config):
    """cost_of_forward(T=32, C=256) equals the hand-computed formula to the
    ULP; prefill AI beats decode AI on every fast toy run; prefill_time_frac
    sits in the locked golden band on the reference scenario."""
    from blockspec.metrics import phase_summary

    rec = cost_of_forward(toy_config, 32, 256, PROFILE)
    qkvo = 8 * 32 * 64 * 64
    attn = 4 * 32 * 256 * 64
    mlp = 4 * 32 * 64 * 256
    head = 2 * 32 * 64 * 128
    flops = float(4 * (qkvo + attn + mlp) + head)
    params = 128 * 64 + 4 * (4 * 64 * 64 + 2 * 64 * 256) + 64 * 128
    nbytes = float(4 * (params + 2 * 4 * 256 * 64 + 2 * 4 * 32 * 64))
    assert rec.flops == flops and rec.bytes == nbytes  # exact, not approx

    model = ToyModel(toy_config)
    for seed, thr in ((0, 0.05), (1, 0.02), (2, 0.9)):
        rng = np.random.default_rng(800 + seed)
        prompt = [int(x) for x in rng.integers(1, 100, size=8)]
        traj = decode(model, prompt, RunConfig(strategy="fast", gen_length=128,
                                               block_size=32, accept_threshold=thr))
        summary = phase_summary(traj, PROFILE)
        assert summary["prefill"]["mean_ai"] > summary["decode"]["mean_ai"]

    prompt_len, gen, bs = 16, 1024, 32
    steps = []
    for s in range(6):
        e = {}
        for p in range(prompt_len, prompt_len + gen):
            off = (p - prompt_len) % bs
            e[p] = (10 + (p % 50), 0.95 if off < 6 * (s + 1) else 0.5)
        steps.append(e)
    sched = ScriptedSchedule(steps=steps, vocab_size=128, mask_token_id=126)
    ref = decode(ScriptedModel(toy_config, sched), list(range(1, prompt_len + 1)),
                 RunConfig(strategy="fast", gen_length=gen, block_size=bs))
    frac = trajectory_metrics(ref, PROFILE).prefill_time_frac
    lo, hi = PREFILL_FRAC_BAND
    assert lo <= frac <= hi
    print(f"\n[criterion 8] PASS - cost model: formula exact; prefill AI > "
          f"decode AI on toy runs; prefill_time_frac {frac:.4f} in "
          f"[{lo}, {hi}]")


def test_criterion_9_end_to_end_determinism(tmp_path):
    """cmd_run twice with identical inputs yields byte-identical output
    directories."""
    from blockspec.cli import main

    model = tmp_path / "model.json"
    model.write_text(json.dumps(TOY, sort_keys=True))
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(PROFILE.to_dict(), sort_keys=True))
    tasks = tmp_path / "tasks.jsonl"
    tasks.write_text("\n".join(
        json.dumps({"id": f"t{i}", "prompt_tokens": [1 + i, 2, 3]})
        for i in range(2)
    ) + "\n")

    def run(out):
        code = main([
            "run", "--model-config", str(model), "--tasks", str(tasks),
            "--out", str(out), "--strategy", "odb", "--gen-length", "64",
            "--block-size", "32", "--accept-threshold", "0.05",
            "--truncate-threshold", "0.9", "--seed", "9",
            "--profile", str(profile), "--dump-mask",
        ])
        assert code == 0
        return {
            p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()
        }

    first = run(tmp_path / "run1")
    second = run(tmp_path / "run2")
    assert first == second
    print(f"\n[criterion 9] PASS - determinism: two identical invocations "
          f"produced byte-identical directories ({len(first)} files)")
