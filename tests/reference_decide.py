"""Per-row reference decision path and scripted logits for the tests.

``masked_greedy`` in the program runs one greedy pass per forward and reads
each confidence as ``1 / sum(exp(shifted))``; ``spec_step`` decides every
speculative block at once from a [blocks, masked positions] table with the
array rule ``threshold_decide``, and ``scripted_forward`` gathers its rows
from each schedule step's compiled span arrays.  This module keeps the
forms they replaced: a ``conftest.select`` copy of the view and a list-form
``threshold_decide`` per block, a greedy pass that divides the whole
[rows, vocab] softmax, and one ``two_level_logits`` row at a time, with its
logarithm taken per row.  Tests hold the program to bitwise equality with
them.  ``spec_size`` states on its own the rule by which the program's
``spec_step`` sizes itself from the step before it.
"""

import math

import numpy as np

from blockspec.cache import cache_view
from blockspec.decoder import StepOutcome
from blockspec.errors import BlockCompleteError, NoCandidatesError, RangeError
from blockspec.layout import build_spec_layout
from blockspec.model import LogitsView, _conf_floor
from blockspec.speculative import Candidate, SpecSet, resolve_jump

from conftest import block_decoded_positions, hit_table, select, subset_of


def threshold_decide(entries, threshold):
    """Split (position, token, confidence) entries into accepted/rejected.

    Accept strictly above the threshold; when nothing clears it, accept the
    single highest-confidence entry so every step makes progress.  Ties break
    to the lower position.
    """
    if not entries:
        return [], []
    above = [e for e in entries if e[2] > threshold]
    if above:
        accepted = sorted(above, key=lambda e: e[0])
    else:
        accepted = [min(entries, key=lambda e: (-e[2], e[0]))]
    taken = {e[0] for e in accepted}
    rejected = sorted(
        (e for e in entries if e[0] not in taken), key=lambda e: (-e[2], e[0])
    )
    return accepted, rejected


def masked_greedy(view, mask_token_id):
    logits = view.logits.copy()
    logits[:, mask_token_id] = -np.inf
    tokens = np.argmax(logits, axis=1)
    shifted = logits - np.max(logits, axis=1, keepdims=True)
    e = np.exp(shifted, dtype=np.float32)
    probs = e / np.sum(e, axis=1, keepdims=True)
    confs = probs[np.arange(logits.shape[0]), tokens]
    return tokens.astype(np.int64), confs.astype(np.float32)


def decide(view, mask_token_id, threshold):
    tokens, confs = masked_greedy(view, mask_token_id)
    entries = [
        (int(p), int(tok), float(c)) for p, tok, c in zip(view.positions, tokens, confs)
    ]
    accepted, rejected = threshold_decide(entries, threshold)
    return StepOutcome(accepted=accepted, rejected_top=rejected)


def threshold_step(state, logits, threshold):
    masked_pos = state.block_masked_positions()
    if masked_pos.size == 0:
        raise BlockCompleteError("active block has no masked positions")
    return decide(select(logits, masked_pos), state.mask_token_id, threshold)


def spec_size(state, previous, config):
    """(candidates, stage) of the speculative step after `previous`, by the
    paper's rule stated apart from the program: stage 2 once
    ``stage2_min_decoded`` block tokens are decoded, stage 1 before; the head
    of the previous step's rejections, up to two at stage 1 and four at
    stage 2, are the candidates."""
    stage = 2 if block_decoded_positions(state).size >= config.stage2_min_decoded else 1
    budget = 4 if stage == 2 else 2
    candidates = tuple(Candidate(int(p), int(t), float(c))
                       for p, t, c in previous.rejected_top[:budget])
    return candidates, stage


def sized_spec_step(model, state, cache, previous, config, *, step=0):
    """``spec_step`` sized by ``spec_size``: the program's signature."""
    return spec_step(model, state, cache, *spec_size(state, previous, config), config, step=step)


def spec_step(model, state, cache, candidates, stage, config, *, step=0):
    """The speculative step on explicit candidates at an explicit stage;
    returns (outcome, layout of the forward) like the program's."""
    if len(candidates) == 0:
        raise NoCandidatesError("speculative step needs at least one candidate")
    block_range = state.block_range()
    masked_abs = state.block_masked_positions()
    decoded_abs = block_decoded_positions(state)
    for cand in candidates:
        if cand.position not in masked_abs:
            raise RangeError(f"candidate position {cand.position} is not masked")
    if stage == 2 and decoded_abs.size < config.stage2_min_decoded:
        raise RangeError("stage 2 needs more decoded tokens")

    spec_set = SpecSet.build(candidates, stage)
    view = cache_view(cache, block_range)
    layout = build_spec_layout(block_range, spec_set, decoded_abs, view.positions)

    cand_token = {c.position: c.token for c in spec_set.candidates}
    subset_positions = {
        tag: {spec_set.candidates[j - 1].position for j in subset}
        for tag, subset in ((0, ()), *spec_set.blocks)
    }
    tokens = np.empty(layout.n_queries, dtype=np.int64)
    for i, (pos, tag) in enumerate(zip(layout.query_positions, layout.query_tags)):
        tokens[i] = cand_token[pos] if pos in subset_positions[tag] else state.tokens[pos]

    logits, _ = model.forward(tokens, layout, view, step=step)

    results = {
        tag: decide(
            select(logits, [p for p in masked_abs if p not in subset], tag),
            state.mask_token_id,
            config.accept_threshold,
        )
        for tag, subset in subset_positions.items()
    }
    adopted_tag, jump_count = resolve_jump(hit_table(results, spec_set), spec_set)
    adopted = results[adopted_tag]
    subset = subset_of(spec_set, adopted_tag)
    committed = [
        (c.position, c.token, c.confidence)
        for c in (spec_set.candidates[j - 1] for j in subset)
    ]
    accepted_all = sorted(committed + list(adopted.accepted), key=lambda e: e[0])
    outcome = StepOutcome(
        accepted=accepted_all,
        rejected_top=list(adopted.rejected_top),
        jump_count=jump_count,
        adopted_tag=adopted_tag,
        stage=stage,
        blocks_evaluated=1 + spec_set.n_blocks,
        candidates=[(c.position, c.token, c.confidence) for c in spec_set.candidates],
    )
    return outcome, layout


def two_level_logits(vocab_size, mask_token_id, token, conf):
    """Logit vector whose softmax puts `conf` on `token`, uniform elsewhere."""
    floor = _conf_floor(vocab_size)
    c = min(max(conf, floor), 1.0 - 1e-9)
    row = np.zeros(vocab_size, dtype=np.float32)
    if token == mask_token_id:
        n = vocab_size - 1
    else:
        n = max(vocab_size - 2, 1)  # a 2-token vocabulary leaves no competitor
        row[mask_token_id] = np.float32(-1e30)
    a = math.log(c * n / (1.0 - c))
    row[token] = np.float32(a)
    return row


def scripted_forward(schedule, step, positions):
    entry = schedule.entry(step)
    rows = np.zeros((len(positions), schedule.vocab_size), dtype=np.float32)
    for i, pos in enumerate(positions):
        tok, conf = entry.get(int(pos), (schedule.mask_token_id, 0.0))
        rows[i] = two_level_logits(schedule.vocab_size, schedule.mask_token_id, tok, conf)
    return LogitsView(rows, np.asarray(positions, dtype=np.int64), np.zeros(len(positions), dtype=np.int64))
