import zlib
from dataclasses import replace

import numpy as np
import pytest

from blockspec import DecodeState, LogitsView, ModelConfig, ScriptedSchedule, ShapeError, ToyModel
from dense_forward import softmax


TOY = dict(
    vocab_size=128,
    d_model=64,
    n_layers=4,
    n_heads=4,
    d_ff=256,
    mask_token_id=126,
    eos_token_id=127,
    seed=7,
)


@pytest.fixture(scope="session")
def toy_config():
    return ModelConfig(**TOY)


@pytest.fixture(scope="session")
def toy_model(toy_config):
    return ToyModel(toy_config)


def random_state(rng, config, prompt_len=12, gen_length=64, block_size=32,
                 active_block=0, n_decoded=0):
    """Seeded decode state with `n_decoded` random unmasked positions inside
    the active block."""
    ordinary = [t for t in range(config.vocab_size)
                if t not in (config.mask_token_id, config.eos_token_id)]
    prompt = rng.choice(ordinary, size=prompt_len, replace=True)
    state = DecodeState.new(prompt, gen_length, block_size, config.mask_token_id)
    state.active_block = active_block
    start, end = state.block_range()
    if n_decoded:
        picks = rng.choice(np.arange(start, end), size=n_decoded, replace=False)
        for p in picks:
            state.tokens[p] = int(rng.choice(ordinary))
    return state


def copy_state(state):
    """The decode state with its own copy of the tokens."""
    return replace(state, tokens=state.tokens.copy())


def block_decoded_positions(state):
    """Absolute positions of the active block that hold a decoded token."""
    start, end = state.block_range()
    return (state.tokens[start:end] != state.mask_token_id).nonzero()[0] + start


def rising_schedule(prompt_len, gen_length, seed=11):
    """Confidences that rise by step and cross the threshold at different
    steps, so odb keeps rejected candidates and reaches both spec stages."""
    rng = np.random.default_rng(seed)
    positions = range(prompt_len, prompt_len + gen_length)
    tokens = rng.integers(1, 100, size=gen_length)
    start = rng.uniform(0.0, 0.6, size=gen_length)
    rise = rng.uniform(0.08, 0.2, size=gen_length)
    steps = [
        {p: (int(t), float(min(s + k * r, 0.99)))
         for p, t, s, r in zip(positions, tokens, start, rise)}
        for k in range(12)
    ]
    # a confident EOS in the second block cuts the length to two blocks
    steps[0][prompt_len + 45] = (TOY["eos_token_id"], 0.97)
    return ScriptedSchedule(steps=steps, vocab_size=TOY["vocab_size"],
                            mask_token_id=TOY["mask_token_id"],
                            eos_token_id=TOY["eos_token_id"])


def comparable_dict(traj):
    """Trajectory content with the strategy/config labels stripped, for
    bit-identity checks between strategies that should coincide."""
    d = traj.to_dict()
    d.pop("strategy")
    d.pop("run_config")
    return d


def n_prefix(cache):
    """Cached entries before the active block's start."""
    return int(np.sum(cache.positions < cache.block_range[0]))


def n_suffix(cache):
    """Cached entries at or after the active block's end."""
    return len(cache.positions) - n_prefix(cache)


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.max(np.abs(a - b) / (1.0 + np.abs(b))))


def logits_to_prediction(logits):
    """Greedy (token, confidence) from one score vector.

    Confidence is the softmax probability of the argmax token; ties break to
    the lowest token id (np.argmax returns the first maximum).
    """
    logits = np.asarray(logits, dtype=np.float32).reshape(-1)
    if logits.size == 0:
        raise ShapeError("empty logit vector")
    if not np.all(np.isfinite(logits)):
        raise ShapeError("non-finite logits")
    token = int(np.argmax(logits))
    probs = softmax(logits)
    return token, float(probs[token])


def weight_checksum(model):
    """CRC over all of a ToyModel's weights in init order (Wq, Wk, Wv, Wo,
    W1, W2 per layer); determinism probe."""
    crc = zlib.crc32(model.emb.tobytes())
    for layer in model.layers:
        for w in (*layer["wqkv"], layer["wo"], layer["w1"], layer["w2"]):
            crc = zlib.crc32(w.tobytes(), crc)
    return zlib.crc32(model.wout.tobytes(), crc)


def select(view, positions, tag=0):
    """Copy of the (position, tag) rows of `view`, in the order asked, as a
    tag-0 view."""
    rows = view.rows(positions, tag)
    return LogitsView(view.logits[rows], view.positions[rows], np.zeros(len(rows), dtype=np.int64))


def subset_of(spec_set, tag):
    """The 1-based candidate ordinals speculative block `tag` commits; none
    for the main block, tag 0."""
    return dict(spec_set.blocks)[tag] if tag else ()


def hit_table(results, spec_set):
    """The [tags, candidates] table ``resolve_jump`` reads, from per-block
    outcomes: cell (tag, j - 1) is true when block `tag` accepted candidate
    j's position to candidate j's token."""
    def row(outcome):
        accepted = {(p, t) for p, t, _ in outcome.accepted}
        return [(c.position, c.token) in accepted for c in spec_set.candidates]

    return np.array([row(results[tag]) for tag in range(1 + spec_set.n_blocks)], dtype=bool)


def same_step(got, want):
    """Whether two speculative steps' (outcome, layout) pairs agree: equal
    outcomes, and layouts with the same rows, keys and stage."""
    (outcome, layout), (want_outcome, want_layout) = got, want
    return outcome == want_outcome and layout.stage == want_layout.stage and all(
        np.array_equal(getattr(layout, name), getattr(want_layout, name))
        for name in ("query_positions", "query_tags", "query_shared", "context_positions")
    )
