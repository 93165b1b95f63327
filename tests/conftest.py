import zlib

import numpy as np
import pytest

from blockspec import DecodeState, LogitsView, ModelConfig, ShapeError, ToyModel
from blockspec.model import softmax


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
            state.masked[p] = False
    return state


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
    return cache.size - n_prefix(cache)


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
