import numpy as np
import pytest

from blockspec import DecodeState, ModelConfig, ToyModel


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
