"""The decode loop.  One block-wise threshold loop serves all three strategies:

* ``vanilla`` -- no cache: every decode step is a full-sequence forward.
* ``fast``    -- DualCache: one full-sequence refresh per block cycle, then
  cached block forwards.
* ``odb``     -- fast plus adaptive length prediction at each refresh and
  jump-share speculative steps once a step leaves rejected candidates.

All three accept by confidence threshold with a forced top-1, so every step
unmasks at least one token.
"""

from __future__ import annotations

from .alp import apply_truncation, cut_window, scan_eos
from .cache import refresh_dual_cache
from .decoder import DecodeState, RunConfig, apply_outcome, threshold_step
from .errors import ProgressError
from .layout import build_block_layout, full_sequence_layout
from .speculative import spec_step
from .trajectory import StepRecord, Trajectory


def decode(model, prompt, config: RunConfig) -> Trajectory:
    """Run one request under the configured strategy; returns the full
    trajectory including per-step (T, C) cost inputs."""
    cfg = model.config
    state = DecodeState.new(
        prompt, config.gen_length, config.block_size, cfg.mask_token_id, cfg.vocab_size
    )
    traj = Trajectory(
        strategy=config.strategy,
        run_config=config.to_dict(),
        model_config=cfg.to_dict(),
        prompt_len=state.prompt_len,
        gen_length_initial=config.gen_length,
        block_size=config.block_size,
    )
    state = _decode_blockwise(model, state, config, traj)
    state.check_invariants()
    traj.final_tokens = [int(x) for x in state.tokens]
    traj.gen_length_final = state.gen_length
    traj.completed = True
    return traj


def _log_step(traj, *, kind, state, t_tokens, c_tokens, epoch, outcome=None, cache_bytes=0):
    rec = StepRecord(
        index=len(traj.steps),
        phase="prefill" if kind == "refresh" else "decode",
        kind=kind,
        block=state.active_block,
        epoch=epoch,
        t_tokens=t_tokens,
        c_tokens=c_tokens,
        cache_bytes=cache_bytes,
    )
    if outcome is not None:
        rec.accepted = list(outcome.accepted)
        rec.jump_count = outcome.jump_count
        rec.stage = outcome.stage
        rec.blocks_evaluated = outcome.blocks_evaluated
        rec.candidates = list(outcome.candidates)
        rec.adopted_tag = outcome.adopted_tag
    traj.steps.append(rec)


def _decode_blockwise(model, state, config, traj):
    cached = config.strategy != "vanilla"
    is_odb = config.strategy == "odb"
    while state.active_block < state.n_blocks:
        block_range = state.block_range()
        # each block cycle refreshes the cache once, so the block names it
        epoch = state.active_block + 1 if cached else 0
        if cached:
            # scripted models read refresh drafts by refresh ordinal, decode
            # steps by their in-block ordinal; only odb reads the draft, and
            # only while the cut window holds a position
            start, stop = cut_window(state)
            predict_length = is_odb and start < stop
            cache, draft = refresh_dual_cache(
                model, state, block_range, step=state.active_block, draft=predict_length
            )
            _log_step(
                traj,
                kind="refresh",
                state=state,
                t_tokens=state.seq_len,
                c_tokens=state.seq_len,
                epoch=epoch,
                cache_bytes=cache.nbytes(),
            )
            if predict_length:
                cut = scan_eos(
                    draft, state, config.truncate_threshold, model.config.eos_token_id
                )
                if cut is not None:
                    state, event = apply_truncation(state, cut, refresh_epoch=epoch)
                    traj.truncations.append(event)
                    cache = cache.truncated(state.seq_len)
            # the block range and the cached positions hold for the whole cycle
            layout = build_block_layout(block_range, cache.positions)
            window = slice(*block_range)
        else:
            cache = None
            layout = full_sequence_layout(state.seq_len)
            window = slice(None)

        # after each step its rejections are the block's still-masked positions
        prev_outcome = None
        block_step = 0
        while prev_outcome is None or prev_outcome.rejected_top:
            if is_odb and prev_outcome is not None:
                outcome, step_layout = spec_step(
                    model, state, cache, prev_outcome, config, step=block_step
                )
                kind = "spec"
            else:
                logits, _ = model.forward(state.tokens[window], layout, cache, step=block_step)
                outcome = threshold_step(state, logits, config.accept_threshold)
                step_layout = layout
                kind = "threshold"
            # apply_outcome refuses an unmasked position, so each accepted
            # entry unmasks one token
            apply_outcome(state, outcome)
            if not outcome.accepted:
                raise ProgressError("decode step unmasked zero tokens")
            _log_step(
                traj,
                kind=kind,
                state=state,
                t_tokens=step_layout.n_queries,
                c_tokens=step_layout.n_keys,
                epoch=epoch,
                outcome=outcome,
            )
            prev_outcome = outcome
            block_step += 1
        state.active_block += 1
    return state
