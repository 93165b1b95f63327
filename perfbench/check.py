"""Output check on one trajectory, re-derived from its JSON form alone.

The check knows nothing the program computed except what the trajectory
file holds, plus the prompt the benchmark sent.  Each violated invariant is
returned as a one-line message; an empty list means the request passed.
"""

from __future__ import annotations

import hashlib


def adopted_subset(tag: int, n_candidates: int) -> tuple[int, ...]:
    """Candidate ordinals (1-based) of a speculative block tag.

    The lattice is {c1}, then for each further candidate cj the singleton
    {cj} (tag 2j - 2) and the prefix {c1..cj} (tag 2j - 1).
    """
    if not (1 <= tag <= 2 * n_candidates - 1):
        raise ValueError(f"tag {tag} outside a {n_candidates}-candidate lattice")
    if tag == 1:
        return (1,)
    j = (tag + 2) // 2
    return (j,) if tag % 2 == 0 else tuple(range(1, j + 1))


def check_trajectory(traj: dict, prompt, mask_token_id: int) -> list[str]:
    errors: list[str] = []
    steps = traj["steps"]
    block = traj["block_size"]
    prompt_len = traj["prompt_len"]
    final = traj["final_tokens"]

    if traj["nfe"] != len(steps):
        errors.append(f"nfe {traj['nfe']} != {len(steps)} step records")
    if prompt_len != len(prompt) or final[:prompt_len] != list(prompt):
        errors.append("prompt tokens changed")
    if mask_token_id in final:
        errors.append("mask token left in final_tokens")

    gen = traj["gen_length_initial"]
    for event in traj["truncations"]:
        new = event["new_gen_length"]
        if event["old_gen_length"] != gen or not (0 < new < gen) or new % block:
            errors.append(f"bad length change {event['old_gen_length']} -> {new}")
        gen = new
    if gen != traj["gen_length_final"] or len(final) != prompt_len + gen:
        errors.append("final length disagrees with the truncation chain")

    committed: dict[int, int] = {}
    for step in steps:
        for pos, tok, _conf in step["accepted"]:
            if pos in committed:
                errors.append(f"position {pos} unmasked twice")
            committed[pos] = tok
    if sorted(committed) != list(range(prompt_len, prompt_len + gen)):
        errors.append("response positions not unmasked exactly once")
    elif any(final[pos] != tok for pos, tok in committed.items()):
        errors.append("final_tokens disagree with accepted tokens")

    for step in steps:
        if step["kind"] != "spec" or step["adopted_tag"] == 0:
            continue
        cands = step["candidates"]
        accepted = {(pos, tok) for pos, tok, _conf in step["accepted"]}
        try:
            subset = adopted_subset(step["adopted_tag"], len(cands))
        except ValueError as err:
            errors.append(f"step {step['index']}: {err}")
            continue
        if any((cands[j - 1][0], cands[j - 1][1]) not in accepted for j in subset):
            errors.append(f"step {step['index']}: adopted subset not accepted")
    return errors


def request_digest(text: str) -> bytes:
    return hashlib.sha256(text.encode()).digest()


def combined_digest(digests) -> str:
    """SHA-256 over per-request digests, in request order."""
    outer = hashlib.sha256()
    for d in digests:
        outer.update(d)
    return outer.hexdigest()
