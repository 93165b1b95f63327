"""List-built layout reference and the per-cell visibility oracle.

``build_spec_layout`` in the program builds its query fields as numpy
arrays with ``arange``/``tile``/``repeat`` and marks decoded rows with a
boolean index.  This module keeps the form it replaced, one Python list
per field grown block by block, and the cell-by-cell visibility predicate
that ``AttentionLayout.dense_mask`` materializes.  Tests hold the program
to equality with both.
"""

from blockspec.errors import RangeError


def spec_layout_fields(block_range, spec_set, stage, decoded_positions, context_positions):
    """(query_positions, query_tags, query_shared, context_positions) of the
    speculative layout, as tuples of Python ints and bools."""
    start, end = block_range
    if end <= start:
        raise RangeError(f"empty block range [{start}, {end})")
    if not spec_set.blocks:
        raise RangeError("speculative set is empty")
    if stage not in (1, 2):
        raise RangeError(f"stage must be 1 or 2, got {stage}")
    decoded = sorted(int(p) for p in decoded_positions)
    if any(not (start <= p < end) for p in decoded):
        raise RangeError("decoded positions outside block")
    decoded_set = frozenset(decoded)

    positions, tags, shared = [], [], []
    block_positions = list(range(start, end))
    masked_positions = [p for p in block_positions if p not in decoded_set]

    positions.extend(block_positions)
    tags.extend([0] * len(block_positions))
    if stage == 2:
        shared.extend([p in decoded_set for p in block_positions])
    else:
        shared.extend([False] * len(block_positions))

    spec_rows = block_positions if stage == 1 else masked_positions
    for tag, _subset in spec_set.blocks:
        positions.extend(spec_rows)
        tags.extend([tag] * len(spec_rows))
        shared.extend([False] * len(spec_rows))

    context = tuple(int(p) for p in context_positions)
    return tuple(positions), tuple(tags), tuple(shared), context


def mask_allows(layout, q: int, k: int) -> bool:
    """Visibility of key slot `k` to query row `q`.

    Context keys are visible to every query.  A fresh key produced by query
    row j is visible to row q iff j is a shared row or both rows carry the
    same block tag.
    """
    if not (0 <= q < layout.n_queries):
        raise IndexError(f"query index {q} out of range")
    if not (0 <= k < layout.n_keys):
        raise IndexError(f"key index {k} out of range")
    if k < layout.n_context:
        return True
    j = k - layout.n_context
    return bool(layout.query_shared[j] or layout.query_tags[j] == layout.query_tags[q])
