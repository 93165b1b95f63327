"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid model or run configuration."""


class ShapeError(ValueError):
    """Tensor/layout/cache dimension mismatch."""


class RangeError(ValueError):
    """Position or block range outside the sequence."""


class StaleCacheError(RuntimeError):
    """A cache was used as context after its refresh epoch had passed."""


class BlockCompleteError(RuntimeError):
    """A decode decision was requested for a block with no masked positions."""


class NoCandidatesError(RuntimeError):
    """Candidate selection on an empty rejection list; caller should fall
    back to a plain threshold step."""


class ProgressError(RuntimeError):
    """Internal invariant violation: a decode step unmasked zero tokens."""


class DegenerateInputError(ValueError):
    """Metric computation over an empty or zero-cost trajectory."""
