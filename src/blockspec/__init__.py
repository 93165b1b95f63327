"""Block-wise KV-cached inference engine and benchmark harness for masked
diffusion language models: threshold parallel decoding over a dual
prefix/suffix cache, adaptive length prediction at refresh time, jump-share
speculative steps, and an analytical roofline cost model."""

from .alp import TruncationEvent, apply_truncation, scan_eos
from .cache import (
    CacheView,
    DualCache,
    PrefillDraft,
    cache_view,
    refresh_dual_cache,
)
from .decoder import (
    DecodeState,
    RunConfig,
    StepOutcome,
    decode,
    tau_leaping_step,
    threshold_step,
)
from .errors import (
    BlockCompleteError,
    ConfigError,
    DegenerateInputError,
    NoCandidatesError,
    ProgressError,
    RangeError,
    ShapeError,
    StaleCacheError,
)
from .layout import (
    AttentionLayout,
    build_block_layout,
    build_spec_layout,
    full_sequence_layout,
)
from .metrics import (
    CostRecord,
    HardwareProfile,
    MetricsReport,
    cost_of_forward,
    estimate_speedup,
    trajectory_metrics,
)
from .model import (
    LogitsView,
    ModelConfig,
    ScriptedModel,
    ScriptedSchedule,
    ToyModel,
    count_params,
    scripted_forward,
)
from .speculative import (
    Candidate,
    CandidateSet,
    SpecSet,
    resolve_jump,
    select_candidates,
    spec_step,
)
from .trajectory import StepRecord, Trajectory

__version__ = "0.1.0"
