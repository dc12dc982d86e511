"""Bounded KV-cache engine with attention-based token eviction.

The package couples a bounded per-layer key/value store (admission,
importance scoring, sparsity-driven budget allocation, pluggable
eviction policies) with a deterministic desk-scale streaming-attention
simulator, brute-force oracles, and trace/metric telemetry.
"""

from .allocation import AllocationResult, allocate, reallocate_step
from .cache import (
    CacheSession,
    LayerCache,
    TokenRow,
    admit,
    footprint_bytes,
    occupancy,
    remove,
)
from .config import StreamConfig, config_from_dict
from .errors import (
    AdmissionOverflow,
    BadTemperature,
    BoundedKVError,
    ConfigError,
    ConfigMismatch,
    IncompleteLog,
    InsufficientUnprotected,
    MalformedTrace,
    ProtectedEviction,
    StaleStats,
    UnknownLayer,
    UnknownToken,
)
from .eviction import EvictionPlan, maintain_step, make_policy, plan_evictions
from .oracle import (
    DivergenceReport,
    baseline_run,
    brute_force_scores,
    compare_runs,
    landmark_retention,
)
from .scoring import AttentionStats, accumulate, importance, importances, layer_sparsity
from .simulate import (
    FrameTokens,
    RunSummary,
    StepReport,
    StreamSimulator,
    generate_frame,
    run_stream,
)
from .telemetry import (
    Trace,
    TraceRecord,
    export_heatmap,
    read_trace,
    summarize,
    summary_row,
    write_trace,
)

__version__ = "0.1.0"
