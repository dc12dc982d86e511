"""Workloads and metric names of the stream benchmark.

Standard library only: the parent process (`run.py`) reads this module
without importing numpy or boundedkv. `BENCHMARK.json` at the repository
root must name the same workloads and metrics; `run.py` refuses to run
when the two disagree.
"""

from __future__ import annotations

# Seed kept out of all tuning of this benchmark. Claims made against the
# benchmark are re-checked on it.
HELD_OUT_SEED = 1729

# A run holds at least this many timed steps, so step_ms_p95 has at
# least ten samples beyond it.
MIN_STEPS = 200

# Fresh processes started per run to time import + construction.
SETUP_REPEATS = 11

# Host-speed reference units (hostref.py) each set-up process times
# after its set-up.
SETUP_REF_UNITS = 40

# Stream workloads call boundedkv.run_stream (what `boundedkv run`
# calls). The audit workload runs a stream with full attention maps and
# then the trace write/read and oracle stages.
WORKLOADS: dict[str, dict] = {
    "scale_evict": {
        "kind": "stream",
        "config": dict(layers=8, heads=4, dim=64, tokens_per_frame=32, frames=64,
                       beta=0.2, policy="attention"),
    },
    "scale_unbounded": {
        "kind": "stream",
        "config": dict(layers=8, heads=4, dim=64, tokens_per_frame=32, frames=64,
                       policy="none"),
    },
    "long_stream": {
        "kind": "stream",
        "config": dict(layers=4, heads=2, dim=64, tokens_per_frame=32, registers=0,
                       frames=400, budget_tokens=1024, policy="attention"),
    },
    "trace_audit": {
        "kind": "audit",
        "config": dict(layers=4, heads=2, dim=32, tokens_per_frame=16, frames=32,
                       beta=0.3, policy="attention", keep_maps=True),
    },
}

# (name, unit) of every end-to-end metric, reported with --trace 0.
END_TO_END = [
    ("setup_s", "s"),
    ("frames_per_s", "1/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p95", "ms"),
    ("step_ms_late_p50", "ms"),
    ("peak_rss_mib", "MiB"),
    ("kv_footprint_mib", "MiB"),
    ("landmark_retention", "fraction"),
]

# (name, unit) of every per-layer metric, reported with --trace 1.
# `_ms` is ms per frame on the step path and ms per pass for the
# telemetry and oracle stages.
PER_LAYER = [
    ("simulate.step_self_ms", "ms"),
    ("simulate.generate_frame_ms", "ms"),
    ("simulate.macs_per_step", "count"),
    ("cache.kv_gather_ms", "ms"),
    ("cache.admit_ms", "ms"),
    ("cache.remove_ms", "ms"),
    ("cache.occupancy_mean", "tokens"),
    ("cache.evicted_log_len", "count"),
    ("scoring.stats_ms", "ms"),
    ("scoring.accumulate_ms", "ms"),
    ("scoring.sparsity_ms", "ms"),
    ("scoring.keys_scored", "count"),
    ("eviction.maintain_ms", "ms"),
    ("eviction.plan_ms", "ms"),
    ("eviction.tokens_evicted", "count"),
    ("eviction.victim_ratio", "fraction"),
    ("allocation.reallocate_ms", "ms"),
    ("allocation.clamped_layer_steps", "count"),
    ("allocation.budget_spread", "tokens"),
    ("telemetry.write_trace_ms", "ms"),
    ("telemetry.read_trace_ms", "ms"),
    ("telemetry.trace_mib", "MiB"),
    ("oracle.brute_force_ms", "ms"),
    ("oracle.baseline_run_ms", "ms"),
    ("oracle.compare_runs_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
]

# Counts the traced run derives from spans, keyed by the name of the
# same count taken from the untraced passes' step reports; the two must
# be equal.
TRACED_COUNTS = {
    "macs_per_step": "simulate.macs_per_step",
    "tokens_evicted": "eviction.tokens_evicted",
    "evicted_log_len": "cache.evicted_log_len",
    "keys_scored": "scoring.keys_scored",
    "clamped_layer_steps": "allocation.clamped_layer_steps",
}

# Environment variables that pin BLAS/OpenMP pools to one thread in the
# measuring processes.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
