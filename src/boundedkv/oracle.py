"""Ground-truth references: baseline runner, brute-force score
recomputation from logged attention maps, and divergence metrics
between bounded and unbounded runs.

The brute-force path recomputes each token's cumulative score directly
from the full per-head maps (summing over heads and queries itself), so
it is independent of the incremental accumulation it checks, including
that path's column-sum computation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import StreamConfig
from .errors import ConfigMismatch, IncompleteLog
from .simulate import RunSummary, run_stream
from .telemetry import TraceRecord

# Config fields allowed to differ between compared runs.
_NONSTRUCTURAL = {"beta", "budget_tokens", "budget_mode", "ref_frames", "policy", "keep_maps"}


@dataclass
class TokenScores:
    cum_score: float
    exposure: int
    importance: float


@dataclass
class DivergenceReport:
    """Per-frame output differences plus per-layer retained attention mass.

    Retained mass is measured against the baseline's attention
    distribution (open loop): the share of baseline mass that lands on
    keys still resident in the bounded run at the same step.
    """

    max_abs: list[float]
    rms: list[float]
    retained_mass: list[float]

    @property
    def overall_max_abs(self) -> float:
        return max(self.max_abs, default=0.0)

    @property
    def mean_rms(self) -> float:
        return float(np.mean(self.rms)) if self.rms else 0.0


def baseline_run(config: StreamConfig) -> RunSummary:
    """Unbounded no-eviction run sharing the exact compute kernels.

    The run keeps no attention maps: ``compare_runs`` reads only outputs,
    key ids and column sums, and ``keep_maps`` is nonstructural, so the
    result compares against a ``keep_maps`` run unchanged.
    """
    return run_stream(replace(config, policy="none", beta=None, budget_tokens=None, keep_maps=False))


def map_log_from_records(records: list[TraceRecord], layer: int) -> list[TraceRecord]:
    """The layer's records, each checked to carry its attention maps."""
    entries = [rec for rec in records if rec.layer == layer]
    for rec in entries:
        if rec.maps is None:
            raise IncompleteLog(f"record (step {rec.step}, layer {layer}) has no map payload")
    return entries


def brute_force_scores(map_log: list[TraceRecord]) -> dict[int, TokenScores]:
    """Recompute cumulative score, exposure, and importance from maps.

    For each token: the score is the sum over its residency steps of the
    per-step column sum (over heads and queries) divided by that step's
    key count; exposure counts the residency steps; importance is their
    ratio. Tokens evicted at step k accrue nothing from later steps by
    construction (they no longer appear as columns). Only each record's
    ``step``, ``key_ids`` and ``maps`` are read.
    """
    entries = sorted(map_log, key=lambda e: e.step)
    if not entries:
        raise IncompleteLog("empty map log")
    if [e.step for e in entries] != list(range(len(entries))):
        raise IncompleteLog(f"log steps {[e.step for e in entries]} are not 0..{len(entries) - 1}")

    scores: dict[int, float] = {}
    exposures: dict[int, int] = {}
    for entry in entries:
        maps = np.asarray(entry.maps, dtype=np.float64)
        if maps.ndim != 3 or maps.shape[2] != len(entry.key_ids):
            raise IncompleteLog(
                f"step {entry.step}: map shape {maps.shape} does not cover {len(entry.key_ids)} keys"
            )
        col_sums = maps.sum(axis=(0, 1))
        inv_n = 1.0 / len(entry.key_ids)
        for tid, c in zip(entry.key_ids.tolist(), col_sums.tolist()):
            scores[tid] = scores.get(tid, 0.0) + c * inv_n
            exposures[tid] = exposures.get(tid, 0) + 1
    return {
        tid: TokenScores(cum_score=scores[tid], exposure=exposures[tid], importance=scores[tid] / exposures[tid])
        for tid in scores
    }


def compare_runs(bounded: RunSummary, baseline: RunSummary) -> DivergenceReport:
    """Per-frame output divergence and per-layer retained attention mass."""
    cfg_a = {k: v for k, v in bounded.config.to_dict().items() if k not in _NONSTRUCTURAL}
    cfg_b = {k: v for k, v in baseline.config.to_dict().items() if k not in _NONSTRUCTURAL}
    if cfg_a != cfg_b:
        diff = [k for k in cfg_a if cfg_a[k] != cfg_b[k]]
        raise ConfigMismatch(f"runs differ structurally in {diff}")

    max_abs, rms = [], []
    for a, b in zip(bounded.outputs, baseline.outputs):
        delta = a.astype(np.float64) - b.astype(np.float64)
        max_abs.append(float(np.max(np.abs(delta))))
        rms.append(float(np.sqrt(np.mean(delta * delta))))

    retained = []
    for layer in range(baseline.config.layers):
        kept = 0.0
        total = 0.0
        for report_b, report_a in zip(baseline.reports, bounded.reports):
            base = report_b.layers[layer]
            mass = base.col_sums_raw / baseline.config.heads
            total += float(mass.sum())
            kept += float(mass[np.isin(base.key_ids, report_a.layers[layer].key_ids)].sum())
        retained.append(kept / total if total > 0 else 1.0)

    return DivergenceReport(max_abs=max_abs, rms=rms, retained_mass=retained)


def landmark_token_ids(run: RunSummary, layer: int) -> set[int]:
    """Ids of unprotected landmark tokens admitted to a layer.

    Frame-0 landmarks are excluded: protection retains them under every
    policy, which would flatten retention comparisons.
    """
    m = run.config.tokens_per_frame
    ids: set[int] = set()
    for report, mask in zip(run.reports[1:], run.landmark_masks[1:]):
        # Landmarks are planted on patch slots only.
        ids.update(report.layers[layer].key_ids[-m:][mask].tolist())
    return ids


def landmark_retention(run: RunSummary) -> list[float]:
    """Per-layer fraction of planted (unprotected) landmarks still resident."""
    out = []
    for layer in range(run.config.layers):
        planted = landmark_token_ids(run, layer)
        if not planted:
            out.append(float("nan"))
            continue
        final_ids = set(run.reports[-1].layers[layer].key_ids.tolist())
        out.append(len(planted & final_ids) / len(planted))
    return out
