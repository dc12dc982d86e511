"""Independent reference implementations used as test oracles.

These deliberately avoid the package's code paths: high-precision
softmax and largest-remainder via mpmath, population variance via
mpmath, a slow pure-loop attention evaluator, and a trace writer on the
standard library's ``json``. They stay independent of the
implementations they check.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict

import mpmath as mp
import numpy as np

mp.mp.dps = 50


def softmax_shares(sigmas, tau) -> list[float]:
    """High-precision softmax of sigmas / tau."""
    exps = [mp.e ** (mp.mpf(s) / mp.mpf(tau)) for s in sigmas]
    total = mp.fsum(exps)
    return [float(e / total) for e in exps]


def largest_remainder(weights, total: int) -> list[int]:
    """Floor allocation completed by largest fractional remainder.

    Ties go to the lower index. ``weights`` are exact mpmath shares.
    """
    raw = [mp.mpf(w) * total for w in weights]
    base = [int(mp.floor(r)) for r in raw]
    residue = total - sum(base)
    remainders = [(-(r - b), i) for i, (r, b) in enumerate(zip(raw, base))]
    for _, i in sorted(remainders)[:residue]:
        base[i] += 1
    return base


def allocate_reference(sigmas, tau, total: int) -> list[int]:
    exps = [mp.e ** (mp.mpf(s) / mp.mpf(tau)) for s in sigmas]
    denom = mp.fsum(exps)
    return largest_remainder([e / denom for e in exps], total)


def population_variance(values) -> float:
    xs = [mp.mpf(v) for v in values]
    mean = mp.fsum(xs) / len(xs)
    return float(mp.fsum((x - mean) ** 2 for x in xs) / len(xs))


def slow_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int, scale_mult: float):
    """Triple-loop scaled-dot attention; returns (context, maps).

    Everything is evaluated element by element in float64, independent
    of any vectorized kernel.
    """
    m, d = q.shape
    n = k.shape[0]
    head_dim = d // heads
    maps = np.zeros((heads, m, n))
    ctx = np.zeros((m, d))
    for h in range(heads):
        lo, hi = h * head_dim, (h + 1) * head_dim
        for i in range(m):
            logits = []
            for j in range(n):
                acc = 0.0
                for c in range(lo, hi):
                    acc += float(q[i, c]) * float(k[j, c])
                logits.append(acc * scale_mult / math.sqrt(head_dim))
            peak = max(logits)
            weights = [math.exp(x - peak) for x in logits]
            norm = sum(weights)
            for j in range(n):
                maps[h, i, j] = weights[j] / norm
            for c in range(lo, hi):
                acc = 0.0
                for j in range(n):
                    acc += maps[h, i, j] * float(v[j, c])
                ctx[i, c] = acc
    return ctx, maps


def per_head_attention(q, k, v, heads: int, scale_mult: float) -> tuple[np.ndarray, np.ndarray]:
    """Scaled-dot attention as a loop over heads; returns (context, maps).

    Same numpy operations as ``simulate._multihead_attention`` in the
    same order (float64 upcast before scaling, max-shifted softmax), one
    head at a time with fresh temporaries, so the batched in-place
    kernel must equal it bit for bit.
    """

    def split_heads(x):
        n, d = x.shape
        return x.reshape(n, heads, d // heads).transpose(1, 0, 2)

    def softmax_rows_f64(logits):
        z = logits.astype(np.float64, copy=False)
        z = z - z.max(axis=-1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=-1, keepdims=True)

    qh = split_heads(q)
    kh = split_heads(k)
    vh = split_heads(v)
    head_dim = q.shape[1] // heads
    scale = scale_mult / math.sqrt(head_dim)
    maps = np.empty((heads, q.shape[0], k.shape[0]), dtype=np.float64)
    ctx = np.empty((heads, q.shape[0], head_dim), dtype=np.float64)
    for h in range(heads):
        logits = (qh[h] @ kh[h].T).astype(np.float64, copy=False) * scale
        maps[h] = softmax_rows_f64(logits)
        ctx[h] = maps[h] @ vh[h].astype(np.float64, copy=False)
    merged = ctx.transpose(1, 0, 2).reshape(q.shape[0], q.shape[1])
    return merged, maps


def cumulative_scores(step_logs) -> dict[int, tuple[float, int]]:
    """Recompute (cum_score, exposure) from (key_ids, maps) step logs.

    ``step_logs`` is an iterable of (key_ids, maps) in step order; maps
    are (H, M, N) arrays. Plain Python accumulation, no numpy reductions
    shared with the implementation under test.
    """
    scores: dict[int, float] = {}
    exposure: dict[int, int] = {}
    for key_ids, maps in step_logs:
        n = len(key_ids)
        for col, tid in enumerate(key_ids):
            acc = 0.0
            for h in range(maps.shape[0]):
                for row in range(maps.shape[1]):
                    acc += float(maps[h, row, col])
            scores[tid] = scores.get(tid, 0.0) + acc / n
            exposure[tid] = exposure.get(tid, 0) + 1
    return {tid: (scores[tid], exposure[tid]) for tid in scores}


def retained_mass_by_id(bounded, baseline, layer: int) -> float:
    """Share of the baseline's head-mean column mass on keys resident in
    the bounded run at the same step, for one layer.

    Residency is tested one id at a time against a Python set. The sums
    are the same numpy reductions the package uses, so the two results
    can be compared exactly.
    """
    kept = total = 0.0
    for report_b, report_a in zip(baseline.reports, bounded.reports):
        resident = {int(tid) for tid in report_a.layers[layer].key_ids}
        base = report_b.layers[layer]
        mass = np.asarray(base.col_sums_raw, dtype=np.float64) / baseline.config.heads
        keep = np.array([int(tid) in resident for tid in base.key_ids], dtype=bool)
        total += float(mass.sum())
        kept += float(mass[keep].sum())
    return kept / total if total > 0 else 1.0


def landmark_retention_by_id(run, layer: int) -> float:
    """Fraction of a layer's planted landmarks, frames 1 onward, that are
    resident at the last step; NaN when none were planted."""
    m = run.config.tokens_per_frame
    planted = set()
    for report, mask in zip(run.reports[1:], run.landmark_masks[1:]):
        admitted = [int(tid) for tid in report.layers[layer].key_ids][-m:]
        for slot in range(m):
            if mask[slot]:
                planted.add(admitted[slot])
    if not planted:
        return math.nan
    final = {int(tid) for tid in run.reports[-1].layers[layer].key_ids}
    return sum(1 for tid in planted if tid in final) / len(planted)


# A trace record's keys in file order; "evicted" pairs each victim's id
# and importance, and "col_sums_headmean" is col_sums_raw / heads.
TRACE_RECORD_KEYS = ("step", "layer", "n_keys", "budget_pre", "budget_post", "occupancy_pre",
                     "occupancy_post", "protected_count", "clamped", "reason", "evicted", "sigma",
                     "pi", "multiplies", "footprint_bytes", "key_ids", "col_sums_raw",
                     "col_sums_headmean", "maps")


def stdlib_trace_bytes(source) -> bytes:
    """The bytes of the trace of a run or of a trace read back, written
    field by field with ``json.dumps`` and ``\\n`` line ends."""
    config = source.config if isinstance(source.config, dict) else asdict(source.config)
    header = {"format": "boundedkv-trace", "version": 1, "config": config, "budget": source.budget}
    lines = [header]
    for rec in source.records:
        values = {}
        for key in TRACE_RECORD_KEYS:
            if key == "evicted":
                values[key] = [{"token_id": int(tid), "importance": float(imp)}
                               for tid, imp in zip(rec.evicted_ids, rec.evicted_importances)]
            elif key == "col_sums_headmean":
                values[key] = (np.asarray(rec.col_sums_raw) / config["heads"]).tolist()
            else:
                value = getattr(rec, key)
                values[key] = value.tolist() if isinstance(value, np.ndarray) else value
        lines.append(values)
    return "".join(json.dumps(line, separators=(",", ":")) + "\n" for line in lines).encode("ascii")
