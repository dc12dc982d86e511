"""Per-layer budget allocation from attention sparsity.

Sparsity values feed a temperature softmax to produce layer shares,
which are converted to integer budgets by floor plus largest-remainder
completion, so the shares sum to the total exactly instead of the
lossy bare floor.

An optional per-layer cap (the stream-horizon capacity) redistributes
share that a layer could never use; without it a full-size budget
(beta = 1) would starve whichever layers the softmax disfavors and
spurious evictions would break baseline equivalence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cache import CacheSession
from .errors import BadTemperature


@dataclass
class AllocationResult:
    """Layer shares and integer budgets for one allocation."""

    shares: list[float]
    budgets: list[int]


def _softmax(sigmas: np.ndarray, tau: float) -> np.ndarray:
    z = sigmas / tau
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def _floor_largest_remainder(weights: list[float], total: int) -> list[int]:
    raw = [w * total for w in weights]
    base = [math.floor(r) for r in raw]
    residue = total - sum(base)
    # Ties on the fractional remainder go to the lower layer index.
    order = sorted(range(len(weights)), key=lambda i: (-(raw[i] - base[i]), i))
    for i in order[:residue]:
        base[i] += 1
    return base


def allocate(sigmas, tau: float, total: int, cap: float = math.inf) -> AllocationResult:
    """Split ``total`` tokens across layers by softmax(sigmas / tau).

    ``cap`` bounds each layer's budget (no bound by default); capped-off
    share is redistributed over the remaining layers, preserving the
    exact total whenever ``total <= layers * cap``.
    """
    if tau <= 0.0 or not math.isfinite(tau):
        raise BadTemperature(f"temperature must be > 0, got {tau}")
    sig = np.asarray(sigmas, dtype=np.float64)
    if sig.ndim != 1 or sig.size == 0:
        raise ValueError("sigmas must be a non-empty 1-d sequence")
    if not np.isfinite(sig).all():
        raise ValueError("sigmas must be finite")
    if total < 0:
        raise ValueError("total budget must be >= 0")

    # The softmax and the sums run in numpy; the rest of the allocation
    # runs on Python floats, whose IEEE arithmetic gives the same values.
    shares = _softmax(sig, tau)
    weights = shares.tolist()

    budgets = [0] * sig.size
    active = list(range(sig.size))
    remaining = total
    while active:
        norm = float(shares[active].sum())
        trial = _floor_largest_remainder([weights[i] / norm for i in active], remaining)
        overflow = [i for i, b in zip(active, trial) if b > cap]
        if not overflow:
            for i, b in zip(active, trial):
                budgets[i] = b
            break
        for i in overflow:
            budgets[i] = cap
            remaining -= cap
        active = [i for i in active if i not in set(overflow)]
    return AllocationResult(shares=weights, budgets=budgets)


def reallocate_step(session: CacheSession, sigmas) -> AllocationResult | None:
    """Refresh the session's per-layer budgets from this step's sparsity.

    The new budgets take effect at the next step's maintenance phase:
    layers whose occupancy now exceeds the new budget evict down before
    admitting the next frame. No-op in unbounded mode.
    """
    cfg = session.config
    if not cfg.bounded:
        return None
    result = allocate(
        sigmas,
        cfg.effective_tau,
        cfg.total_budget_tokens(),
        cap=cfg.frames * cfg.tokens_per_frame,
    )
    for layer, budget in zip(session.layers, result.budgets):
        layer.budget = budget
    return result


def bootstrap_budgets(session: CacheSession) -> AllocationResult | None:
    """Uniform allocation used before any attention statistics exist."""
    return reallocate_step(session, [0.0] * session.config.layers)
