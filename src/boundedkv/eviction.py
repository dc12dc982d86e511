"""Eviction policies and the per-step maintenance pass.

All policies share one interface: given a layer cache and a slot count,
name the rows to remove. Maintenance runs before a frame is admitted and
hands each plan's rows to ``LayerCache.evict``, freeing slots against the
budgets computed at the previous step (uniform bootstrap before the
first frame). The pass asks a policy only for a positive slot count,
which the protected floor in ``LayerCache.effective_budget`` keeps
within the unprotected count; a plan that falls short faults at
admission. ``remove``, which evicts by token id, is re-exported here.

The attention policy evicts the lowest importance first, ties to the
newest token, which is the higher row and id because admission takes
birth steps from the step counter; a long survivor has already shown
relevance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cache import CacheSession, LayerCache, remove
from .config import REASON_ADMIT, REASON_SHRINK, StreamConfig
from .scoring import importances

__all__ = ["AttentionPolicy", "EvictionPlan", "NonePolicy", "RandomPolicy", "maintain_step", "make_policy", "remove"]

_POLICY_STREAM_TAG = 18


@dataclass
class EvictionPlan:
    """Victims chosen for one layer in one maintenance pass.

    ``rows`` (the victims' distinct cache rows), ``victim_ids`` (int64)
    and ``importances_at_eviction`` (float64) are parallel arrays, in the
    order the policy chose the victims.
    """

    rows: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))
    victim_ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    importances_at_eviction: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.float64))
    reason: str | None = None


def _candidate_rows(layer: LayerCache) -> np.ndarray:
    """Unprotected rows in cache order."""
    return (~layer.protected[: layer.n]).nonzero()[0]


class AttentionPolicy:
    """Evict the lowest-importance unprotected tokens, deterministically."""

    def plan(self, layer: LayerCache, slots_needed: int) -> EvictionPlan:
        # Newest row first, so the stable sort breaks ties to the newest token.
        rows = _candidate_rows(layer)[::-1]
        values = importances(layer, rows)
        order = np.argsort(values, kind="stable")[:slots_needed]
        victims = rows[order]
        return EvictionPlan(victims, layer.token_id[victims], values[order])


class RandomPolicy:
    """Uniform sample of unprotected tokens from a seeded generator."""

    def __init__(self, seed: int):
        self._rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, _POLICY_STREAM_TAG])))

    def plan(self, layer: LayerCache, slots_needed: int) -> EvictionPlan:
        rows = _candidate_rows(layer)
        victims = rows[self._rng.choice(len(rows), size=slots_needed, replace=False)]
        return EvictionPlan(victims, layer.token_id[victims], importances(layer, victims))


class NonePolicy:
    """Never evicts; an overflowing admit then faults, by design."""

    def plan(self, layer: LayerCache, slots_needed: int) -> EvictionPlan:
        return EvictionPlan()


def make_policy(config: StreamConfig):
    """Policy instance for a session, one per choice of ``config.policy``.

    ``attention`` and ``uniform_budget`` share the attention policy's token
    selection; they differ only in the allocation temperature (handled by the config).
    """
    if config.policy == "random":
        return RandomPolicy(config.seed)
    if config.policy == "none":
        return NonePolicy()
    return AttentionPolicy()


def maintain_step(session: CacheSession, policy) -> list[EvictionPlan]:
    """Free room for the incoming frame in every layer.

    Runs once per frame, before admission, against the budgets in force
    (previous step's reallocation). Returns one plan per layer, in order; a
    layer that evicts nothing, as in unbounded mode, gets an empty one with reason None.
    """
    per_frame, bounded = session.config.tokens_per_frame, session.config.bounded
    plans = []
    for layer in session.layers:
        effective = layer.effective_budget(per_frame)
        slots = layer.occupancy() + per_frame - effective if bounded else 0
        plan = policy.plan(layer, slots) if slots > 0 else EvictionPlan()
        if len(plan.rows):
            plan.reason = REASON_SHRINK if layer.occupancy() > effective else REASON_ADMIT
            layer.evict(plan.rows)
        plans.append(plan)
    return plans
