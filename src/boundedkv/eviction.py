"""Eviction policies and the per-step maintenance pass.

All policies share one interface: given a layer cache and a slot count,
name the token ids to remove. Maintenance runs before a frame is
admitted, freeing slots against the budgets computed at the previous
step (uniform bootstrap before the first frame).

Tie-breaking in the attention policy evicts the newer token first
(higher frame index, then higher token id): a long-surviving token has
already demonstrated relevance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cache import CacheSession, LayerCache, remove
from .config import StreamConfig
from .errors import ConfigError, InsufficientUnprotected
from .scoring import importances

REASON_ADMIT = "budget_admit"
REASON_SHRINK = "budget_shrink"

_POLICY_STREAM_TAG = 18


@dataclass
class EvictionPlan:
    """Victims chosen for one layer in one maintenance pass."""

    layer_index: int
    victim_ids: list[int] = field(default_factory=list)
    reason: str = REASON_ADMIT
    importances_at_eviction: list[float] = field(default_factory=list)


def _candidate_rows(layer: LayerCache, slots_needed: int) -> np.ndarray:
    """Unprotected rows in cache order; raises if they cannot cover the slots."""
    rows = np.flatnonzero(~layer.protected[: layer.n])
    if len(rows) < slots_needed:
        raise InsufficientUnprotected(
            f"layer {layer.layer_index}: need {slots_needed} slots, "
            f"{len(rows)} unprotected tokens"
        )
    return rows


def _plan_rows(layer: LayerCache, rows: np.ndarray, values: np.ndarray) -> EvictionPlan:
    return EvictionPlan(
        layer_index=layer.layer_index,
        victim_ids=layer.token_id[rows].tolist(),
        importances_at_eviction=values.tolist(),
    )


class AttentionPolicy:
    """Evict the lowest-importance unprotected tokens, deterministically."""

    name = "attention"

    def plan(self, layer: LayerCache, slots_needed: int) -> EvictionPlan:
        if slots_needed <= 0:
            return EvictionPlan(layer_index=layer.layer_index)
        rows = _candidate_rows(layer, slots_needed)
        values = importances(layer, rows)
        order = np.lexsort((-layer.token_id[rows], -layer.frame_index[rows], values))[:slots_needed]
        return _plan_rows(layer, rows[order], values[order])


class RandomPolicy:
    """Uniform sample of unprotected tokens from a seeded generator."""

    name = "random"

    def __init__(self, seed: int):
        self._rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, _POLICY_STREAM_TAG])))

    def plan(self, layer: LayerCache, slots_needed: int) -> EvictionPlan:
        if slots_needed <= 0:
            return EvictionPlan(layer_index=layer.layer_index)
        rows = _candidate_rows(layer, slots_needed)
        victims = rows[self._rng.choice(len(rows), size=slots_needed, replace=False)]
        return _plan_rows(layer, victims, importances(layer, victims))


class NonePolicy:
    """Never evicts; an overflowing admit then faults, by design."""

    name = "none"

    def plan(self, layer: LayerCache, slots_needed: int) -> EvictionPlan:
        return EvictionPlan(layer_index=layer.layer_index)


def make_policy(config: StreamConfig):
    """Policy instance for a session.

    ``uniform_budget`` shares the attention policy's token selection; it
    differs only in the allocation temperature (handled by the config).
    """
    if config.policy in ("attention", "uniform_budget"):
        return AttentionPolicy()
    if config.policy == "random":
        return RandomPolicy(config.seed)
    if config.policy == "none":
        return NonePolicy()
    raise ConfigError(f"unknown policy {config.policy!r}")


def plan_evictions(policy, layer_cache: LayerCache, slots_needed: int) -> EvictionPlan:
    if slots_needed < 0:
        raise ValueError("slots_needed must be >= 0")
    return policy.plan(layer_cache, slots_needed)


def maintain_step(session: CacheSession, policy) -> list[EvictionPlan]:
    """Free room for the incoming frame in every layer.

    Runs once per frame, before admission, against the budgets in force
    (previous step's reallocation). Returns one plan per layer that
    evicted. Empty in unbounded mode.
    """
    if session.unbounded:
        return []
    per_frame = session.config.tokens_per_frame
    plans = []
    for layer in session.layers:
        effective = layer.effective_budget(per_frame)
        slots = layer.occupancy() + per_frame - effective
        if slots <= 0:
            continue
        plan = plan_evictions(policy, layer, slots)
        if not plan.victim_ids:
            continue
        plan.reason = REASON_SHRINK if layer.occupancy() > effective else REASON_ADMIT
        remove(session, layer.layer_index, plan.victim_ids)
        plans.append(plan)
    return plans
