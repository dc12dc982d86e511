"""Eviction policies and the maintenance pass."""

import json

import numpy as np
import pytest

from boundedkv.cache import CacheSession, admit, remove
from boundedkv.config import StreamConfig
from boundedkv.errors import InsufficientUnprotected
from boundedkv.eviction import (
    AttentionPolicy,
    NonePolicy,
    RandomPolicy,
    maintain_step,
    make_policy,
    plan_evictions,
)
from boundedkv.scoring import importance
from boundedkv.simulate import run_stream


def build_layer(importances, protected_flags=None, frames=None):
    """A session whose layer 0 holds tokens with the given importances."""
    cfg = StreamConfig()
    session = CacheSession(config=cfg)
    n = len(importances)
    protected_flags = protected_flags or [False] * n
    frames = frames or [1] * n
    zeros = np.zeros((1, cfg.dim))
    for i, tid in enumerate(session.issue_token_ids(n)):
        admit(session, 0, [tid], zeros, zeros, 0 if protected_flags[i] else frames[i], ["patch"])
    layer = session.layers[0]
    layer.cum_score[:n] = importances  # exposure is 1, so score = importance
    return session, layer.records


def test_lowest_importance_evicted_exactly():
    # occupancy 10 (2 protected), budget 9, M=2 => slots = 3.
    imps = [0.02, 0.30, 0.11, 0.07, 0.25, 0.19, 0.05, 0.40]
    session, recs = build_layer([0.0, 0.0] + imps, protected_flags=[True, True] + [False] * 8)
    layer = session.layers[0]
    layer.budget = 9
    slots = layer.occupancy() + 2 - layer.effective_budget(2)
    assert slots == 3
    plan = plan_evictions(AttentionPolicy(), layer, slots)
    chosen = {recs[2 + imps.index(v)].token_id for v in (0.02, 0.05, 0.07)}
    assert set(plan.victim_ids) == chosen
    assert plan.importances_at_eviction == sorted(plan.importances_at_eviction)


def test_zero_slots_empty_plan_for_all_policies():
    session, _ = build_layer([0.5, 0.1])
    for policy in (AttentionPolicy(), RandomPolicy(seed=3), NonePolicy()):
        plan = plan_evictions(policy, session.layers[0], 0)
        assert plan.victim_ids == []


def test_full_sort_oracle_matches_selection():
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([17, 3])))
    for trial in range(30):
        n = int(rng.integers(4, 40))
        imps = np.round(rng.uniform(0.0, 1.0, size=n), 2).tolist()  # rounding forces ties
        frames = rng.integers(1, 6, size=n).tolist()
        session, recs = build_layer(imps, frames=frames)
        slots = int(rng.integers(1, n + 1))
        plan = plan_evictions(AttentionPolicy(), session.layers[0], slots)

        # Oracle: exhaustive repeated minimum extraction with explicit comparator.
        remaining = list(session.layers[0].records)
        expected = []
        for _ in range(slots):
            best = remaining[0]
            for cand in remaining[1:]:
                key_b = (importance(best), -best.frame_index, -best.token_id)
                key_c = (importance(cand), -cand.frame_index, -cand.token_id)
                if key_c < key_b:
                    best = cand
            expected.append(best.token_id)
            remaining.remove(best)
        assert plan.victim_ids == expected


def test_tiebreak_prefers_newer_then_higher_id():
    session, recs = build_layer([0.2, 0.2, 0.2], frames=[1, 3, 3])
    plan = plan_evictions(AttentionPolicy(), session.layers[0], 2)
    # Same importance: frame 3 beats frame 1; within frame 3, higher id first.
    assert plan.victim_ids == [recs[2].token_id, recs[1].token_id]


def test_protected_never_planned():
    session, recs = build_layer(
        [0.0, 0.9, 0.0, 0.9, 0.1, 0.2, 0.3, 0.4],
        protected_flags=[True, True, False, False, False, False, False, False],
    )
    for policy in (AttentionPolicy(), RandomPolicy(seed=11)):
        plan = plan_evictions(policy, session.layers[0], 4)
        protected_ids = {recs[0].token_id, recs[1].token_id}
        assert not protected_ids & set(plan.victim_ids)
        assert len(plan.victim_ids) == 4


def test_insufficient_unprotected_raises():
    session, _ = build_layer([0.1, 0.2], protected_flags=[True, False])
    with pytest.raises(InsufficientUnprotected):
        plan_evictions(AttentionPolicy(), session.layers[0], 2)
    with pytest.raises(InsufficientUnprotected):
        plan_evictions(RandomPolicy(seed=1), session.layers[0], 2)


def test_random_policy_deterministic_per_seed():
    def plans_for(seed):
        session, _ = build_layer(list(np.linspace(0.0, 1.0, 20)))
        policy = RandomPolicy(seed=seed)
        out = []
        for slots in (3, 2, 4):
            plan = plan_evictions(policy, session.layers[0], slots)
            out.append(list(plan.victim_ids))
            remove(session, 0, plan.victim_ids)
        return json.dumps(out)

    assert plans_for(5) == plans_for(5)
    assert plans_for(5) != plans_for(6)


def test_none_policy_never_names_victims():
    session, _ = build_layer([0.1, 0.2, 0.3])
    plan = plan_evictions(NonePolicy(), session.layers[0], 2)
    assert plan.victim_ids == []


def test_make_policy_uniform_budget_shares_attention_selection():
    cfg = StreamConfig(policy="uniform_budget")
    assert isinstance(make_policy(cfg), AttentionPolicy)
    assert cfg.effective_tau == 100.0
    assert StreamConfig(policy="attention").effective_tau == 1.5


def test_maintain_unbounded_no_plans():
    cfg = StreamConfig(frames=4)
    session = CacheSession(config=cfg)
    assert maintain_step(session, AttentionPolicy()) == []


def test_maintain_respects_budget_and_admission_room():
    cfg = StreamConfig(layers=2, tokens_per_frame=4, registers=0, budget_tokens=40, frames=10)
    session = CacheSession(config=cfg)
    for layer in session.layers:
        layer.budget = 20
    for t in range(10):
        plans = maintain_step(session, AttentionPolicy())
        for li in range(2):
            layer = session.layers[li]
            assert layer.occupancy() + 4 <= layer.effective_budget(4)
            ids = list(session.issue_token_ids(4))
            kinds = ["patch" if (tid % 4) else "camera" for tid in ids]
            zeros = np.zeros((4, cfg.dim))
            admit(session, li, ids, zeros, zeros, t, kinds)
            assert layer.occupancy() <= max(layer.budget, layer.protected_count + 4)
        session.step_counter += 1


def test_steady_state_evicts_one_frame_per_step():
    # Single layer keeps the budget constant, so once the cache first
    # fills, every later step evicts exactly one frame's worth.
    cfg = StreamConfig(
        layers=1, heads=2, dim=16, tokens_per_frame=8, registers=0,
        frames=30, budget_tokens=120, policy="attention", seed=3,
    )
    run = run_stream(cfg)
    eviction_counts = [len(run.reports[t].layers[0].evicted_ids) for t in range(cfg.frames)]
    first = next(t for t, c in enumerate(eviction_counts) if c > 0)
    for t in range(first, cfg.frames):
        assert eviction_counts[t] == cfg.tokens_per_frame
