"""Eviction policies and the maintenance pass."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundedkv.cache import CacheSession, admit, remove
from boundedkv.config import StreamConfig
from boundedkv.errors import ProtectedEviction
from boundedkv.eviction import (
    REASON_ADMIT,
    REASON_SHRINK,
    AttentionPolicy,
    EvictionPlan,
    NonePolicy,
    RandomPolicy,
    maintain_step,
    make_policy,
)
from boundedkv.simulate import run_stream

from builders import layer_bytes


def build_layer(scores, protected=None, births=None):
    """A session whose layer 0 holds tokens with the given cumulative
    scores, protection flags (default none) and nondecreasing birth steps
    (default all 1), scored up to the newest birth step; a token born
    then has exposure 1, so its score is its importance."""
    cfg = StreamConfig()
    session = CacheSession(config=cfg)
    n = len(scores)
    protected = protected or [False] * n
    births = births or [1] * n
    zeros = np.zeros((1, cfg.dim))
    for i in range(n):
        session.step_counter = births[i]
        admit(session, 0, zeros, zeros, np.array([protected[i]]))
    layer = session.layers[0]
    layer.cum_score[:n] = scores
    layer.scored_step = births[-1]
    return session, layer.records


def test_lowest_importance_evicted_exactly():
    # occupancy 10 (2 protected), budget 9, M=2 => slots = 3.
    imps = [0.02, 0.30, 0.11, 0.07, 0.25, 0.19, 0.05, 0.40]
    session, recs = build_layer([0.0, 0.0] + imps, protected=[True, True] + [False] * 8)
    layer = session.layers[0]
    layer.budget = 9
    slots = layer.occupancy() + 2 - layer.effective_budget(2)
    assert slots == 3
    plan = AttentionPolicy().plan(layer, slots)
    chosen = {recs[2 + imps.index(v)].token_id for v in (0.02, 0.05, 0.07)}
    assert set(plan.victim_ids) == chosen
    assert plan.importances_at_eviction.tolist() == sorted(plan.importances_at_eviction)


def test_zero_slots_empty_plan_for_all_policies():
    session, _ = build_layer([0.5, 0.1])
    for policy in (AttentionPolicy(), RandomPolicy(seed=3), NonePolicy()):
        plan = policy.plan(session.layers[0], 0)
        assert plan.victim_ids.tolist() == []


def oracle_victims(layer, slots):
    """Victim ids and importances by exhaustive repeated minimum
    extraction over the unprotected residents, with an explicit
    comparator on importance = cum_score / exposure: lowest first (NaN
    last, as numpy sorts it), then later birth, then higher id."""
    def key(rec):
        value = rec.cum_score / rec.exposure
        return (math.isnan(value), 0.0 if math.isnan(value) else value, -rec.birth_step, -rec.token_id)

    remaining = [rec for rec, shielded in zip(layer.records, layer.protected) if not shielded]
    chosen = []
    for _ in range(slots):
        best = remaining[0]
        for cand in remaining[1:]:
            if key(cand) < key(best):
                best = cand
        chosen.append(best)
        remaining.remove(best)
    return [rec.token_id for rec in chosen], [rec.cum_score / rec.exposure for rec in chosen]


def test_full_sort_oracle_matches_selection():
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([17, 3])))
    for trial in range(30):
        n = int(rng.integers(4, 40))
        scores = np.round(rng.uniform(0.0, 1.0, size=n), 2).tolist()  # rounding forces ties
        births = np.sort(rng.integers(1, 6, size=n)).tolist()  # birth steps follow the step counter
        session, _ = build_layer(scores, births=births)
        layer = session.layers[0]
        slots = int(rng.integers(1, n + 1))
        plan = AttentionPolicy().plan(layer, slots)
        assert plan.victim_ids.tolist() == oracle_victims(layer, slots)[0]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_selection_matches_oracle_on_ties_nan_and_inf(data):
    # Few distinct scores over few birth steps and exposures: ties within
    # and across birth steps, and between non-finite importances.
    n = data.draw(st.integers(1, 30))
    n_protected = data.draw(st.integers(0, min(3, n - 1)))
    scores = data.draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, math.inf, math.nan]), min_size=n, max_size=n))
    births = sorted(data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    session, _ = build_layer(scores, protected=[True] * n_protected + [False] * (n - n_protected),
                             births=births)
    layer = session.layers[0]
    layer.scored_step = data.draw(st.integers(3, 5))
    slots = data.draw(st.integers(1, n - n_protected))
    plan = AttentionPolicy().plan(layer, slots)
    ids, values = oracle_victims(layer, slots)
    assert plan.victim_ids.tolist() == ids
    np.testing.assert_array_equal(plan.importances_at_eviction, values)


def test_tiebreak_prefers_newer_then_higher_id():
    # Scored to step 3: exposures 3, 1, 1, so every importance is 0.25.
    session, recs = build_layer([0.75, 0.25, 0.25], births=[1, 3, 3])
    plan = AttentionPolicy().plan(session.layers[0], 2)
    # Same importance: birth step 3 beats 1; within step 3, higher id first.
    assert plan.victim_ids.tolist() == [recs[2].token_id, recs[1].token_id]


def test_protected_never_planned():
    session, recs = build_layer(
        [0.0, 0.9, 0.0, 0.9, 0.1, 0.2, 0.3, 0.4],
        protected=[True, True, False, False, False, False, False, False],
    )
    for policy in (AttentionPolicy(), RandomPolicy(seed=11)):
        plan = policy.plan(session.layers[0], 4)
        protected_ids = {recs[0].token_id, recs[1].token_id}
        assert not protected_ids & set(plan.victim_ids)
        assert len(plan.victim_ids) == 4


@pytest.mark.parametrize("policy", [AttentionPolicy(), RandomPolicy(seed=4)], ids=["attention", "random"])
def test_plan_rows_hold_the_victims(policy):
    # Two tokens evicted first, so rows and ids part ways.
    session, recs = build_layer(list(np.linspace(0.0, 1.0, 12)), protected=[True] + [False] * 11)
    remove(session, 0, [recs[2].token_id, recs[5].token_id])
    layer = session.layers[0]
    plan = policy.plan(layer, 4)
    assert len(np.unique(plan.rows)) == 4
    np.testing.assert_array_equal(layer.token_id[plan.rows], plan.victim_ids)


def test_maintain_refuses_a_plan_that_names_a_protected_row():
    class TopRows:
        """A faulty policy: the first rows, protected or not."""

        def plan(self, layer, slots_needed):
            rows = np.arange(slots_needed)
            return EvictionPlan(rows, layer.token_id[rows], np.zeros(slots_needed))

    cfg = StreamConfig(layers=1, tokens_per_frame=4, registers=0, budget_tokens=8, frames=10)
    session = CacheSession(config=cfg)
    layer = session.layers[0]
    layer.budget = 8
    rng = np.random.Generator(np.random.PCG64(5))
    for t in range(2):  # step 0's frame is protected
        session.step_counter = t
        admit(session, 0, rng.normal(size=(4, cfg.dim)), rng.normal(size=(4, cfg.dim)), np.full(4, t == 0))
    before = layer_bytes(layer)
    with pytest.raises(ProtectedEviction):
        maintain_step(session, TopRows())
    assert (layer.n, layer.n_evicted, layer.protected_count) == (8, 0, 4)
    assert layer_bytes(layer) == before


def test_random_policy_deterministic_per_seed():
    def plans_for(seed):
        session, _ = build_layer(list(np.linspace(0.0, 1.0, 20)))
        policy = RandomPolicy(seed=seed)
        out = []
        for slots in (3, 2, 4):
            plan = policy.plan(session.layers[0], slots)
            out.append(plan.victim_ids.tolist())
            remove(session, 0, plan.victim_ids)
        return json.dumps(out)

    assert plans_for(5) == plans_for(5)
    assert plans_for(5) != plans_for(6)


def test_none_policy_never_names_victims():
    session, _ = build_layer([0.1, 0.2, 0.3])
    plan = NonePolicy().plan(session.layers[0], 2)
    assert plan.victim_ids.tolist() == []


def test_make_policy_uniform_budget_shares_attention_selection():
    cfg = StreamConfig(policy="uniform_budget")
    assert isinstance(make_policy(cfg), AttentionPolicy)
    assert cfg.effective_tau == 100.0
    assert StreamConfig(policy="attention").effective_tau == 1.5


def test_maintain_unbounded_no_plans():
    cfg = StreamConfig(frames=4)
    session = CacheSession(config=cfg)
    plans = maintain_step(session, AttentionPolicy())
    assert len(plans) == cfg.layers
    assert all(plan.reason is None and not len(plan.victim_ids) and not len(plan.importances_at_eviction)
               for plan in plans)


def test_maintain_returns_one_plan_per_layer_in_order():
    # Three frames per layer, then budgets that make layers 0 and 2
    # evict (4 and 6 tokens) and layer 1 not: each plan names only its
    # own layer's residents, and the idle layer's plan is empty.
    cfg = StreamConfig(layers=3, tokens_per_frame=4, registers=0, budget_tokens=60, frames=10)
    session = CacheSession(config=cfg)
    for layer in session.layers:
        layer.budget = 20
    zeros = np.zeros((4, cfg.dim))
    for t in range(3):
        for li in range(3):
            admit(session, li, zeros, zeros, np.array([True] + [t == 0] * 3))  # step 0 all protected
            session.layers[li].scored_step = t
        session.step_counter += 1
    resident = [set(layer.token_id[:layer.n].tolist()) for layer in session.layers]
    for layer, budget in zip(session.layers, [12, 40, 8]):
        layer.budget = budget
    plans = maintain_step(session, AttentionPolicy())
    assert [len(plan.victim_ids) for plan in plans] == [4, 0, 6]
    assert [plan.reason for plan in plans] == [REASON_ADMIT, None, REASON_SHRINK]
    for li, plan in enumerate(plans):
        assert set(plan.victim_ids.tolist()) <= resident[li]


def test_eviction_reasons():
    # A record names a reason exactly when its layer evicted: shrink
    # when the layer held more than its budget before the frame came,
    # admit when it only made room for the frame.
    records = run_stream(StreamConfig(beta=0.3)).records
    assert all((rec.reason is None) == (len(rec.evicted_ids) == 0) for rec in records)
    assert {REASON_ADMIT, REASON_SHRINK} <= {rec.reason for rec in records}
    unclamped = [rec for rec in records if not rec.clamped]
    assert any(rec.reason == REASON_SHRINK for rec in unclamped)
    for rec in unclamped:
        assert (rec.reason == REASON_SHRINK) == (rec.occupancy_pre > rec.budget_pre)


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
            zeros = np.zeros((4, cfg.dim))
            admit(session, li, zeros, zeros, np.array([True, False, False, False]) | (t == 0))
            layer.scored_step = t
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
