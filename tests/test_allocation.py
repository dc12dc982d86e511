"""Budget allocation: softmax shares, integer completion, caps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundedkv.allocation import allocate, bootstrap_budgets, reallocate_step
from boundedkv.cache import CacheSession
from boundedkv.config import StreamConfig
from boundedkv.errors import BadTemperature

from refimpl import allocate_reference, softmax_shares


def test_worked_example_exact_integers():
    # Variances [2, 1, 3] => sigmas [-2, -1, -3], tau 1.5, total 300.
    sigmas = [-2.0, -1.0, -3.0]
    assert allocate_reference(sigmas, 1.5, 300) == [87, 169, 44]
    result = allocate(sigmas, 1.5, 300)
    assert result.budgets == [87, 169, 44]
    assert result.shares == pytest.approx([0.28892, 0.56274, 0.14834], abs=5e-6)
    assert result.shares == pytest.approx(softmax_shares(sigmas, 1.5), rel=1e-12)


def test_equal_sigmas_split_uniformly():
    result = allocate([0.0] * 4, 1.5, 400)
    assert result.shares == pytest.approx([0.25] * 4)
    assert result.budgets == [100, 100, 100, 100]
    # An indivisible total: the remainder's ties go to the lower layer.
    assert allocate([0.0] * 3, 1.0, 4).budgets == [2, 1, 1]


def test_negative_total_rejected():
    with pytest.raises(ValueError, match="total budget"):
        allocate([0.0, 0.0], 1.0, -1)


@pytest.mark.parametrize("sigmas", [[], [[0.0, 1.0]]], ids=["empty", "two_d"])
def test_sigmas_must_be_a_non_empty_vector(sigmas):
    with pytest.raises(ValueError, match="sigmas must be a non-empty 1-d sequence"):
        allocate(sigmas, 1.0, 10)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sigmas_must_be_finite(bad):
    with pytest.raises(ValueError, match="sigmas must be finite"):
        allocate([0.0, bad], 1.0, 10)


def test_bad_temperature():
    with pytest.raises(BadTemperature):
        allocate([0.0, 0.0], 0.0, 10)
    with pytest.raises(BadTemperature):
        allocate([0.0, 0.0], -1.5, 10)


@settings(max_examples=200, deadline=None)
@given(
    sigmas=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=9),
    tau=st.floats(0.05, 120.0),
    total=st.integers(0, 5000),
)
def test_total_is_exact(sigmas, tau, total):
    result = allocate(sigmas, tau, total)
    assert sum(result.budgets) == total
    assert all(b >= 0 for b in result.budgets)
    assert sum(result.shares) == pytest.approx(1.0, abs=1e-9)


def test_matches_high_precision_oracle_on_fuzz():
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([41, 7])))
    for _ in range(200):
        n = int(rng.integers(1, 8))
        sigmas = rng.normal(0.0, 2.0, size=n).tolist()
        tau = float(rng.uniform(0.2, 20.0))
        total = int(rng.integers(0, 2000))
        assert allocate(sigmas, tau, total).budgets == allocate_reference(sigmas, tau, total)


def test_shift_invariance():
    sigmas = [-0.3, -1.2, -0.7, -2.4]
    base = allocate(sigmas, 1.5, 333)
    shifted = allocate([s + 17.5 for s in sigmas], 1.5, 333)
    assert shifted.budgets == base.budgets
    assert shifted.shares == pytest.approx(base.shares, rel=1e-9)


def test_monotone_in_variance():
    # Lower variance => larger sigma => larger share and budget.
    variances = [3.0, 0.5, 1.7, 0.9]
    result = allocate([-v for v in variances], 1.5, 1000)
    order = np.argsort(variances)
    shares = [result.shares[i] for i in order]
    budgets = [result.budgets[i] for i in order]
    assert shares == sorted(shares, reverse=True)
    assert budgets == sorted(budgets, reverse=True)


def test_large_tau_near_uniform():
    # On the sparsity domain (sigma = -variance <= 0) with |sigma| <= 3,
    # tau=100 keeps every share within 1% of uniform, for any layer count.
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([41, 8])))
    for layers in (2, 4, 6, 8):
        for _ in range(250):
            sigmas = (-rng.uniform(0.0, 3.0, size=layers)).tolist()
            result = allocate(sigmas, 100.0, 1000)
            deviation = max(abs(p - 1.0 / layers) for p in result.shares)
            assert deviation <= 0.01
    # Worst case on that domain: one dense layer against all-sparse rest.
    worst = allocate([0.0, -3.0, -3.0, -3.0], 100.0, 1000)
    assert max(abs(p - 0.25) for p in worst.shares) <= 0.01


def test_small_tau_concentrates():
    result = allocate([-1.0, -0.2, -3.0], 1e-4, 500)
    assert result.budgets == [0, 500, 0]


def test_cap_redistributes_surplus():
    # tau-driven shares would starve layer 2 below the horizon capacity;
    # the cap hands its unusable surplus over.
    result = allocate([0.0, 0.0, -2.0], 1.5, 300, cap=100)
    assert sum(result.budgets) == 300
    assert result.budgets == [100, 100, 100]
    uncapped = allocate([0.0, 0.0, -2.0], 1.5, 300)
    assert uncapped.budgets[2] < 100


def test_cap_only_binds_when_needed():
    result = allocate([-2.0, -1.0, -3.0], 1.5, 300, cap=1000)
    assert result.budgets == [87, 169, 44]


def make_session(**kwargs):
    cfg = StreamConfig(**kwargs)
    cfg.validate()
    return CacheSession(config=cfg)


def test_bootstrap_is_uniform():
    session = make_session(layers=4, budget_tokens=400, frames=100)
    result = bootstrap_budgets(session)
    assert result.shares == pytest.approx([0.25] * 4)
    assert [layer.budget for layer in session.layers] == [100, 100, 100, 100]


def test_constant_sigmas_freeze_budgets():
    session = make_session(layers=3, budget_tokens=300, frames=50)
    sigmas = [-0.4, -0.1, -0.9]
    first = reallocate_step(session, sigmas)
    budgets = [layer.budget for layer in session.layers]
    for _ in range(5):
        again = reallocate_step(session, sigmas)
        assert [layer.budget for layer in session.layers] == budgets
        assert again.budgets == first.budgets


def test_rising_variance_never_raises_budget():
    # One layer's variance rises monotonically, the others stay fixed:
    # its budget is non-increasing across the sweep.
    session = make_session(layers=3, budget_tokens=600, frames=100)
    previous = None
    for variance in np.linspace(0.1, 4.0, 25):
        reallocate_step(session, [-0.5, -float(variance), -1.5])
        budget = session.layers[1].budget
        if previous is not None:
            assert budget <= previous
        previous = budget


def test_reallocate_unbounded_is_noop():
    session = make_session(layers=3)
    assert reallocate_step(session, [-0.1, -0.2, -0.3]) is None
    assert all(layer.budget is None for layer in session.layers)
