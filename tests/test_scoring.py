"""Scoring: accumulation, normalizations, importance, sparsity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundedkv.cache import CacheSession, admit
from boundedkv.config import StreamConfig
from boundedkv.errors import StaleStats
from boundedkv.scoring import (
    accumulate,
    importances,
    layer_sparsity,
    stats_from_maps,
)

from builders import layer_record as make_record
from refimpl import cumulative_scores, population_variance


def session_with(n_tokens, protected=None):
    """A session whose layer 0 holds ``n_tokens`` tokens born at step 0,
    unprotected unless ``protected`` lists their flags."""
    cfg = StreamConfig()
    session = CacheSession(config=cfg)
    protected = [False] * n_tokens if protected is None else protected
    zeros = np.zeros((n_tokens, cfg.dim))
    admit(session, 0, zeros, zeros, np.array(protected, dtype=bool))
    return session, session.layers[0].records


def record_from_maps(step, maps, key_ids):
    return make_record(step, key_ids, stats_from_maps(maps))


def test_uniform_attention_gains():
    # H=1, M=2 queries, N=4 keys, every weight 0.25: raw sum 0.5 per key,
    # total 2 = H*M, each cumulative score gains 0.5/4 = 0.125.
    session, recs = session_with(4)
    maps = np.full((1, 2, 4), 0.25)
    record = record_from_maps(0, maps, [r.token_id for r in recs])
    assert record.col_sums_raw == pytest.approx([0.5] * 4)
    assert float(np.sum(record.col_sums_raw)) == pytest.approx(1 * 2)
    accumulate(session.layers[0], record)
    assert [r.cum_score for r in session.layers[0].records] == pytest.approx([0.125] * 4)


def test_stale_stats_rejected():
    session, recs = session_with(3)
    stale = make_record(0, [recs[0].token_id, recs[1].token_id], [0.5, 0.5])
    with pytest.raises(StaleStats):
        accumulate(session.layers[0], stale)
    reordered = make_record(0, [r.token_id for r in reversed(recs)], [0.3, 0.3, 0.4])
    with pytest.raises(StaleStats):
        accumulate(session.layers[0], reordered)


def test_exposure_counts_residency_steps():
    session, recs = session_with(2)
    ids = [r.token_id for r in recs]
    assert [r.exposure for r in recs] == [0, 0]
    # Scoring the birth step counts it.
    accumulate(session.layers[0], make_record(0, ids, [1.0, 1.0]))
    assert [r.exposure for r in session.layers[0].records] == [1, 1]
    for step in (1, 2, 3):
        session.step_counter = step
        accumulate(session.layers[0], make_record(step, ids, [1.0, 1.0]))
    assert [r.exposure for r in session.layers[0].records] == [4, 4]
    for r in session.layers[0].records:
        assert r.exposure == 3 - r.birth_step + 1


def test_two_step_accumulation_matches_bruteforce():
    session, recs = session_with(2)
    ids = [r.token_id for r in recs]
    maps_t0 = np.array([[[0.7, 0.3], [0.4, 0.6]]])  # (H=1, M=2, N=2)
    accumulate(session.layers[0], record_from_maps(0, maps_t0, ids))

    session.step_counter = 1
    newer = admit(session, 0, np.zeros((2, 32)), np.zeros((2, 32)), np.zeros(2, dtype=bool)).tolist()
    all_ids = ids + newer
    maps_t1 = np.array([[[0.1, 0.2, 0.3, 0.4], [0.25, 0.25, 0.25, 0.25]]])
    accumulate(session.layers[0], record_from_maps(1, maps_t1, all_ids))

    expected = cumulative_scores([(ids, maps_t0), (all_ids, maps_t1)])
    for rec in session.layers[0].records:
        c_ref, e_ref = expected[rec.token_id]
        assert rec.cum_score == pytest.approx(c_ref, rel=1e-12)
        assert rec.exposure == e_ref


@pytest.mark.parametrize("protected, cum_score, exposure, expected", [
    (False, 0.125, 1, 0.125),
    (False, 0.75, 3, 0.25),
    (False, 0.4, 2, 0.2),
    (False, 0.4, 4, 0.1),
    (True, 0.001, 1, 0.001),
    (True, 0.5, 2, 0.25),
], ids=["division", "division_exposure3", "tenure2", "tenure4", "camera", "frame0_patch"])
def test_importances_hand_computed(protected, cum_score, exposure, expected):
    # Score over exposure, so tenure alone earns nothing; protected rows
    # (camera, any first-frame token) take the same ratio, since eviction
    # protects them by never making them candidates.
    session, _ = session_with(1, protected=[protected])
    layer = session.layers[0]
    layer.cum_score[0] = cum_score
    layer.scored_step = exposure - 1  # born at step 0
    assert importances(layer, np.arange(1)).tolist() == [expected]


def test_vector_importances_match_rows():
    session, recs = session_with(3, protected=[True, False, False])
    ids = [r.token_id for r in recs]
    for step in range(3):
        session.step_counter = step
        accumulate(session.layers[0], make_record(step, ids, [0.4, 0.1, 1.2]))
    layer = session.layers[0]
    # Three steps of raw / 3 each, over an exposure of 3.
    assert layer.exposure(slice(3)).tolist() == [3, 3, 3]
    values = importances(layer, np.arange(3))
    assert values.tolist() == (layer.cum_score[:3] / 3).tolist()
    assert values.tolist() == pytest.approx([0.4 / 3, 0.1 / 3, 1.2 / 3], rel=1e-12)
    assert importances(layer, np.array([2, 0])).tolist() == [values[2], values[0]]


def test_sparsity_zero_for_uniform_columns():
    assert layer_sparsity(np.array([0.5, 0.5, 0.5])) == 0.0


def test_sparsity_hand_example():
    headmean = np.array([1.0, 0.0, 0.0, 1.0])
    assert layer_sparsity(headmean) == pytest.approx(-0.25, abs=1e-15)
    assert layer_sparsity(headmean) == pytest.approx(-population_variance([1.0, 0.0, 0.0, 1.0]), abs=1e-15)


def test_denser_map_has_larger_sparsity_value():
    dense = np.array([0.5, 0.5, 0.5, 0.5])
    concentrated = np.array([1.9, 0.05, 0.03, 0.02])
    assert layer_sparsity(dense) > layer_sparsity(concentrated)


def test_single_key_sparsity_defined():
    assert layer_sparsity(np.array([2.0])) == 0.0


# Rows of 1..2100 values (a long_stream layer holds about 1024 keys, an
# unbounded scale run 2048), dense random draws at several scales and
# offsets, in both compute widths.
ROWS = st.builds(
    lambda n, seed, scale, offset, dtype: (
        np.random.default_rng(seed).standard_normal(n) * scale + offset).astype(dtype),
    n=st.integers(1, 2100),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-6, 1e-3, 1.0, 1e3]),
    offset=st.sampled_from([0.0, 0.5, 1e3]),
    dtype=st.sampled_from([np.float32, np.float64]),
)


@settings(max_examples=200, deadline=None)
@given(x=ROWS)
def test_sparsity_equals_np_var_bit_for_bit(x):
    # layer_sparsity follows np.var's operation order on float64 column
    # sums (float32 draws are widened, as column sums always are float64).
    x = x.astype(np.float64)
    assert layer_sparsity(x) == -float(np.var(x))


def test_cum_score_nondecreasing():
    session, recs = session_with(3)
    ids = [r.token_id for r in recs]
    history = []
    for step in range(5):
        session.step_counter = step
        accumulate(session.layers[0], make_record(step, ids, [0.4, 0.0, 1.2]))
        history.append([r.cum_score for r in session.layers[0].records])
    for earlier, later in zip(history, history[1:]):
        assert all(b >= a for a, b in zip(earlier, later))


# Column sums of 0.0 or at least 1e-300: a subnormal sum, scaled sum or
# per-step quotient loses bits to underflow (5e-324 / 3 is 0.0, 1e-323 / 3
# is not), and exact ordering under scaling does not hold there.
_NORMAL_SUM = st.one_of(st.just(0.0), st.floats(1e-300, 10.0))


@settings(max_examples=40, deadline=None)
@given(
    sums=st.lists(st.lists(_NORMAL_SUM, min_size=3, max_size=3), min_size=1, max_size=6),
    scale=st.floats(0.1, 50.0),
)
def test_score_scaling_preserves_ordering(sums, scale):
    # Scaling every step's raw column sums scales scores but not argsort.
    def run(multiplier):
        session, recs = session_with(3)
        ids = [r.token_id for r in recs]
        for step, row in enumerate(sums):
            session.step_counter = step
            accumulate(session.layers[0], make_record(step, ids, [multiplier * x for x in row]))
        layer = session.layers[0]
        return layer.cum_score[:3].tolist(), importances(layer, np.arange(3)).tolist()

    base_scores, base_imp = run(1.0)
    scaled_scores, scaled_imp = run(scale)
    assert scaled_scores == pytest.approx([scale * s for s in base_scores], rel=1e-9)
    assert np.argsort(base_imp, kind="stable").tolist() == np.argsort(scaled_imp, kind="stable").tolist()
