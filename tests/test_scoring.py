"""Scoring: accumulation, normalizations, importance, sparsity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundedkv.cache import CacheSession, TokenRow, admit
from boundedkv.config import StreamConfig
from boundedkv.errors import StaleStats
from boundedkv.scoring import (
    AttentionStats,
    accumulate,
    importance,
    importances,
    layer_sparsity,
    stats_from_maps,
)

from refimpl import cumulative_scores, population_variance


def session_with(n_tokens, frame_index=1, kinds=None):
    cfg = StreamConfig()
    session = CacheSession(config=cfg)
    kinds = kinds or ["patch"] * n_tokens
    zeros = np.zeros((n_tokens, cfg.dim))
    admit(session, 0, session.issue_token_ids(n_tokens), zeros, zeros, frame_index, kinds)
    return session, session.layers[0].records


def make_stats(step, key_ids, raw):
    raw = np.asarray(raw, dtype=np.float64)
    return AttentionStats(
        step=step, layer_index=0, n_keys=len(key_ids),
        col_sums_raw=raw, col_sums_headmean=raw, key_ids=list(key_ids),
    )


def test_uniform_attention_gains():
    # H=1, M=2 queries, N=4 keys, every weight 0.25: raw sum 0.5 per key,
    # total 2 = H*M, each cumulative score gains 0.5/4 = 0.125.
    session, recs = session_with(4)
    maps = np.full((1, 2, 4), 0.25)
    stats = stats_from_maps(step=0, layer_index=0, maps=maps, key_ids=[r.token_id for r in recs])
    assert stats.col_sums_raw == pytest.approx([0.5] * 4)
    assert float(np.sum(stats.col_sums_raw)) == pytest.approx(1 * 2)
    accumulate(session.layers[0], stats)
    assert [r.cum_score for r in session.layers[0].records] == pytest.approx([0.125] * 4)


def test_stale_stats_rejected():
    session, recs = session_with(3)
    stats = make_stats(0, [recs[0].token_id, recs[1].token_id], [0.5, 0.5])
    with pytest.raises(StaleStats):
        accumulate(session.layers[0], stats)
    reordered = make_stats(0, [r.token_id for r in reversed(recs)], [0.3, 0.3, 0.4])
    with pytest.raises(StaleStats):
        accumulate(session.layers[0], reordered)


def test_exposure_counts_residency_steps():
    session, recs = session_with(2)
    ids = [r.token_id for r in recs]
    # Birth step is already counted by admission.
    accumulate(session.layers[0], make_stats(0, ids, [1.0, 1.0]))
    assert [r.exposure for r in session.layers[0].records] == [1, 1]
    for step in (1, 2, 3):
        session.step_counter = step
        accumulate(session.layers[0], make_stats(step, ids, [1.0, 1.0]))
    assert [r.exposure for r in session.layers[0].records] == [4, 4]
    for r in session.layers[0].records:
        assert r.exposure == 3 - r.birth_step + 1


def test_two_step_accumulation_matches_bruteforce():
    session, recs = session_with(2)
    ids = [r.token_id for r in recs]
    maps_t0 = np.array([[[0.7, 0.3], [0.4, 0.6]]])  # (H=1, M=2, N=2)
    accumulate(session.layers[0], stats_from_maps(0, 0, maps_t0, ids))

    session.step_counter = 1
    newer = list(session.issue_token_ids(2))
    admit(session, 0, newer, np.zeros((2, 32)), np.zeros((2, 32)), 1, ["patch", "patch"])
    all_ids = ids + newer
    maps_t1 = np.array([[[0.1, 0.2, 0.3, 0.4], [0.25, 0.25, 0.25, 0.25]]])
    accumulate(session.layers[0], stats_from_maps(1, 0, maps_t1, all_ids))

    expected = cumulative_scores([(ids, maps_t0), (all_ids, maps_t1)])
    for rec in session.layers[0].records:
        c_ref, e_ref = expected[rec.token_id]
        assert rec.cum_score == pytest.approx(c_ref, rel=1e-12)
        assert rec.exposure == e_ref


def test_importance_division():
    rec = TokenRow(token_id=0, frame_index=2, token_kind="patch", birth_step=2,
                   exposure=1, cum_score=0.125)
    assert importance(rec) == pytest.approx(0.125)


def test_importance_protected_is_infinite():
    cam = TokenRow(token_id=1, frame_index=7, token_kind="camera", birth_step=7,
                   cum_score=0.001)
    assert importance(cam) == math.inf
    first_frame = TokenRow(token_id=2, frame_index=0, token_kind="patch", birth_step=0)
    assert importance(first_frame) == math.inf


def test_importance_discounts_tenure():
    a = TokenRow(token_id=1, frame_index=3, token_kind="patch", birth_step=3, cum_score=0.4, exposure=2)
    b = TokenRow(token_id=2, frame_index=3, token_kind="patch", birth_step=3, cum_score=0.4, exposure=4)
    assert importance(a) == pytest.approx(0.2)
    assert importance(b) == pytest.approx(0.1)


def test_vector_importances_match_rows():
    session, recs = session_with(3, kinds=["camera", "patch", "patch"])
    ids = [r.token_id for r in recs]
    for step in range(3):
        session.step_counter = step
        accumulate(session.layers[0], make_stats(step, ids, [0.4, 0.1, 1.2]))
    layer = session.layers[0]
    expected = [importance(r) for r in layer.records]
    assert importances(layer, np.arange(3)).tolist() == expected
    assert expected[0] == math.inf


def test_sparsity_zero_for_uniform_columns():
    stats = make_stats(0, [0, 1, 2], [0.5, 0.5, 0.5])
    assert layer_sparsity(stats) == 0.0


def test_sparsity_hand_example():
    stats = make_stats(0, [0, 1, 2, 3], [1.0, 0.0, 0.0, 1.0])
    assert layer_sparsity(stats) == pytest.approx(-0.25, abs=1e-15)
    assert layer_sparsity(stats) == pytest.approx(-population_variance([1.0, 0.0, 0.0, 1.0]), abs=1e-15)


def test_denser_map_has_larger_sparsity_value():
    dense = make_stats(0, list(range(4)), [0.5, 0.5, 0.5, 0.5])
    concentrated = make_stats(0, list(range(4)), [1.9, 0.05, 0.03, 0.02])
    assert layer_sparsity(dense) > layer_sparsity(concentrated)


def test_single_key_sparsity_defined():
    stats = make_stats(0, [0], [2.0])
    assert layer_sparsity(stats) == 0.0


def test_cum_score_nondecreasing():
    session, recs = session_with(3)
    ids = [r.token_id for r in recs]
    history = []
    for step in range(5):
        session.step_counter = step
        accumulate(session.layers[0], make_stats(step, ids, [0.4, 0.0, 1.2]))
        history.append([r.cum_score for r in session.layers[0].records])
    for earlier, later in zip(history, history[1:]):
        assert all(b >= a for a, b in zip(earlier, later))


@settings(max_examples=40, deadline=None)
@given(
    sums=st.lists(st.lists(st.floats(0.0, 10.0), min_size=3, max_size=3), min_size=1, max_size=6),
    scale=st.floats(0.1, 50.0),
)
def test_score_scaling_preserves_ordering(sums, scale):
    # Scaling every step's raw column sums scales scores but not argsort.
    def run(multiplier):
        session, recs = session_with(3)
        ids = [r.token_id for r in recs]
        for step, row in enumerate(sums):
            session.step_counter = step
            accumulate(session.layers[0], make_stats(step, ids, [multiplier * x for x in row]))
        recs = session.layers[0].records
        return [r.cum_score for r in recs], [importance(r) for r in recs]

    base_scores, base_imp = run(1.0)
    scaled_scores, scaled_imp = run(scale)
    assert scaled_scores == pytest.approx([scale * s for s in base_scores], rel=1e-9)
    assert np.argsort(base_imp, kind="stable").tolist() == np.argsort(scaled_imp, kind="stable").tolist()
