"""Baseline runner, brute-force scoring, divergence metrics."""

from dataclasses import replace

import numpy as np
import pytest

from boundedkv.config import StreamConfig
from boundedkv.errors import ConfigMismatch, IncompleteLog
from boundedkv.oracle import (
    baseline_run,
    brute_force_scores,
    compare_runs,
    landmark_retention,
    map_log_from_records,
)
from boundedkv.scoring import importances
from boundedkv.simulate import run_stream
from boundedkv.telemetry import read_trace, write_trace

from builders import layer_record
from refimpl import cumulative_scores, landmark_retention_by_id, retained_mass_by_id

DESK = dict(layers=4, heads=2, dim=32, tokens_per_frame=8, registers=1, seed=7)


def test_baseline_occupancy_and_quadratic_totals():
    cfg = StreamConfig(**DESK, frames=8)
    run = baseline_run(cfg)
    m = cfg.tokens_per_frame
    for layer in range(cfg.layers):
        assert run.reports[-1].layers[layer].occupancy_post == 8 * m
    # Per-step count is linear in t, so totals follow T(T+1)/2 exactly.
    unit = 2 * m * m * cfg.dim * cfg.layers
    total = sum(rep.multiplies_total for rep in run.reports)
    assert total == unit * 8 * 9 // 2
    run2 = baseline_run(replace(cfg, frames=16))
    total2 = sum(rep.multiplies_total for rep in run2.reports)
    assert total2 == unit * 16 * 17 // 2
    assert 3.5 <= total2 / total <= 4.5


def test_brute_force_matches_incremental_under_eviction():
    cfg = StreamConfig(**DESK, frames=12, beta=0.2, keep_maps=True)
    run = run_stream(cfg)
    evicted_any = False
    for layer in range(cfg.layers):
        log = map_log_from_records(run.records, layer)
        expected = brute_force_scores(log)
        lc = run.session.layers[layer]
        evicted_any = evicted_any or len(lc.evicted) > 0
        for rec in list(lc.records) + list(lc.evicted):
            ref = expected[rec.token_id]
            assert rec.exposure == ref.exposure
            assert rec.cum_score == pytest.approx(ref.cum_score, rel=1e-9)
        # Resident candidates' importances now, and each victim's as ranked.
        candidates = (~lc.protected[: lc.n]).nonzero()[0]
        ranked = [(lc.token_id[candidates], importances(lc, candidates))]
        ranked += [(rec.evicted_ids, rec.evicted_importances) for rec in log]
        for ids, values in ranked:
            for tid, value in zip(ids.tolist(), values.tolist()):
                assert value == pytest.approx(expected[tid].importance, rel=1e-9)
    assert evicted_any  # the regime must actually exercise eviction


def test_live_records_and_trace_give_same_brute_force_scores(tmp_path):
    cfg = StreamConfig(**DESK, frames=12, beta=0.2, keep_maps=True)
    run = run_stream(cfg)
    assert any(len(rec.evicted_ids) for rec in run.records)
    path = tmp_path / "trace.jsonl"
    write_trace(run, path)
    read = read_trace(path).records
    for layer in range(cfg.layers):
        live = brute_force_scores(map_log_from_records(run.records, layer))
        assert live == brute_force_scores(map_log_from_records(read, layer))


def test_map_log_needs_maps():
    run = run_stream(StreamConfig(**DESK, frames=2))
    with pytest.raises(IncompleteLog):
        map_log_from_records(run.records, 0)


def test_single_step_log_reduces_to_column_sums():
    maps = np.array([[[0.2, 0.8], [0.5, 0.5]]])  # (H=1, M=2, N=2)
    scores = brute_force_scores([layer_record(0, [10, 11], maps=maps)])
    assert scores[10].cum_score == pytest.approx(0.7 / 2)
    assert scores[11].cum_score == pytest.approx(1.3 / 2)
    assert scores[10].exposure == 1


def test_brute_force_agrees_with_pure_python_reference():
    cfg = StreamConfig(**DESK, frames=5, beta=0.4, keep_maps=True)
    run = run_stream(cfg)
    log = map_log_from_records(run.records, 2)
    mine = brute_force_scores(log)
    ref = cumulative_scores([(e.key_ids, e.maps) for e in log])
    assert set(mine) == set(ref)
    for tid, (c_ref, e_ref) in ref.items():
        assert mine[tid].cum_score == pytest.approx(c_ref, rel=1e-12)
        assert mine[tid].exposure == e_ref


def test_evicted_token_accrues_nothing_after_eviction():
    cfg = StreamConfig(**DESK, frames=10, beta=0.2, keep_maps=True)
    run = run_stream(cfg)
    layer = run.session.layers[1]
    assert len(layer.evicted)
    scores = brute_force_scores(map_log_from_records(run.records, 1))
    eviction_step = {tid: rec.step for rec in run.records if rec.layer == 1 for tid in rec.evicted_ids.tolist()}
    for rec in layer.evicted:
        # Residency window: birth..eviction-1 (evicted before its
        # eviction step's attention ran).
        assert rec.exposure == scores[rec.token_id].exposure
        assert rec.exposure == eviction_step[rec.token_id] - rec.birth_step


@pytest.mark.parametrize("policy", ["attention", "random"])
def test_eviction_log_is_the_traced_victims_in_step_order(policy):
    cfg = StreamConfig(**DESK, frames=12, beta=0.2, policy=policy)
    run = run_stream(cfg)
    total = 0
    for layer, lc in enumerate(run.session.layers):
        cells = sorted((rec for rec in run.records if rec.layer == layer), key=lambda rec: rec.step)
        victims = np.concatenate([np.sort(rec.evicted_ids) for rec in cells])
        assert len(lc.evicted) == len(victims)
        assert np.array_equal(lc.evicted.token_id, victims)
        total += len(victims)
    assert total  # the regime must actually exercise eviction


def test_incomplete_log_rejected():
    maps = np.full((1, 2, 2), 0.5)
    with pytest.raises(IncompleteLog):
        brute_force_scores([])
    with pytest.raises(IncompleteLog):
        brute_force_scores([
            layer_record(0, [0, 1], maps=maps),
            layer_record(2, [0, 1], maps=maps),
        ])
    with pytest.raises(IncompleteLog):
        brute_force_scores([layer_record(0, [0, 1, 2], maps=maps)])
    with pytest.raises(IncompleteLog, match=r"log steps \[1, 2\] are not 0..1"):
        brute_force_scores([layer_record(1, [0, 1], maps=maps), layer_record(2, [0, 1], maps=maps)])


def test_baseline_keeps_no_maps_and_compares_the_same():
    cfg = StreamConfig(**DESK, frames=10, beta=0.3, keep_maps=True)
    run = run_stream(cfg)
    base = baseline_run(cfg)
    assert all(rec.maps is None for rec in base.records)
    with_maps = run_stream(replace(cfg, policy="none", beta=None, budget_tokens=None))
    assert all(rec.maps is not None for rec in with_maps.records)
    assert compare_runs(run, base) == compare_runs(run, with_maps)


def test_compare_runs_identical_at_full_budget():
    cfg = StreamConfig(**DESK, frames=10, beta=1.0)
    run = run_stream(cfg)
    base = baseline_run(cfg)
    div = compare_runs(run, base)
    assert div.overall_max_abs <= 1e-12
    assert all(m == pytest.approx(1.0) for m in div.retained_mass)


def test_compare_runs_difference_metrics_symmetric():
    cfg = StreamConfig(**DESK, frames=8, beta=0.3)
    run = run_stream(cfg)
    base = baseline_run(cfg)
    ab = compare_runs(run, base)
    ba = compare_runs(base, run)
    assert ab.max_abs == ba.max_abs
    assert ab.rms == ba.rms


def test_retained_mass_within_unit_interval():
    cfg = StreamConfig(**DESK, frames=12, beta=0.1)
    run = run_stream(cfg)
    base = baseline_run(cfg)
    div = compare_runs(run, base)
    assert all(0.0 <= m <= 1.0 for m in div.retained_mass)
    assert any(m < 1.0 for m in div.retained_mass)  # eviction discarded some mass


def test_retained_mass_and_landmark_retention_match_id_by_id_reference():
    cfg = StreamConfig(**DESK, frames=12, beta=0.2, landmark_frac=0.25)
    run, base = run_stream(cfg), baseline_run(cfg)
    div = compare_runs(run, base)
    retention = landmark_retention(run)
    assert any(len(layer.evicted) for layer in run.session.layers)
    assert any(m < 1.0 for m in div.retained_mass)
    assert any(r < 1.0 for r in retention)
    for layer in range(cfg.layers):
        assert div.retained_mass[layer] == retained_mass_by_id(run, base, layer)
        assert retention[layer] == landmark_retention_by_id(run, layer)


def test_config_mismatch_detected():
    a = run_stream(StreamConfig(**DESK, frames=4))
    b = run_stream(StreamConfig(**{**DESK, "dim": 16}, frames=4))
    with pytest.raises(ConfigMismatch):
        compare_runs(a, b)
    c = run_stream(StreamConfig(**DESK, frames=3))
    with pytest.raises(ConfigMismatch, match=r"runs differ structurally in \['frames'\]"):
        compare_runs(a, c)


def test_zero_frame_runs_retain_all_mass():
    cfg = StreamConfig(**DESK, frames=0, beta=0.5)
    div = compare_runs(run_stream(cfg), baseline_run(cfg))
    assert (div.max_abs, div.rms, div.retained_mass) == ([], [], [1.0] * cfg.layers)


def test_landmark_retention_protected_frame0_excluded():
    cfg = StreamConfig(**DESK, frames=8, beta=0.3, landmark_frac=0.25)
    run = run_stream(cfg)
    retention = landmark_retention(run)
    assert len(retention) == cfg.layers
    assert all(0.0 <= r <= 1.0 for r in retention)


def test_landmark_retention_nan_without_landmarks():
    cfg = StreamConfig(**DESK, frames=4, landmark_frac=0.0)
    run = run_stream(cfg)
    assert all(np.isnan(r) for r in landmark_retention(run))
