"""Acceptance criteria, one test per criterion (A1..A9).

Each test prints a PASS line with its measured values; run with
``pytest -v -s tests/test_acceptance.py`` for the full report. A2/A6
runs are shared with A8 through a module-level cache.
"""

import time
from dataclasses import replace

import numpy as np

from boundedkv.allocation import allocate
from boundedkv.cli import main as cli_main
from boundedkv.config import StreamConfig
from boundedkv.oracle import (
    baseline_run,
    brute_force_scores,
    compare_runs,
    landmark_retention,
    map_log_from_records,
)
from boundedkv.scoring import importances
from boundedkv.simulate import run_stream

from refimpl import allocate_reference

DESK = StreamConfig(layers=4, heads=2, dim=32, tokens_per_frame=8, registers=1,
                    frames=24, seed=7)

A2_BASE = StreamConfig(layers=4, heads=2, dim=32, tokens_per_frame=16, registers=0,
                       frames=200, budget_mode="steady-state", ref_frames=200,
                       policy="attention", seed=11)
A2_BETAS = (0.01, 0.1, 0.3, 0.5)

A6_BASE = StreamConfig(layers=4, heads=2, dim=32, tokens_per_frame=64, registers=0,
                       frames=40, beta=0.1, budget_mode="fixed-horizon", tau=1.5,
                       landmark_frac=4 / 63, landmark_gain=8.0, sharpness=8.0)
A6_SEEDS = range(20)
A6_POLICIES = ("attention", "uniform_budget", "random")

_CACHE: dict = {}


def a2_runs():
    if "a2" not in _CACHE:
        _CACHE["a2"] = {beta: run_stream(replace(A2_BASE, beta=beta)) for beta in A2_BETAS}
    return _CACHE["a2"]


def a6_runs():
    if "a6" not in _CACHE:
        runs = {}
        for seed in A6_SEEDS:
            cell = {"baseline": baseline_run(replace(A6_BASE, seed=seed))}
            for policy in A6_POLICIES:
                cell[policy] = run_stream(replace(A6_BASE, seed=seed, policy=policy))
            runs[seed] = cell
        _CACHE["a6"] = runs
    return _CACHE["a6"]


def total_evictions(run):
    return sum(len(lr.evicted_ids) for rep in run.reports for lr in rep.layers)


def test_a1_full_budget_equals_baseline():
    started = time.perf_counter()
    bounded = run_stream(replace(DESK, beta=1.0, budget_mode="fixed-horizon"))
    base = baseline_run(DESK)
    elapsed = time.perf_counter() - started
    div = compare_runs(bounded, base)
    assert div.overall_max_abs <= 1e-12
    assert total_evictions(bounded) == 0
    assert elapsed < 5.0
    print(f"\nA1 PASS — beta=1 max_abs_diff={div.overall_max_abs!r}, "
          f"evictions=0, runtime={elapsed:.2f}s")


def test_a2_occupancy_bound_and_steady_state():
    m = A2_BASE.tokens_per_frame
    lines = []
    for beta, run in a2_runs().items():
        budget = run.budget["budget_tokens"]
        clamped = any(lr.clamped for rep in run.reports for lr in rep.layers)
        warmup = [None] * A2_BASE.layers
        totals = []
        for rep in run.reports:
            total = 0
            for lr in rep.layers:
                capacity = max(lr.budget_pre, lr.protected_count + m)
                assert lr.occupancy_post <= capacity, (beta, rep.step, lr.layer)
                if warmup[lr.layer] is None and lr.occupancy_post >= lr.budget_pre:
                    warmup[lr.layer] = rep.step
                if warmup[lr.layer] is not None:
                    # Resident count tracks in-force capacity within one
                    # frame quantum from warm-up onward.
                    assert abs(lr.occupancy_post - capacity) <= m, (beta, rep.step, lr.layer)
                total += lr.occupancy_post
            totals.append(total)
        start = max(w for w in warmup if w is not None)
        steady = totals[start:]
        if not clamped:
            # No protected-floor clamp: totals are literally constant at
            # the configured budget (within one frame quantum per layer).
            assert max(steady) - min(steady) <= A2_BASE.layers * m
            assert all(abs(t - budget) <= A2_BASE.layers * m for t in steady)
        lines.append(f"beta={beta}: B={budget} warmup={start} "
                     f"steady_total=[{min(steady)},{max(steady)}] clamped={clamped}")
    print("\nA2 PASS — occupancy <= max(budget, protected+M) at every step/layer; "
          + "; ".join(lines))


def rel_err(value, ref):
    """Relative error; inf when NaN, which compares below every bound."""
    err = abs(value - ref) / max(abs(ref), 1e-300)
    return float("inf") if np.isnan(err) else err


def test_a3_scoring_oracle_ten_seeds():
    worst = 0.0
    for seed in range(10):
        cfg = replace(DESK, frames=12, beta=0.2, budget_mode="fixed-horizon",
                      seed=seed, keep_maps=True)
        run = run_stream(cfg)
        assert total_evictions(run) > 0  # the regime must exercise eviction
        for layer in range(cfg.layers):
            log = map_log_from_records(run.records, layer)
            expected = brute_force_scores(log)
            lc = run.session.layers[layer]
            for rec in list(lc.records) + list(lc.evicted):
                ref = expected[rec.token_id]
                assert rec.exposure == ref.exposure
                worst = max(worst, rel_err(rec.cum_score, ref.cum_score))
            # The importances eviction ranks on: the resident candidates'
            # now, and each victim's as recorded when it was chosen.
            candidates = (~lc.protected[: lc.n]).nonzero()[0]
            ranked = [(lc.token_id[candidates], importances(lc, candidates))]
            ranked += [(rec.evicted_ids, rec.evicted_importances) for rec in log]
            for ids, values in ranked:
                for tid, value in zip(ids.tolist(), values.tolist()):
                    worst = max(worst, rel_err(value, expected[tid].importance))
    assert worst <= 1e-9
    print(f"\nA3 PASS — incremental vs brute-force scores and ranked importances: "
          f"max rel err {worst:.3e} over 10 seeds with eviction active")


def test_a4_conservation():
    worst_raw = 0.0
    worst_mean = 0.0
    for cfg in (DESK, replace(DESK, frames=12, beta=0.2, budget_mode="fixed-horizon")):
        run = run_stream(cfg)
        h, m = cfg.heads, cfg.tokens_per_frame
        for rec in run.records:
            worst_raw = max(worst_raw, abs(float(np.sum(rec.col_sums_raw)) - h * m))
            worst_mean = max(worst_mean, abs(float(np.sum(rec.col_sums_raw / h)) - m))
    assert worst_raw <= 1e-6
    assert worst_mean <= 1e-6
    print(f"\nA4 PASS — column-sum conservation: raw err {worst_raw:.2e} <= 1e-6, "
          f"head-mean err {worst_mean:.2e} <= 1e-6")


def test_a5_allocation_correctness():
    # Worked example, cross-checked against the high-precision oracle.
    sigmas = [-2.0, -1.0, -3.0]
    assert allocate_reference(sigmas, 1.5, 300) == [87, 169, 44]
    assert allocate(sigmas, 1.5, 300).budgets == [87, 169, 44]

    # Exact totals on fuzzed inputs.
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([5, 1000])))
    for _ in range(1000):
        n = int(rng.integers(1, 10))
        sig = rng.normal(0.0, 5.0, size=n)
        total = int(rng.integers(0, 10_000))
        res = allocate(sig, float(rng.uniform(0.05, 120.0)), total)
        assert sum(res.budgets) == total

    # tau=100 stays within 1% of uniform on the sparsity domain
    # (sigma = -variance <= 0, magnitude <= 3), corner cases included.
    worst_dev = 0.0
    for layers in (2, 4, 6, 8):
        corner = [0.0] + [-3.0] * (layers - 1)
        for draw in range(250):
            sig = corner if draw == 0 else (-rng.uniform(0.0, 3.0, size=layers)).tolist()
            shares = allocate(sig, 100.0, 1000).shares
            worst_dev = max(worst_dev, max(abs(p - 1.0 / layers) for p in shares))
    assert worst_dev <= 0.01

    # Shares are monotone decreasing in variance.
    variances = sorted(rng.uniform(0.0, 4.0, size=6).tolist())
    shares = allocate([-v for v in variances], 1.5, 5000).shares
    assert shares == sorted(shares, reverse=True)
    print(f"\nA5 PASS — worked example [87, 169, 44] exact; 1000-case exact totals; "
          f"tau=100 max deviation {worst_dev:.4f} <= 0.01; shares monotone in variance")


def test_a6_policy_ordering():
    runs = a6_runs()
    retention = {p: [] for p in A6_POLICIES}
    mass = {p: [] for p in A6_POLICIES}
    for seed, cell in runs.items():
        for policy in A6_POLICIES:
            retention[policy].append(landmark_retention(cell[policy]))
            mass[policy].append(compare_runs(cell[policy], cell["baseline"]).retained_mass)
    ret = {p: np.array(v) for p, v in retention.items()}
    mas = {p: np.array(v) for p, v in mass.items()}

    att, unif, rand = (ret[p].mean() for p in A6_POLICIES)
    assert att > unif >= rand
    layer_gap = ret["attention"].mean(axis=0) - ret["random"].mean(axis=0)
    assert (layer_gap > 0).all()
    mass_gap = mas["attention"].mean(axis=0) - mas["random"].mean(axis=0)
    assert (mass_gap > 0).all()
    print(f"\nA6 PASS — mean landmark retention attention={att:.3f} > "
          f"uniform_budget={unif:.3f} >= random={rand:.3f}; "
          f"attention-vs-random per-layer gap {np.round(layer_gap, 3).tolist()}; "
          f"retained attention mass attention={mas['attention'].mean():.3f} vs "
          f"random={mas['random'].mean():.3f} (per-layer gap all > 0)")


def test_a7_compute_scaling():
    cfg = StreamConfig(layers=4, heads=2, dim=32, tokens_per_frame=16, registers=0,
                       frames=64, beta=0.1, budget_mode="steady-state", ref_frames=128,
                       policy="attention", seed=7)
    run = run_stream(cfg)
    base = baseline_run(cfg)
    counts = [rep.multiplies_total for rep in run.reports]
    base_counts = [rep.multiplies_total for rep in base.reports]

    ratio = counts[-1] / base_counts[-1]
    assert ratio <= 0.25

    m, d, layers = cfg.tokens_per_frame, cfg.dim, cfg.layers
    per_frame_unit = 2 * m * m * d * layers
    assert base_counts == [per_frame_unit * (t + 1) for t in range(cfg.frames)]

    warmup = next(t for t, rep in enumerate(run.reports)
                  if any(len(lr.evicted_ids) for lr in rep.layers))
    quantum = 2 * m * d * (layers * m)  # one frame of keys in every layer
    flat_dev = max(abs(c - counts[-1]) for c in counts[warmup:])
    assert flat_dev <= quantum
    print(f"\nA7 PASS — step-64 multiply ratio {ratio:.3f} <= 0.25; bounded counts flat "
          f"(max dev {flat_dev} <= {quantum} from warm-up at step {warmup}); "
          f"baseline exactly linear in t")


def protected_by_rule(rec, cfg):
    """The paper's rule, apart from the cache's: frame 0 plus every
    frame's camera and register tokens, which lead each block of
    ``tokens_per_frame`` ids a (frame, layer) admits; frame t is born at
    step t."""
    return rec.birth_step == 0 or rec.token_id % cfg.tokens_per_frame <= cfg.registers


def test_a8_protected_persistence():
    checked = 0
    for run in list(a2_runs().values()) + [cell[p] for cell in a6_runs().values()
                                           for p in A6_POLICIES]:
        cfg = run.config
        expected = cfg.tokens_per_frame + (cfg.frames - 1) * (1 + cfg.registers)
        final_ids = [set(run.reports[-1].layers[layer].key_ids) for layer in range(cfg.layers)]
        for layer, lc in enumerate(run.session.layers):
            assert not any(protected_by_rule(rec, cfg) for rec in lc.evicted)
            assert lc.protected_count == expected
            assert lc.protected[: lc.n].tolist() == [protected_by_rule(rec, cfg) for rec in lc.records]
            resident_protected = {rec.token_id for rec in lc.records if protected_by_rule(rec, cfg)}
            assert resident_protected <= final_ids[layer]
            first_frame = set(run.reports[0].layers[layer].key_ids)
            assert first_frame <= final_ids[layer]
        checked += 1
    assert checked == len(A2_BETAS) + len(A6_SEEDS) * len(A6_POLICIES)
    print(f"\nA8 PASS — every frame-0/camera/register token resident at the final step "
          f"across {checked} bounded runs")


def test_a9_verify_determinism(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["verify", "--out", str(out_a)]) == 0
    assert cli_main(["verify", "--out", str(out_b)]) == 0
    capsys.readouterr()
    trace_a = (out_a / "verify_trace.jsonl").read_bytes()
    trace_b = (out_b / "verify_trace.jsonl").read_bytes()
    summary_a = (out_a / "verify_summary.csv").read_bytes()
    summary_b = (out_b / "verify_summary.csv").read_bytes()
    assert trace_a == trace_b
    assert summary_a == summary_b
    print(f"\nA9 PASS — two verify runs byte-identical "
          f"({len(trace_a)} trace bytes, {len(summary_a)} summary bytes)")
