"""Command-line front end: single runs, budget sweeps, policy ablations,
oracle verification, and trace exports.

Configuration precedence is defaults < config file (``key = value``
lines) < explicit flags. The default output directory is ``./out``,
overridable by the ``BOUNDEDKV_OUT`` environment variable or ``--out``.

Exit codes: 0 success, 2 configuration or run error (a bad config, a
malformed trace, a record that is not finite, a file that cannot be read
or written or is not UTF-8 text), 3 verification failure.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import math
import os
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .allocation import allocate
from .config import StreamConfig, config_from_dict
from .errors import BoundedKVError, ConfigError, NonFiniteRecord
from .oracle import baseline_run, brute_force_scores, compare_runs, landmark_retention, map_log_from_records
from .scoring import importances
from .simulate import run_stream
from .telemetry import (
    SummaryRow,
    export_heatmap,
    read_trace,
    summarize,
    summary_row,
    write_trace,
)

_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}

_TEXT_TYPES = {"int": int, "float": float, "bool": bool, "str": str}
# Value type of every flag/config-file field, in StreamConfig order: its
# annotation's first part ("int | None" is an int). A field annotated
# with no text form, such as list[float], is set from code only.
_FIELD_TYPES = {f.name: _TEXT_TYPES[kind] for f in fields(StreamConfig)
                if (kind := f.type.split(" | ")[0]) in _TEXT_TYPES}


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in _BOOL_TRUE:
        return True
    if low in _BOOL_FALSE:
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _read_config_file(path: str) -> dict:
    values = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        kind = _FIELD_TYPES.get(key)
        if kind is None:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _parse_bool(value) if kind is bool else kind(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return values


def _add_stream_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per settable StreamConfig field, between --config and --out."""
    parser.add_argument("--config", help="config file with key = value lines (flags override)")
    for name, kind in _FIELD_TYPES.items():
        metadata = StreamConfig.__dataclass_fields__[name].metadata
        flag = metadata.get("flag", "--" + name.replace("_", "-"))
        if kind is bool:
            parser.add_argument(flag, dest=name, action="store_true", default=None)
        else:
            parser.add_argument(flag, dest=name, type=kind, choices=metadata.get("choices"))
    parser.add_argument("--out", help="output directory (default: $BOUNDEDKV_OUT or ./out)")


def _merge_config(args: argparse.Namespace) -> StreamConfig:
    values: dict = {}
    if args.config:
        values.update(_read_config_file(args.config))
    for name in _FIELD_TYPES:
        flag_value = getattr(args, name)
        if flag_value is not None:
            values[name] = flag_value
    return config_from_dict(values)


def _out_dir(args: argparse.Namespace) -> Path:
    out = args.out or os.environ.get("BOUNDEDKV_OUT") or "out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="boundedkv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one stream, write trace and summary")
    _add_stream_flags(p_run)
    p_run.add_argument("--compare-baseline", action="store_true",
                       help="also run the unbounded baseline and report divergence")

    p_sweep = sub.add_parser("sweep", help="budget sweep across seeds")
    _add_stream_flags(p_sweep)
    p_sweep.add_argument("--betas", required=True,
                         help="comma-separated budget fractions, e.g. 0.1,0.3,0.5")
    p_sweep.add_argument("--seeds", type=int, default=1, help="number of seeds (seed..seed+n-1)")

    p_ablate = sub.add_parser("ablate", help="compare eviction policies at one budget")
    _add_stream_flags(p_ablate)
    p_ablate.add_argument("--budget-frac", dest="budget_frac", type=float, required=True)
    p_ablate.add_argument("--seeds", type=int, default=20)

    p_verify = sub.add_parser("verify", help="run the oracle agreement suite")
    _add_stream_flags(p_verify)

    p_export = sub.add_parser("export", help="heatmaps and summaries from an existing trace")
    p_export.add_argument("--trace", required=True)
    p_export.add_argument("--layer", type=int, action="append",
                          help="layer to export (repeatable; default: all)")
    p_export.add_argument("--reweight", action="store_true",
                          help="multiply each row by its 1-based frame number")
    p_export.add_argument("--out")
    return parser


def _print_run_banner(cfg: StreamConfig) -> None:
    meta = {"config": cfg.to_dict(), "budget": cfg.budget_metadata()}
    print(json.dumps(meta, separators=(",", ":")))


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    out = _out_dir(args)
    _print_run_banner(cfg)
    run = run_stream(cfg)
    write_trace(run, out / "trace.jsonl")

    divergence = None
    if args.compare_baseline:
        base = baseline_run(cfg)
        divergence = compare_runs(run, base)
        print(f"max_abs_diff={divergence.overall_max_abs!r}")
        print(f"mean_rms_diff={divergence.mean_rms!r}")
        print("retained_mass=" + ",".join(repr(m) for m in divergence.retained_mass))

    retention = landmark_retention(run) if cfg.bounded else None
    row = summary_row(run, label="run", divergence=divergence, retention=retention)
    (out / "summary.csv").write_text(summarize([row]), encoding="utf-8")
    print(f"frames={cfg.frames} evictions={row.total_evictions} "
          f"peak_footprint_bytes={row.peak_footprint_bytes} trace={out / 'trace.jsonl'}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    out = _out_dir(args)
    try:
        betas = [float(b) for b in args.betas.split(",") if b.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --betas value: {args.betas!r}") from exc
    if not betas or args.seeds < 1:
        raise ConfigError("sweep needs at least one beta and one seed")
    rows = []
    for beta in betas:
        for s in range(args.seeds):
            cell = replace(cfg, beta=beta, budget_tokens=None, seed=cfg.seed + s)
            run = run_stream(cell)
            rows.append(summary_row(run, label=f"beta{beta:g}-seed{cell.seed}",
                                    retention=landmark_retention(run)))
    table = summarize(rows)
    (out / "sweep_summary.csv").write_text(table, encoding="utf-8")
    print(table, end="")
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    out = _out_dir(args)
    if args.seeds < 1:
        raise ConfigError("ablate needs at least one seed")
    policies = ("attention", "uniform_budget", "random")
    rows = []
    retention_by_policy = {p: [] for p in policies}
    retained_mass_by_policy = {p: [] for p in policies}
    for s in range(args.seeds):
        # Validated with a policy ablate runs: the baseline and every cell replace the given one.
        seed_cfg = replace(cfg, beta=args.budget_frac, budget_tokens=None, seed=cfg.seed + s, policy=policies[0])
        seed_cfg.validate()
        base = baseline_run(seed_cfg)
        for policy in policies:
            cell = replace(seed_cfg, policy=policy)
            run = run_stream(cell)
            divergence = compare_runs(run, base)
            row = summary_row(run, label=f"{policy}-seed{cell.seed}",
                              divergence=divergence, retention=landmark_retention(run))
            if row.landmark_retention is not None:
                retention_by_policy[policy].append(row.landmark_retention)
            retained_mass_by_policy[policy].append(float(np.mean(divergence.retained_mass)))
            rows.append(row)
    table = summarize(rows)
    (out / "ablate_summary.csv").write_text(table, encoding="utf-8")
    print(table, end="")
    for policy in policies:
        ret = retention_by_policy[policy]
        print(f"policy={policy} mean_landmark_retention="
              f"{float(np.mean(ret)) if ret else float('nan')!r} "
              f"mean_retained_mass={float(np.mean(retained_mass_by_policy[policy]))!r}")
    return 0


def _check(name: str, passed: bool, detail: str, failures: list) -> None:
    status = "ok" if passed else "FAIL"
    print(f"{status}: {name} ({detail})")
    if not passed:
        failures.append(name)


def _rel_err(value: float, ref: float) -> float:
    """Relative error of ``value`` against ``ref``; inf when it is NaN,
    which would otherwise compare below every bound."""
    err = abs(value - ref) / max(abs(ref), 1e-300)
    return math.inf if math.isnan(err) else err


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _merge_config(args)
    out = _out_dir(args)
    failures: list[str] = []
    rows: list[SummaryRow] = []

    # Full-budget run must reproduce the unbounded baseline exactly.
    full = replace(cfg, beta=1.0, budget_tokens=None, budget_mode="fixed-horizon", policy="attention")
    full_run = run_stream(full)
    base_run = baseline_run(full)
    div = compare_runs(full_run, base_run)
    row = summary_row(full_run, label="verify-beta1", divergence=div)
    _check("beta1-equivalence", div.overall_max_abs <= 1e-12 and row.total_evictions == 0,
           f"max_abs_diff={div.overall_max_abs!r} evictions={row.total_evictions}", failures)
    rows.append(row)

    # Softmax conservation on every step and layer of the full run.
    worst_raw = 0.0
    worst_mean = 0.0
    for rec in full_run.records:
        worst_raw = max(worst_raw, abs(float(np.sum(rec.col_sums_raw)) - cfg.heads * cfg.tokens_per_frame))
        worst_mean = max(worst_mean, abs(float(np.sum(rec.col_sums_raw / cfg.heads)) - cfg.tokens_per_frame))
    _check("conservation", worst_raw <= 1e-6 and worst_mean <= 1e-6,
           f"max_raw_err={worst_raw:.3e} max_mean_err={worst_mean:.3e}", failures)

    # Incremental scores must match the brute-force map recomputation.
    score_cfg = replace(cfg, frames=12, beta=0.2, budget_tokens=None,
                        budget_mode="fixed-horizon", policy="attention", keep_maps=True)
    score_run = run_stream(score_cfg)
    worst_rel = 0.0
    for layer in range(score_cfg.layers):
        log = map_log_from_records(score_run.records, layer)
        expected = brute_force_scores(log)
        lc = score_run.session.layers[layer]
        for rec in list(lc.records) + list(lc.evicted):
            ref = expected[rec.token_id]
            worst_rel = max(worst_rel, _rel_err(rec.cum_score, ref.cum_score))
            if rec.exposure != ref.exposure:
                worst_rel = math.inf
        # Importances as eviction ranks on them: the resident candidates'
        # now, and each victim's as recorded when it was chosen.
        candidates = (~lc.protected[: lc.n]).nonzero()[0]
        ranked = [(lc.token_id[candidates], importances(lc, candidates))]
        ranked += [(rec.evicted_ids, rec.evicted_importances) for rec in log]
        for ids, values in ranked:
            for tid, value in zip(ids.tolist(), values.tolist()):
                worst_rel = max(worst_rel, _rel_err(value, expected[tid].importance))
    _check("scoring-oracle", worst_rel <= 1e-9, f"max_rel_err={worst_rel:.3e}", failures)
    rows.append(summary_row(score_run, label="verify-scoring"))

    # Worked allocation example plus exact-total fuzz.
    result = allocate([-2.0, -1.0, -3.0], 1.5, 300)
    example_ok = result.budgets == [87, 169, 44]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, 99])))
    fuzz_ok = True
    for _ in range(200):
        n = int(rng.integers(1, 9))
        sig = rng.normal(0.0, 3.0, size=n)
        total = int(rng.integers(0, 5000))
        res = allocate(sig, float(rng.uniform(0.1, 50.0)), total)
        if sum(res.budgets) != total:
            fuzz_ok = False
            break
    _check("allocation-example", example_ok and fuzz_ok,
           f"budgets={result.budgets} exact_total_fuzz={'ok' if fuzz_ok else 'failed'}", failures)

    # Bounded run obeys the occupancy bound and keeps protected tokens.
    bounded_cfg = replace(cfg, beta=0.1, budget_tokens=None, budget_mode="fixed-horizon", policy="attention")
    bounded_run = run_stream(bounded_cfg)
    bound_ok = True
    for rep in bounded_run.reports:
        for lr in rep.layers:
            if lr.occupancy_post > max(lr.budget_pre, lr.protected_count + cfg.tokens_per_frame):
                bound_ok = False
    _check("occupancy-bound", bound_ok, f"beta=0.1 frames={bounded_cfg.frames}", failures)

    persists = True
    for lc in bounded_run.session.layers:
        # The protection rule, restated here from the id layout: each
        # (frame, layer) gets one block of tokens_per_frame ids in order,
        # camera first and registers next. Frame t is born at step t.
        evicted = lc.evicted
        slots = evicted.token_id % bounded_cfg.tokens_per_frame
        if ((evicted.birth_step == 0) | (slots <= bounded_cfg.registers)).any():
            persists = False
        expected_protected = bounded_cfg.tokens_per_frame + (bounded_cfg.frames - 1) * (1 + bounded_cfg.registers)
        if bounded_cfg.frames > 0 and lc.protected_count != expected_protected:
            persists = False
    _check("protected-persistence", persists, "frame-0/camera/register tokens resident", failures)
    rows.append(summary_row(bounded_run, label="verify-bounded", retention=landmark_retention(bounded_run)))

    # Identical config and seed must reproduce the trace byte-for-byte.
    # A fault that leaves NaN in the records fails here too: no trace is written.
    try:
        trace_path = write_trace(bounded_run, out / "verify_trace.jsonl")
        with tempfile.TemporaryDirectory() as tmp:
            rerun_path = write_trace(run_stream(bounded_cfg), Path(tmp) / "verify_trace.jsonl")
            identical = filecmp.cmp(trace_path, rerun_path, shallow=False)
        detail = "bounded rerun byte-identical"
    except NonFiniteRecord as exc:
        identical, detail = False, f"no trace: {exc}"
    _check("determinism", identical, detail, failures)

    (out / "verify_summary.csv").write_text(summarize(rows), encoding="utf-8")
    if failures:
        print(f"verification failed: {', '.join(failures)}", file=sys.stderr)
        return 3
    print(f"all checks passed; outputs in {out}")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    trace = read_trace(args.trace)
    layers = args.layer if args.layer else sorted({r.layer for r in trace.records})
    for layer in layers:
        grid_path = out / f"heatmap_layer{layer}.txt"
        export_heatmap(trace, layer, grid_path, reweight=args.reweight)
        print(f"layer {layer}: {grid_path}")
    row = summary_row(trace, label=Path(args.trace).stem)
    (out / "summary.csv").write_text(summarize([row]), encoding="utf-8")
    return 0


_COMMANDS = {
    "run": cmd_run,
    "sweep": cmd_sweep,
    "ablate": cmd_ablate,
    "verify": cmd_verify,
    "export": cmd_export,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (BoundedKVError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
