"""Measuring process of the stream benchmark; `run.py` starts it.

    python3 bench/worker.py setup   --workload W --seed S
    python3 bench/worker.py measure --workload W --seed S --seconds N --trace 0|1
                                    --budget-s B

`setup` times `import boundedkv` plus `StreamSimulator` construction
(weights and budget bootstrap) in this fresh process. `measure` repeats
the workload's pass, one closed-loop stream fed frame by frame, until
`--seconds` of timed passes are done, checks every pass outside the
timed region, and prints one JSON object as its last stdout line. Both
modes also time the host-speed reference (`hostref.py`): `setup` after
its set-up, `measure` after every step. Timings are reported at the
reference's nominal host speed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
import tracing  # noqa: E402

# Relative tolerance of incremental vs brute-force scores (acceptance A3).
SCORE_RTOL = 1e-9

# Frames in the untimed warm-up stream.
WARMUP_FRAMES = 8


def _import_boundedkv():
    import boundedkv

    src = (ROOT / "src").resolve()
    if src not in Path(boundedkv.__file__).resolve().parents:
        raise SystemExit(f"boundedkv imported from {boundedkv.__file__}, not from {src}")
    return boundedkv


def cmd_setup(args) -> dict:
    start = time.perf_counter()
    _import_boundedkv()
    from boundedkv import StreamConfig, StreamSimulator

    StreamSimulator(StreamConfig(**spec.WORKLOADS[args.workload]["config"], seed=args.seed))
    setup_s = time.perf_counter() - start
    import hostref  # imports numpy, so only after the timed import

    reference = hostref.HostReference()
    return {"setup_s": setup_s,
            "host_factor": hostref.factor([reference.unit_ns() for _ in range(spec.SETUP_REF_UNITS)])}


def output_digest(run) -> str:
    """sha256 over every frame's output, as float64 bytes."""
    import numpy as np

    h = hashlib.sha256()
    for out in run.outputs:
        h.update(np.ascontiguousarray(out, dtype=np.float64).tobytes())
    return h.hexdigest()


def check_steps(run, cfg) -> list[str]:
    """Occupancy bound and exact budget total at every step and layer."""
    problems = []
    m = cfg.tokens_per_frame
    total = run.budget["budget_tokens"]
    if len(run.reports) != cfg.frames:
        problems.append(f"{len(run.reports)} step reports for {cfg.frames} frames")
    for rep in run.reports:
        for lr in rep.layers:
            if total is None:
                if lr.occupancy_post != (rep.step + 1) * m:
                    problems.append(f"step {rep.step} layer {lr.layer}: unbounded occupancy "
                                    f"{lr.occupancy_post} != {(rep.step + 1) * m}")
            elif lr.occupancy_post > max(lr.budget_pre, lr.protected_count + m):
                problems.append(f"step {rep.step} layer {lr.layer}: occupancy {lr.occupancy_post} "
                                f"> max(budget {lr.budget_pre}, protected {lr.protected_count} + {m})")
        if total is not None and sum(lr.budget_post for lr in rep.layers) != total:
            problems.append(f"step {rep.step}: layer budgets sum to "
                            f"{sum(lr.budget_post for lr in rep.layers)}, total is {total}")
    return problems


def check_audit(run, stage, telemetry) -> list[str]:
    """Trace round trip and brute-force scores against the incremental ones."""
    problems = []
    read = stage["read"]
    if read.config != run.config.to_dict() or read.budget != run.budget:
        problems.append("trace header read back differs from the run's config/budget")
    # One step at a time, so the check adds little to the pass's peak RSS.
    layers = run.config.layers
    for i, (report, stats) in enumerate(zip(run.reports, run.stats)):
        written = telemetry.records_from_run(replace(run, reports=[report], stats=[stats]))
        if read.records[i * layers:(i + 1) * layers] != written:
            problems.append(f"step {report.step}: trace records read back differ from those written")
            break
    if len(read.records) != len(run.reports) * layers:
        problems.append(f"trace holds {len(read.records)} records, {len(run.reports) * layers} written")
    for layer, expected in enumerate(stage["scores"]):
        cache = run.session.layers[layer]
        for rec in list(cache.records) + list(cache.evicted):
            ref = expected.get(rec.token_id)
            if ref is None or rec.exposure != ref.exposure:
                problems.append(f"layer {layer} token {rec.token_id}: exposure differs from brute force")
                continue
            err = abs(rec.cum_score - ref.cum_score) / max(abs(ref.cum_score), 1e-300)
            if err > SCORE_RTOL:
                problems.append(f"layer {layer} token {rec.token_id}: cum_score rel err {err:.3e}")
    return problems


def counts_of(run, oracle) -> dict:
    """Count metrics of one pass; each must repeat exactly for a seed."""
    reports = run.reports
    cells = [lr for rep in reports for lr in rep.layers]
    retention = [r for r in oracle.landmark_retention(run) if not math.isnan(r)]
    return {
        "macs_per_step": sum(rep.multiplies_total for rep in reports) / len(reports),
        "tokens_evicted": sum(len(lr.evicted_ids) for lr in cells),
        "evicted_log_len": sum(len(layer.evicted) for layer in run.session.layers),
        "keys_scored": sum(lr.n_keys for lr in cells),
        "clamped_layer_steps": sum(bool(lr.clamped) for lr in cells),
        "kv_footprint_mib": max(rep.footprint_total for rep in reports) / 2**20,
        "landmark_retention": sum(retention) / len(retention) if retention else None,
    }


def stream_pass(modules, cfg, trace_path):
    return modules["simulate"].run_stream(cfg), {}


def audit_pass(modules, cfg, trace_path):
    simulate, telemetry, oracle = modules["simulate"], modules["telemetry"], modules["oracle"]
    run = simulate.run_stream(cfg)
    telemetry.write_trace(run, trace_path)
    trace_bytes = trace_path.stat().st_size
    read = telemetry.read_trace(trace_path)
    scores = [oracle.brute_force_scores(oracle.map_log_from_records(read.records, layer))
              for layer in range(cfg.layers)]
    oracle.compare_runs(run, oracle.baseline_run(cfg))
    return run, {"read": read, "scores": scores, "trace_bytes": trace_bytes}


def _quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _summary(values, unit, of) -> dict:
    q1, q2, q3 = _quartiles(values)
    return {"value": q2, "unit": unit, "q1": q1, "q3": q3, "n": len(values), "of": of}


def _environment(np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_pins": {k: os.environ.get(k) for k in spec.THREAD_PINS},
    }


def cmd_measure(args) -> dict:
    _import_boundedkv()
    import numpy as np
    from boundedkv import StreamConfig, oracle, simulate, telemetry
    import hostref

    modules = {"simulate": simulate, "telemetry": telemetry, "oracle": oracle}
    workload = spec.WORKLOADS[args.workload]
    cfg = StreamConfig(**workload["config"], seed=args.seed)
    run_pass = audit_pass if workload["kind"] == "audit" else stream_pass
    work = HERE / ".work"
    work.mkdir(parents=True, exist_ok=True)
    trace_path = work / f"trace-{os.getpid()}.jsonl"
    recorded = json.loads((HERE / "digests.json").read_text()).get(args.workload, {}).get(str(args.seed))

    # Untimed warm-up: first numpy calls, imports inside the library. The
    # traced run warms up with a full pass, so that the first untraced
    # pass does not pay for first-time allocation and skew overhead_frac.
    run_pass(modules, cfg if args.trace else replace(cfg, frames=min(cfg.frames, WARMUP_FRAMES)),
             trace_path)

    timer = tracing.StepTimer(hostref.HostReference())
    tracer = tracing.SpanTracer() if args.trace else None
    all_ref_ns: list[int] = []
    plain, traced = [], []          # per-pass records
    problems: list[str] = []
    attempted = failed = 0
    first_counts = None
    digests = set()
    timed_s = 0.0
    longest = 0.0
    wall_start = time.perf_counter()
    while True:
        use_tracer = tracer is not None and len(traced) < len(plain)
        hooks = [tracer, timer] if use_tracer else [timer]
        for hook in hooks:
            hook.install()
        attempted += 1
        start = time.perf_counter_ns()
        try:
            run, stage = run_pass(modules, cfg, trace_path)
        except Exception:
            failed += 1
            problems.append(f"pass {attempted}: " + traceback.format_exc(limit=3).strip().splitlines()[-1])
            traceback.print_exc(file=sys.stderr)
            run = None
        finally:
            for hook in reversed(hooks):
                hook.remove()
        seconds = (time.perf_counter_ns() - start) / 1e9
        timed_s += seconds
        longest = max(longest, seconds)
        all_ref_ns += timer.ref_ns
        # The pass's own time, without the reference units run after its
        # steps, at the host speed the units measured over the pass.
        own_s = seconds - sum(timer.ref_ns) / 1e9
        pass_factor = hostref.factor(timer.ref_ns) if timer.ref_ns else 1.0

        if run is not None:
            pass_problems = check_steps(run, cfg)
            if stage:
                pass_problems += check_audit(run, stage, telemetry)
            counts = counts_of(run, oracle)
            first_counts = first_counts or counts
            pass_problems += [f"count {name} did not repeat: {value} != {first_counts[name]}"
                              for name, value in counts.items() if value != first_counts[name]]
            digest = output_digest(run)
            digests.add(digest)
            if recorded is not None and digest != recorded:
                pass_problems.append(f"output digest {digest} != recorded {recorded}")
            record = {"frames_per_s": pass_factor * cfg.frames / own_s,
                      "raw_frames_per_s": cfg.frames / own_s, "factor": pass_factor}
            if use_tracer:
                layers = tracer.take_pass({"telemetry.trace_mib": stage.get("trace_bytes", 0) / 2**20})
                pass_problems += [f"traced {name} {layers[name]} != {counts[count]} from step reports"
                                  for count, name in spec.TRACED_COUNTS.items()
                                  if name in layers and layers[name] != counts[count]]
                record["layers"] = layers
                traced.append(record)
            else:
                # The stream's own steps come first; an audit pass's
                # baseline run steps after them.
                factors = hostref.local_factors(timer.ref_ns[: cfg.frames])
                record["step_ms"] = [ns / 1e6 / f for ns, f in zip(timer.step_ns[: cfg.frames], factors)]
                record["raw_step_ms"] = [ns / 1e6 for ns in timer.step_ns[: cfg.frames]]
                plain.append(record)
            if pass_problems:
                failed += 1
                problems.append(f"pass {attempted}: {len(pass_problems)} check failure(s), "
                                f"first: {pass_problems[0]}")
            del run, stage
        elif use_tracer:
            tracer.take_pass({})  # drop the failed pass's spans
        timer.clear()
        trace_path.unlink(missing_ok=True)

        steps = sum(len(r["step_ms"]) for r in plain)
        enough = (timed_s >= args.seconds and len(plain) >= 2
                  and (len(traced) >= 2 if tracer else steps >= spec.MIN_STEPS))
        out_of_time = time.perf_counter() - wall_start + 1.5 * longest > args.budget_s
        if enough or out_of_time or (failed == attempted and attempted >= 3):
            break

    host = hostref.factor(all_ref_ns) if all_ref_ns else 1.0
    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "counts": first_counts,
        "digest": {"value": sorted(digests), "recorded": recorded},
        "timed_s": timed_s,
        "host_factor": host,
        "host_steps": len(all_ref_ns),
        "env": _environment(np),
    }
    if not plain or (tracer and not traced):
        return result
    # Timings at the reference's nominal host speed; "raw" keeps the
    # value as measured.
    frames_per_s = [r["frames_per_s"] for r in plain]
    if tracer is None:
        def late(values):
            return values[len(values) - len(values) // 4:]

        step_ms = [v for r in plain for v in r["step_ms"]]
        raw_step_ms = [v for r in plain for v in r["raw_step_ms"]]
        late_ms = [v for r in plain for v in late(r["step_ms"])]
        p95 = statistics.quantiles(step_ms, n=20)[18]
        result["metrics"] = {
            "frames_per_s": dict(_summary(frames_per_s, "1/s", "passes"),
                                 raw=statistics.median(r["raw_frames_per_s"] for r in plain)),
            "step_ms_p50": dict(_summary(step_ms, "ms", "steps"), raw=statistics.median(raw_step_ms)),
            "step_ms_p95": {"value": p95, "unit": "ms", "n": len(step_ms), "of": "steps",
                            "beyond": sum(v > p95 for v in step_ms),
                            "raw": statistics.quantiles(raw_step_ms, n=20)[18]},
            "step_ms_late_p50": dict(_summary(late_ms, "ms", "steps"),
                                     raw=statistics.median(v for r in plain for v in late(r["raw_step_ms"]))),
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                             "unit": "MiB", "n": 1, "of": "process"},
            "kv_footprint_mib": {"value": first_counts["kv_footprint_mib"], "unit": "MiB",
                                 "n": len(plain), "of": "passes"},
            "landmark_retention": {"value": first_counts["landmark_retention"], "unit": "fraction",
                                   "n": len(plain), "of": "passes"},
        }
        return result

    units = dict(spec.PER_LAYER)
    metrics = {}
    for name, unit in units.items():
        if not all(name in r["layers"] for r in traced):
            continue
        metrics[name] = _summary([r["layers"][name] / (r["factor"] if unit == "ms" else 1.0)
                                  for r in traced], unit, "traced passes")
        if unit == "ms":
            metrics[name]["raw"] = statistics.median(r["layers"][name] for r in traced)
    overhead = statistics.median(frames_per_s) / statistics.median(r["frames_per_s"] for r in traced) - 1.0
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "fraction",
                                      "n": len(plain) + len(traced), "of": "passes"}
    result.update(metrics=metrics, absent=sorted(tracer.absent | tracer.broken_counters))
    tracer.write(work / f"spans-{args.workload}-{args.seed}.jsonl")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--budget-s", type=float, default=150.0)
    args = parser.parse_args(argv)
    result = cmd_setup(args) if args.mode == "setup" else cmd_measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
