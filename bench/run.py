"""Stream benchmark of boundedkv: one workload, one seed, one run.

    python3 bench/run.py --workload scale_evict --seed 1 --seconds 20 --trace 0

Run from the repository root. Every measurement happens in fresh child
processes (`worker.py`) with BLAS/OpenMP pools pinned to one thread and
`src/` on the import path. `--trace 0` reports the end-to-end metrics:
set-up time from several fresh processes, then one process that repeats
the workload's closed-loop stream for `--seconds` of timed passes.
`--trace 1` alternates untraced and span-traced passes and reports the
per-layer metrics. Timings are reported at the nominal host speed of
the reference kernel in `hostref.py`, which every child process times
too. Each metric is printed by name with its unit, then
the environment, then one JSON result line, which is the last line of
standard output. See README.md in this directory for the workloads and
what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

# Whole-run wall limit; the measuring child gets what set-up leaves.
RUN_LIMIT_S = 170.0


def fail(message: str) -> NoReturn:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def check_spec() -> None:
    """BENCHMARK.json must name exactly the workloads and metrics here."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path.name} not found at the repository root")
    declared = json.loads(path.read_text())
    pairs = [
        ("workloads", [w["name"] for w in declared["workloads"]], list(spec.WORKLOADS)),
        ("end_to_end", [(m["name"], m["unit"]) for m in declared["end_to_end"]], spec.END_TO_END),
        ("per_layer", [(m["name"], m["unit"]) for m in declared["per_layer"]], spec.PER_LAYER),
    ]
    for key, found, expected in pairs:
        if found != expected:
            fail(f"BENCHMARK.json {key} differs from bench/spec.py")


def child_env() -> dict:
    env = dict(os.environ)
    env.update(spec.THREAD_PINS)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: list[str], timeout: float) -> dict | None:
    """Run worker.py; its last stdout line is its JSON result."""
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"bench: worker {args[0]} exceeded {timeout:.0f} s and was stopped", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"bench: worker {args[0]} exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def describe(name: str, m: dict) -> str:
    line = f"  {name:<32} {m['value']:>14.6g} {m['unit']:<9}"
    if "q1" in m:
        line += f" median of {m['n']} {m['of']} [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}]"
    elif "beyond" in m:
        line += f" of {m['n']} {m['of']}, {m['beyond']} beyond it"
    else:
        line += f" ({m['n']} {m['of']})"
    if "raw" in m:
        line += f" raw {m['raw']:.6g}"
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Stream benchmark of boundedkv (one run).")
    parser.add_argument("--workload", required=True, choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "boundedkv" / "__init__.py").is_file():
        fail(f"no boundedkv sources under {ROOT / 'src'}")
    check_spec()
    started = time.monotonic()
    with open("/proc/loadavg", encoding="ascii") as fh:
        loadavg = fh.read().strip()
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    attempted = failed = 0
    metrics: dict[str, dict] = {}
    if not args.trace:
        setups, raw_setups = [], []
        for _ in range(spec.SETUP_REPEATS):
            attempted += 1
            result = run_worker(["setup", *common], timeout=60)
            if result is None:
                failed += 1
            else:
                setups.append(result["setup_s"] / result["host_factor"])
                raw_setups.append(result["setup_s"])
        if not setups:
            fail("every set-up process failed")
        q1, q2, q3 = statistics.quantiles(setups, n=4) if len(setups) > 1 else setups * 3
        metrics["setup_s"] = {"value": q2, "unit": "s", "q1": q1, "q3": q3,
                              "n": len(setups), "of": "fresh processes",
                              "raw": statistics.median(raw_setups)}

    budget = RUN_LIMIT_S - (time.monotonic() - started)
    result = run_worker(["measure", *common, "--seconds", str(args.seconds), "--trace", str(args.trace),
                         "--budget-s", str(budget - 20)],
                        timeout=budget)
    if result is None:
        fail("the measuring process failed")
    attempted += result["attempted"]
    failed += result["failed"]
    metrics.update(result.get("metrics", {}))

    expected = spec.PER_LAYER if args.trace else spec.END_TO_END
    missing = [name for name, _ in expected if name not in metrics]
    held_out = " (the held-out seed)" if args.seed == spec.HELD_OUT_SEED else ""
    print(f"workload {args.workload}  seed {args.seed}{held_out}  trace {args.trace}  "
          f"(closed loop: one stream, next frame after the previous step returns)")
    for name, _ in expected:
        if name in metrics:
            print(describe(name, metrics[name]))
        else:
            print(f"  {name:<32} absent")
    print(f"  failed_frac {failed / attempted:.6g} ({failed} of {attempted} operations: "
          f"set-up processes and workload passes)")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    if result.get("absent"):
        print(f"  absent entry points: {', '.join(result['absent'])}")
    digest = result["digest"]
    if digest["recorded"] is None:
        print(f"  output digest {digest['value']} (no digest recorded for this workload and seed)")
    else:
        print(f"  output digest {digest['value']} (recorded {digest['recorded']})")
    print(f"  counts {json.dumps(result['counts'], sort_keys=True)}")
    if "host_factor" in result:
        print(f"  host factor {result['host_factor']:.4f} (median reference unit time over nominal, "
              f"sampled after each of {result['host_steps']} steps)")
    env = dict(result["env"], loadavg_at_start=loadavg, commit=git_commit())
    print(f"  env {json.dumps(env, sort_keys=True)}")

    # Absent per-layer metrics (renamed entry points) do not fail a run.
    correct = failed == 0 and not (missing and not args.trace)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name]["value"], "unit": unit}
                    for name, unit in expected if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
