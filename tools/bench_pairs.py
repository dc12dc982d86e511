"""Alternating A/B pairs of the stream benchmark: a parent checkout against
a change checkout, over one or more workloads.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload trace_audit --pairs 10 --seconds 20

``--workload`` may be given more than once; the pairs of each workload
run in the order given, and one summary per workload is printed at the
end. Each pair runs
``python3 bench/run.py --workload W --seed SEED --seconds S`` once in
each checkout, in that checkout's directory; pairs 1, 3, ... run
the parent first and pairs 2, 4, ... the change first, so a drift of the
host over the measurement falls on both sides alike. Runs are sequential.

For each end-to-end metric that ``BENCHMARK.json`` declares, the summary
prints the parent's and the change's medians, the change's relative
difference, how many pairs the change won (ties count for neither side),
and the parent's own spread as the distance between its quartiles. A
gain may be claimed only over at least ten pairs, when the change wins at
least nine tenths of them and the medians differ by more than that
spread; a metric whose median worsens by more than its ``bound`` is
flagged. A timing's median ``raw`` value (before the host factor) is
printed beside it when the run reports one, with the parent's quartile
spread of that raw value, and each side's median host factor (raw over
normalised) after the table, so that a shift of the reference unit's
speed between the sides shows. The exit code is 1 when
any run failed or any metric is flagged. Uses only the standard library.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

# A human-readable metric line of bench/run.py that ends in its raw value.
_RAW_LINE = re.compile(r"^\s+(\S+)\s+\S+\s+\S+\s.*\braw (\S+)\s*$")
# bench/run.py's line with the run's host factor.
_HOST_FACTOR_LINE = re.compile(r"^\s+host factor (\S+)", re.MULTILINE)
RUN_TIMEOUT_S = 600.0


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``: its metric values, raw values,
    host factor (None when the run prints none) and failure counts, or
    ``{"error": ...}`` when the run gave no result."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {RUN_TIMEOUT_S:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {proc.returncode}, no result line; stderr: {proc.stderr.strip()[-300:]}"}
    raw = {}
    for line in lines:
        match = _RAW_LINE.match(line)
        if match:
            raw[match.group(1)] = float(match.group(2))
    host_factor = _HOST_FACTOR_LINE.search(proc.stdout)
    return {"values": {name: m["value"] for name, m in result["metrics"].items()}, "raw": raw,
            "host_factor": float(host_factor.group(1)) if host_factor else None,
            "correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"]}


def quartile_spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(declared: list[dict], pairs: list[tuple[dict, dict]]) -> tuple[list[str], bool]:
    """Summary lines per end-to-end metric, and whether any metric worsened
    by more than its bound."""
    lines = [f"  {'metric':<20} {'parent':>11} {'change':>11} {'diff':>8} {'wins':>6} {'parent IQR':>11}  verdict"]
    flagged = False
    for metric in declared:
        name, lower_is_better, bound = metric["name"], metric["better"] == "lower", metric["bound"]
        both = [(p["values"][name], c["values"][name]) for p, c in pairs
                if name in p.get("values", {}) and name in c.get("values", {})]
        if not both:
            lines.append(f"  {name:<20} absent")
            continue
        parent = statistics.median(v for v, _ in both)
        change = statistics.median(v for _, v in both)
        wins = sum((c < p) if lower_is_better else (c > p) for p, c in both)
        spread = quartile_spread([v for v, _ in both])
        worse = (change - parent) if lower_is_better else (parent - change)
        diff = (change - parent) / parent if parent else 0.0
        if parent and worse / abs(parent) > bound:
            verdict, flagged = f"WORSE than bound {bound:.0%}", True
        elif len(both) >= 10 and wins >= 0.9 * len(both) and abs(change - parent) > spread and worse < 0:
            verdict = "better beyond spread"
        else:
            verdict = "within bound"
        line = f"  {name:<20} {parent:>11.5g} {change:>11.5g} {diff:>+8.1%} {wins:>3}/{len(both):<2} {spread:>11.3g}  {verdict}"
        raws = [(p["raw"][name], c["raw"][name]) for p, c in pairs
                if name in p.get("raw", {}) and name in c.get("raw", {})]
        if raws:
            line += (f"  raw {statistics.median(v for v, _ in raws):.5g}"
                     f" -> {statistics.median(v for _, v in raws):.5g}"
                     f" (parent IQR {quartile_spread([v for v, _ in raws]):.3g})")
        lines.append(line)
    return lines, flagged


def host_factor(pairs: list[tuple[dict, dict]], index: int) -> str:
    """The median host factor of one side's runs, or "absent"."""
    factors = [pair[index]["host_factor"] for pair in pairs if pair[index].get("host_factor") is not None]
    return f"{statistics.median(factors):.4f}" if factors else "absent"


def run_pairs(sides: dict, workload: str, args) -> tuple[list[tuple[dict, dict]], bool]:
    """``args.pairs`` alternating pairs of one workload, each run's line
    printed as it ends, and whether any run failed."""
    pairs, failed = [], False
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs = {}
        for side in order:
            runs[side] = run_once(sides[side], workload, args.seed, args.seconds)
            run = runs[side]
            if "error" in run:
                print(f"{workload} pair {i + 1} {side}: {run['error']}", flush=True)
                failed = True
                continue
            failed |= not run["correct"]
            shown = " ".join(f"{k}={v:.5g}" for k, v in run["values"].items())
            print(f"{workload} pair {i + 1} {side}: {run['failed']}/{run['attempted']} failed; {shown}", flush=True)
        pairs.append((runs["parent"], runs["change"]))
    return pairs, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Alternating parent/change pairs of bench/run.py.")
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout (repository root)")
    parser.add_argument("--change", type=Path, required=True, help="change checkout (repository root)")
    parser.add_argument("--workload", action="append", required=True, help="a workload; may be repeated")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=1729)
    args = parser.parse_args(argv)

    declared = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    summaries, failed = [], False
    for workload in args.workload:
        pairs, workload_failed = run_pairs(sides, workload, args)
        lines, flagged = summarize(declared, pairs)
        failed |= workload_failed or flagged
        summaries.append(f"{workload}, seed {args.seed}, {args.seconds:g} s runs, {args.pairs} pairs")
        for side, index in (("parent", 0), ("change", 1)):
            done = [pair[index] for pair in pairs if "error" not in pair[index]]
            summaries.append(f"  {side} passes failed: {sum(r['failed'] for r in done)}/"
                             f"{sum(r['attempted'] for r in done)}")
        summaries += lines
        summaries.append("  median host factor: " + ", ".join(f"{side} {host_factor(pairs, index)}"
                                                              for side, index in (("parent", 0), ("change", 1))))
    print("\n".join(summaries))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
