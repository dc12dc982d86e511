"""In-memory span tracing of boundedkv's module entry points.

The traced run replaces the module and class attributes that the
simulator and the benchmark call through with wrappers that record a
span [name, start_ns, end_ns, parent] with `time.perf_counter_ns`, and
count work at the same boundary. Spans stay in memory and are written
out when the run ends. An entry point that no longer exists is reported
as absent, and the metrics derived from it are left out.

The untraced run installs only `StepTimer`: one clock read pair around
`StreamSimulator.step`, then one unit of the host-speed reference
(`hostref.py`) outside that pair.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# The stream pass the benchmark times; spans below it are the step path.
MAIN_ROOT = "simulate.run_stream"

# (owner, attribute, span name). Owners are modules or classes; the
# simulator and eviction pass look these names up at call time.
ENTRY_POINTS = [
    ("boundedkv.simulate", "run_stream", MAIN_ROOT),
    ("boundedkv.simulate", "generate_frame", "simulate.generate_frame"),
    ("boundedkv.simulate.StreamSimulator", "step", "simulate.step"),
    ("boundedkv.simulate", "maintain_step", "eviction.maintain"),
    ("boundedkv.simulate", "admit", "cache.admit"),
    ("boundedkv.simulate", "stats_from_maps", "scoring.stats"),
    ("boundedkv.simulate", "accumulate", "scoring.accumulate"),
    ("boundedkv.simulate", "layer_sparsity", "scoring.sparsity"),
    ("boundedkv.simulate", "reallocate_step", "allocation.reallocate"),
    ("boundedkv.cache.LayerCache", "keys_matrix", "cache.keys_matrix"),
    ("boundedkv.cache.LayerCache", "values_matrix", "cache.values_matrix"),
    ("boundedkv.eviction", "remove", "cache.remove"),
    ("boundedkv.eviction.AttentionPolicy", "plan", "eviction.plan"),
    ("boundedkv.telemetry", "write_trace", "telemetry.write_trace"),
    ("boundedkv.telemetry", "read_trace", "telemetry.read_trace"),
    ("boundedkv.oracle", "brute_force_scores", "oracle.brute_force"),
    ("boundedkv.oracle", "baseline_run", "oracle.baseline_run"),
    ("boundedkv.oracle", "compare_runs", "oracle.compare_runs"),
]

# Step-path metrics: ms per frame of the spans' self or total time.
_PER_FRAME = {
    "simulate.step_self_ms": (("simulate.step",), "self"),
    "simulate.generate_frame_ms": (("simulate.generate_frame",), "total"),
    "cache.kv_gather_ms": (("cache.keys_matrix", "cache.values_matrix"), "total"),
    "cache.admit_ms": (("cache.admit",), "total"),
    "cache.remove_ms": (("cache.remove",), "total"),
    "scoring.stats_ms": (("scoring.stats",), "total"),
    "scoring.accumulate_ms": (("scoring.accumulate",), "total"),
    "scoring.sparsity_ms": (("scoring.sparsity",), "total"),
    "eviction.maintain_ms": (("eviction.maintain",), "self"),
    "eviction.plan_ms": (("eviction.plan",), "total"),
    "allocation.reallocate_ms": (("allocation.reallocate",), "total"),
}

# Pass-stage metrics: ms per pass, whatever the span's root.
_PER_PASS = {
    "telemetry.write_trace_ms": "telemetry.write_trace",
    "telemetry.read_trace_ms": "telemetry.read_trace",
    "oracle.brute_force_ms": "oracle.brute_force",
    "oracle.baseline_run_ms": "oracle.baseline_run",
    "oracle.compare_runs_ms": "oracle.compare_runs",
}

# Count metrics and the span whose wrapper counts them.
_COUNT_SOURCE = {
    "simulate.macs_per_step": "simulate.step",
    "cache.occupancy_mean": "simulate.step",
    "allocation.clamped_layer_steps": "simulate.step",
    "scoring.keys_scored": "scoring.accumulate",
    "eviction.tokens_evicted": "eviction.plan",
    "eviction.victim_ratio": "eviction.plan",
    "allocation.budget_spread": "allocation.reallocate",
    "cache.evicted_log_len": MAIN_ROOT,
}


def _resolve(dotted: str):
    """Import the longest module prefix of `dotted`, then walk attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name, None)
            if obj is None:
                return None
        return obj
    return None


def _count_step(c, args, result):
    layers = result[1].layers
    c["steps"] += 1
    c["macs"] += result[1].multiplies_total
    c["occupancy_sum"] += sum(lr.n_keys for lr in layers)
    c["occupancy_cells"] += len(layers)
    c["clamped"] += sum(bool(lr.clamped) for lr in layers)


def _count_accumulate(c, args, result):
    c["keys_scored"] += args[1].n_keys


def _count_plan(c, args, result):
    layer = args[1]
    c["victims"] += len(result.victim_ids)
    c["candidates"] += layer.occupancy() - layer.protected_count


def _count_reallocate(c, args, result):
    if result is not None:
        c["spread_sum"] += max(result.budgets) - min(result.budgets)
        c["spread_n"] += 1


def _count_run(c, args, result):
    c["evicted_log_len"] += sum(len(layer.evicted) for layer in result.session.layers)


_HOOKS = {
    "simulate.step": _count_step,
    "scoring.accumulate": _count_accumulate,
    "eviction.plan": _count_plan,
    "allocation.reallocate": _count_reallocate,
    MAIN_ROOT: _count_run,
}


class _Patches:
    """Attribute replacements that `remove` puts back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, fn) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, fn)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


class StepTimer:
    """Per-frame wall time of `StreamSimulator.step`, the untraced hook.

    After each step it times one host-reference unit, so `ref_ns[i]`
    is the host's speed right after `step_ns[i]`.
    """

    def __init__(self, reference):
        self.step_ns: list[int] = []
        self.ref_ns: list[int] = []
        self._reference = reference
        self._patches = _Patches()

    def install(self) -> None:
        owner = _resolve("boundedkv.simulate.StreamSimulator")
        step = owner.step
        times, refs, clock = self.step_ns, self.ref_ns, time.perf_counter_ns
        unit_ns = self._reference.unit_ns

        def timed_step(*args, **kwargs):
            start = clock()
            result = step(*args, **kwargs)
            times.append(clock() - start)
            refs.append(unit_ns())
            return result

        self._patches.replace(owner, "step", timed_step)

    def remove(self) -> None:
        self._patches.remove()

    def clear(self) -> None:
        self.step_ns.clear()
        self.ref_ns.clear()


class SpanTracer:
    """Span recorder over ENTRY_POINTS, with counters per root span."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.absent: set[str] = set()
        self.broken_counters: set[str] = set()
        self._stack: list[int] = []
        self._patches = _Patches()
        self._written: list[list] = []

    def install(self) -> None:
        present: set[str] = set()
        for owner_path, attr, name in ENTRY_POINTS:
            owner = _resolve(owner_path)
            if owner is None or not callable(getattr(owner, attr, None)):
                continue
            present.add(name)
            self._patches.replace(owner, attr, self._wrap(getattr(owner, attr), name))
        self.absent = {name for _, _, name in ENTRY_POINTS} - present

    def remove(self) -> None:
        self._patches.remove()

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        hook = _HOOKS.get(name)
        counters, broken = self.counters, self.broken_counters

        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                try:
                    hook(counters[spans[stack[0]][0] if stack else name], args, result)
                except AttributeError:
                    broken.add(name)
            return result

        return traced

    def take_pass(self, extra: dict) -> dict:
        """Per-layer metrics of the spans recorded since the last call."""
        metrics = _derive(self.spans, self.counters.get(MAIN_ROOT, {}), self.absent, self.broken_counters)
        metrics.update(extra)
        self._written.append(list(self.spans))
        self.spans.clear()
        self.counters.clear()
        return metrics

    def write(self, path) -> None:
        """Write every pass's spans as JSON lines {pass, name, start, end, parent}."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, spans in enumerate(self._written):
                for name, start, end, parent in spans:
                    fh.write(json.dumps({"pass": index, "name": name, "start": start,
                                         "end": end, "parent": parent}) + "\n")


def _derive(spans, counts, absent, broken) -> dict:
    n = len(spans)
    duration = [end - start for _, start, end, _ in spans]
    child_time = [0] * n
    root = list(range(n))
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += duration[i]
            root[i] = root[parent]
    total: dict[str, int] = defaultdict(int)
    own: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    anywhere: dict[str, int] = defaultdict(int)
    for i, (name, _, _, _) in enumerate(spans):
        anywhere[name] += duration[i]
        if spans[root[i]][0] == MAIN_ROOT:
            total[name] += duration[i]
            own[name] += duration[i] - child_time[i]
            calls[name] += 1

    frames = calls["simulate.step"]
    out: dict[str, float] = {}
    for metric, (names, kind) in _PER_FRAME.items():
        if any(name in absent for name in names):
            continue
        source = own if kind == "self" else total
        out[metric] = sum(source[name] for name in names) / max(frames, 1) / 1e6
    for metric, name in _PER_PASS.items():
        if name not in absent:
            out[metric] = anywhere[name] / 1e6

    def ratio(a, b):
        return counts.get(a, 0) / counts[b] if counts.get(b) else 0.0

    derived = {
        "simulate.macs_per_step": ratio("macs", "steps"),
        "cache.occupancy_mean": ratio("occupancy_sum", "occupancy_cells"),
        "allocation.clamped_layer_steps": counts.get("clamped", 0),
        "scoring.keys_scored": counts.get("keys_scored", 0),
        "eviction.tokens_evicted": counts.get("victims", 0),
        "eviction.victim_ratio": ratio("victims", "candidates"),
        "allocation.budget_spread": ratio("spread_sum", "spread_n"),
        "cache.evicted_log_len": counts.get("evicted_log_len", 0),
    }
    for metric, value in derived.items():
        source = _COUNT_SOURCE[metric]
        if source not in absent and source not in broken:
            out[metric] = value
    return out
