"""What the stream benchmark under bench/ reads of the program.

Every benchmark workload runs at seed 0 through bench/worker.py's own
pass, checks and counts, and its output digest must equal the one
recorded in bench/digests.json. A change that renames or drops a field,
function or entry point the benchmark reads fails here, in the test
suite, and not only when the benchmark runs. This module only reads
bench/.
"""

import importlib.util
import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from boundedkv import oracle, simulate, telemetry
from boundedkv.config import StreamConfig
from boundedkv.telemetry import TraceRecord

BENCH = Path(__file__).resolve().parents[1] / "bench"
MODULES = {"simulate": simulate, "telemetry": telemetry, "oracle": oracle}
DIGESTS = json.loads((BENCH / "digests.json").read_text())


def _load_worker():
    spec = importlib.util.spec_from_file_location("bench_worker", BENCH / "worker.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


worker = _load_worker()


def _pass(name, tmp_path):
    workload = worker.spec.WORKLOADS[name]
    cfg = StreamConfig(**workload["config"], seed=0)
    run_pass = worker.audit_pass if workload["kind"] == "audit" else worker.stream_pass
    run, stage = run_pass(MODULES, cfg, tmp_path / "trace.jsonl")
    return cfg, run, stage


@pytest.fixture(scope="module", params=sorted(worker.spec.WORKLOADS))
def workload(request, tmp_path_factory):
    """(name, config, run, audit stage) of one seed-0 pass of a workload."""
    return request.param, *_pass(request.param, tmp_path_factory.mktemp(request.param))


def test_workload_passes_bench_checks(workload):
    _, cfg, run, stage = workload
    problems = worker.check_steps(run, cfg)
    if stage:
        problems += worker.check_audit(run, stage, telemetry)
    assert problems == []
    counts = worker.counts_of(run, oracle)
    assert counts["kv_footprint_mib"] > 0


def test_workload_output_digest_is_recorded(workload):
    name, _, run, _ = workload
    assert worker.output_digest(run) == DIGESTS[name]["0"]


def test_traced_pass_finds_every_entry_point(tmp_path):
    tracer = worker.tracing.SpanTracer()
    tracer.install()
    try:
        _, run, _ = _pass("trace_audit", tmp_path)
    finally:
        tracer.remove()
    layers = tracer.take_pass({})
    assert tracer.absent == set()
    assert tracer.broken_counters == set()
    counts = worker.counts_of(run, oracle)
    for count, metric in worker.spec.TRACED_COUNTS.items():
        assert layers[metric] == counts[count], metric


@pytest.fixture(scope="module")
def audit(tmp_path_factory):
    return _pass("trace_audit", tmp_path_factory.mktemp("audit"))


@pytest.mark.parametrize("name", sorted(f.name for f in fields(TraceRecord) if "dtype" in f.metadata))
def test_audit_flags_one_changed_payload_value(name, audit):
    # The trace gate compares read-back records exactly: one ulp on a
    # float payload or +1 on an id makes the records unequal, and
    # check_audit names the step.
    _, run, stage = audit
    read = stage["read"].records
    index = next(i for i, rec in enumerate(read) if getattr(rec, name).size)
    rec, original = read[index], getattr(read[index], name)
    nudged = original.copy()
    flat = nudged.reshape(-1)
    flat[-1] = flat[-1] + 1 if nudged.dtype == np.int64 else np.nextafter(flat[-1], np.inf)
    assert worker.check_audit(run, stage, telemetry) == []
    setattr(rec, name, nudged)
    try:
        assert rec != run.records[index]
        problems = worker.check_audit(run, stage, telemetry)
    finally:
        setattr(rec, name, original)
    assert problems == [f"step {rec.step}: trace records read back differ from those written"]
    assert rec == run.records[index]


def test_record_without_maps_differs_from_one_with_maps(audit):
    _, run, _ = audit
    rec = run.records[-1]
    assert rec.maps is not None
    bare = replace(rec, maps=None)
    assert bare != rec and rec != bare
    assert bare == replace(rec, maps=None)
