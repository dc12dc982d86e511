"""Trace round-trips, heatmap export, summary tables."""

import json
import tracemalloc

import numpy as np
import pytest

from boundedkv.config import StreamConfig
from boundedkv.errors import MalformedTrace, UnknownLayer
from boundedkv.oracle import baseline_run, brute_force_scores, map_log_from_records
from boundedkv.simulate import PAYLOADS, run_stream
from boundedkv.telemetry import (
    TraceRecord,
    export_heatmap,
    heatmap_grid,
    read_trace,
    summarize,
    summary_row,
    write_trace,
)

SMALL = dict(layers=2, heads=2, dim=16, tokens_per_frame=4, registers=0, frames=6, seed=21)


def test_round_trip_records_and_bytes(tmp_path):
    run = run_stream(StreamConfig(**SMALL, beta=0.5))
    path = tmp_path / "trace.jsonl"
    write_trace(run, path)
    trace = read_trace(path)
    assert trace.version == 1
    assert trace.config["frames"] == 6
    assert trace.records == run.records
    # Writing what was read reproduces the file byte for byte.
    second = tmp_path / "copy.jsonl"
    write_trace(trace, second)
    assert second.read_bytes() == path.read_bytes()


def assert_typed_payloads(records):
    for rec in records:
        for name, (dtype, rank) in PAYLOADS.items():
            value = getattr(rec, name)
            assert type(value) is np.ndarray and value.dtype == dtype and value.ndim == rank, name


def test_run_and_trace_payloads_are_typed_arrays(tmp_path):
    # A run's records and the records a trace reads back hold every
    # payload as an ndarray of its PAYLOADS dtype and rank, and a layer
    # that evicted nothing writes an empty "evicted" list.
    run = run_stream(StreamConfig(**SMALL, beta=0.3, keep_maps=True))
    assert_typed_payloads(run.records)
    lines = write_trace(run, tmp_path / "trace.jsonl").read_text().splitlines()[1:]
    evicted = [json.loads(line)["evicted"] for line in lines]
    assert [len(e) for e in evicted] == [len(rec.evicted_ids) for rec in run.records]
    assert any(evicted) and not all(evicted)
    for rec, line in zip(run.records, lines):
        if not len(rec.evicted_ids):
            assert '"evicted":[]' in line
    read = read_trace(tmp_path / "trace.jsonl").records
    assert_typed_payloads(read)
    assert read == run.records


@pytest.mark.parametrize("field, value", [
    ("maps", [[[0.5, 0.5], [1.0]]]),
    ("key_ids", ["a", "b"]),
    ("key_ids", ["1", "2"]),
    ("key_ids", [1.5, 2.0]),
    ("col_sums_raw", 0.5),
    ("col_sums_headmean", [[0.5, 0.5]]),
    ("evicted", [{"token_id": "3", "importance": 0.1}]),
    ("evicted", [{"token_id": 3, "importance": None}]),
], ids=["ragged_maps", "string_key_ids", "numeral_key_ids", "float_key_ids", "scalar_col_sums_raw",
        "rank2_col_sums_headmean", "string_evicted_id", "null_importance"])
def test_malformed_payload_reports_line(tmp_path, field, value):
    # A payload that is ragged, non-numeric or of the wrong rank fails
    # on its own line instead of reading back as something else.
    run = run_stream(StreamConfig(**SMALL, beta=0.3, keep_maps=True))
    lines = write_trace(run, tmp_path / "trace.jsonl").read_text().splitlines()
    record = json.loads(lines[3])
    record[field] = value
    lines[3] = json.dumps(record)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedTrace) as err:
        read_trace(bad)
    assert err.value.line == 4


def test_read_trace_holds_only_its_result(tmp_path):
    # The reader parses line by line: beyond the records it returns it
    # holds about one line, never the whole text or a list of its lines.
    run = run_stream(StreamConfig(**{**SMALL, "frames": 24}, beta=0.5, keep_maps=True))
    path = write_trace(run, tmp_path / "trace.jsonl")
    size = path.stat().st_size
    tracemalloc.start()
    try:
        trace = read_trace(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.records == run.records
    assert peak - kept < size / 2


def test_crlf_trace_reads_back_equal(tmp_path):
    run = run_stream(StreamConfig(**SMALL, beta=0.5))
    path = write_trace(run, tmp_path / "trace.jsonl")
    crlf = tmp_path / "crlf.jsonl"
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert read_trace(crlf) == read_trace(path)


def test_malformed_trace_reports_line(tmp_path):
    run = run_stream(StreamConfig(**SMALL))
    path = tmp_path / "trace.jsonl"
    write_trace(run, path)
    lines = path.read_text().splitlines()
    lines[3] = lines[3][:-5] + "garbage"
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedTrace) as err:
        read_trace(bad)
    assert err.value.line == 4

    nohdr = tmp_path / "nohdr.jsonl"
    nohdr.write_text("\n".join(lines[1:]) + "\n")
    with pytest.raises(MalformedTrace) as err:
        read_trace(nohdr)
    assert err.value.line == 1


def test_truncated_last_record_is_reported(tmp_path):
    # A writer that stopped part-way leaves a last line without its
    # newline; read_trace names it instead of calling it invalid JSON.
    run = run_stream(StreamConfig(**SMALL, beta=0.5))
    path = tmp_path / "trace.jsonl"
    write_trace(run, path)
    data = path.read_bytes()
    n_lines = data.count(b"\n")
    for cut in (2, 40, len(data.splitlines()[-1])):
        cut_path = tmp_path / f"cut{cut}.jsonl"
        cut_path.write_bytes(data[:-cut])
        with pytest.raises(MalformedTrace, match="truncated last record") as err:
            read_trace(cut_path)
        assert err.value.line == n_lines
    # Losing only the final newline loses no record.
    cut_path = tmp_path / "cut1.jsonl"
    cut_path.write_bytes(data[:-1])
    assert read_trace(cut_path).records == read_trace(path).records


def test_baseline_trace_key_count(tmp_path):
    cfg = StreamConfig(**{**SMALL, "frames": 8})
    run = baseline_run(cfg)
    path = tmp_path / "trace.jsonl"
    write_trace(run, path)
    trace = read_trace(path)
    last = [r for r in trace.records if r.step == 7]
    assert all(r.n_keys == 8 * cfg.tokens_per_frame for r in last)


def test_trace_feeds_brute_force(tmp_path):
    cfg = StreamConfig(**SMALL, beta=0.4, keep_maps=True)
    run = run_stream(cfg)
    path = tmp_path / "trace.jsonl"
    write_trace(run, path)
    records = read_trace(path).records
    scores = brute_force_scores(map_log_from_records(records, 0))
    lc = run.session.layers[0]
    for rec in list(lc.records) + list(lc.evicted):
        assert rec.cum_score == pytest.approx(scores[rec.token_id].cum_score, rel=1e-9)


def synthetic_records(col_sums_by_step, layer=0):
    records = []
    for step, sums in enumerate(col_sums_by_step):
        sums = np.array(sums, dtype=np.float64)
        records.append(TraceRecord(
            step=step, layer=layer, n_keys=len(sums), budget_pre=None, budget_post=None,
            occupancy_pre=0, occupancy_post=len(sums), protected_count=0, clamped=False, reason=None,
            key_ids=np.arange(len(sums)), col_sums_raw=2 * sums, col_sums_headmean=sums,
        ))
    return records


def test_heatmap_constant_for_uniform_attention():
    records = synthetic_records([[0.5, 0.5], [0.5, 0.5]])
    grid, ids, bounds = heatmap_grid(records, 0)
    assert np.all(grid == 0.5)
    assert ids == [0, 1]


def test_heatmap_reweight_multiplies_rows_exactly():
    records = synthetic_records([[0.25, 0.25], [0.125, 0.125], [0.0625, 0.0625]])
    plain, _, _ = heatmap_grid(records, 0, reweight=False)
    weighted, _, _ = heatmap_grid(records, 0, reweight=True)
    for t in range(3):
        assert np.array_equal(weighted[t], plain[t] * (t + 1))


def test_heatmap_unknown_layer():
    records = synthetic_records([[1.0]])
    with pytest.raises(UnknownLayer):
        heatmap_grid(records, 5)


def test_heatmap_files_and_boundaries(tmp_path):
    cfg = StreamConfig(**SMALL)
    run = baseline_run(cfg)
    records = run.records
    grid_path = tmp_path / "heatmap.txt"
    grid = export_heatmap(records, 1, grid_path)
    assert grid_path.exists()
    loaded = np.loadtxt(grid_path)
    assert np.allclose(loaded, grid, rtol=0, atol=0)

    pgm = (tmp_path / "heatmap.pgm").read_text().splitlines()
    assert pgm[0] == "P2"
    width, height = map(int, pgm[1].split())
    assert (height, width) == grid.shape
    assert int(pgm[2]) == 255

    sidecar = json.loads((tmp_path / "heatmap.frames.json").read_text())
    # Baseline admission order: frame f starts at column f * M.
    assert sidecar["frame_boundaries"] == [f * cfg.tokens_per_frame for f in range(cfg.frames)]


def test_heatmap_from_run_records_matches_trace_records(tmp_path):
    run = run_stream(StreamConfig(**SMALL, beta=0.5))
    export_heatmap(run.records, 1, tmp_path / "run.txt")
    export_heatmap(read_trace(write_trace(run, tmp_path / "trace.jsonl")).records, 1, tmp_path / "trace.txt")
    for suffix in (".txt", ".pgm", ".frames.json"):
        written = [(tmp_path / name).with_suffix(suffix).read_bytes() for name in ("run", "trace")]
        assert written[0] == written[1]


def test_exported_variance_ordering_matches_sparsity(tmp_path):
    # Two layers, one forced sharper: the variance recomputed from the
    # exported grid rows must order the layers the same way the
    # allocator's sparsity values do.
    cfg = StreamConfig(layers=2, heads=2, dim=16, tokens_per_frame=6, registers=0,
                       frames=8, seed=3, sharpness_profile=[1.0, 4.0])
    run = baseline_run(cfg)
    records = run.records
    variances = []
    for layer in (0, 1):
        grid, _, _ = heatmap_grid(records, layer)
        variances.append(float(np.var(grid[-1][grid[-1] > 0])))
    sigmas = [run.reports[-1].layers[i].sigma for i in (0, 1)]
    assert variances[1] > variances[0]
    assert sigmas[1] < sigmas[0]
    assert variances[0] == pytest.approx(-sigmas[0], rel=1e-9)
    assert variances[1] == pytest.approx(-sigmas[1], rel=1e-9)


def test_summarize_empty_is_header_only():
    text = summarize([])
    lines = text.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("label,policy,")


def test_summarize_pure_function():
    run = run_stream(StreamConfig(**SMALL, beta=0.5))
    rows = [summary_row(run, label="x")]
    assert summarize(rows) == summarize(rows)


def test_beta_sweep_footprints_increase():
    rows = []
    peaks = []
    for beta in (0.2, 0.4, 0.6, 0.8):
        cfg = StreamConfig(**{**SMALL, "frames": 12}, beta=beta)
        run = run_stream(cfg)
        row = summary_row(run, label=f"b{beta}")
        rows.append(row)
        peaks.append(row.peak_footprint_bytes)
    assert peaks == sorted(peaks)
    assert len(set(peaks)) == len(peaks)  # strictly increasing

    base = baseline_run(StreamConfig(**{**SMALL, "frames": 12}))
    base_peak = summary_row(base, label="baseline").peak_footprint_bytes
    assert all(base_peak > p for p in peaks)

    table = summarize(rows)
    assert table.count("\n") == 5  # header + 4 rows
