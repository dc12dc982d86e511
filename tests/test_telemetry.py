"""Trace round-trips, heatmap export, summary tables."""

import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from boundedkv.config import ATTN_DTYPES, BUDGET_MODES, POLICIES, REASONS, StreamConfig
from boundedkv.errors import MalformedTrace, NonFiniteRecord, UnknownLayer
from boundedkv.oracle import baseline_run, brute_force_scores, map_log_from_records
from boundedkv.simulate import run_stream
from boundedkv.telemetry import (
    TRACE_FORMAT,
    Trace,
    TraceRecord,
    _JSON_FIELDS,
    _dumps,
    export_heatmap,
    heatmap_grid,
    read_trace,
    summarize,
    summary_row,
    write_trace,
)

from builders import layer_record
from refimpl import stdlib_trace_bytes

SMALL = dict(layers=2, heads=2, dim=16, tokens_per_frame=4, registers=0, frames=6, seed=21)


def test_round_trip_records_and_bytes(tmp_path):
    run = run_stream(StreamConfig(**SMALL, beta=0.5))
    path = tmp_path / "trace.jsonl"
    write_trace(run, path)
    trace = read_trace(path)
    assert trace.config["frames"] == 6
    assert trace.records == run.records
    # Writing what was read reproduces the file byte for byte.
    second = tmp_path / "copy.jsonl"
    write_trace(trace, second)
    assert second.read_bytes() == path.read_bytes()


# Doubles whose decoding is easy to get wrong: subnormals, signed zeros,
# the largest finite value and 17 significant digits.
EDGE_FLOATS = st.one_of(
    st.sampled_from([5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                     0.0, -0.0, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda digits, exp: float(f"{digits}e{exp}"), st.integers(10**16, 10**17 - 1), st.integers(-340, 291)),
)
IDS = st.integers(-2**63, 2**63 - 1)


@st.composite
def trace_records(draw, config, step, layer):
    # Only records the writer can produce: every per-key payload holds
    # n_keys entries, and maps hold them on their last axis and the
    # config's heads on their first; occupancy_post is n_keys, and the
    # multiplies and footprint are the config's costs for n_keys. The
    # head-mean sums are not drawn: the writer derives them from col_sums_raw.
    n_evicted, n_keys = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    multiplies, footprint_bytes = config.layer_costs(n_keys)
    return TraceRecord(
        step=step, layer=layer, n_keys=n_keys,
        budget_pre=draw(st.none() | IDS), budget_post=draw(st.none() | IDS),
        occupancy_pre=draw(IDS), occupancy_post=n_keys, protected_count=draw(IDS),
        clamped=draw(st.booleans()), reason=draw(st.none() | st.sampled_from(REASONS)),
        evicted_ids=draw(arrays(np.int64, n_evicted, elements=IDS)),
        evicted_importances=draw(arrays(np.float64, n_evicted, elements=EDGE_FLOATS)),
        sigma=draw(EDGE_FLOATS), pi=draw(st.none() | EDGE_FLOATS),
        multiplies=multiplies, footprint_bytes=footprint_bytes,
        key_ids=draw(arrays(np.int64, n_keys, elements=IDS)),
        col_sums_raw=draw(arrays(np.float64, n_keys, elements=EDGE_FLOATS)),
        maps=draw(st.none() | arrays(np.float64, st.tuples(st.just(config.heads), st.integers(1, 3), st.just(n_keys)),
                                     elements=EDGE_FLOATS)),
    )


@st.composite
def config_and_records(draw):
    # A small stream and one record per (step, layer) cell, in order: the
    # only layout the reader accepts.
    tau = draw(EDGE_FLOATS.filter(lambda tau: tau > 0))
    config = StreamConfig(tau=tau, heads=draw(st.sampled_from([1, 2, 4])),
                          frames=draw(st.integers(0, 3)), layers=draw(st.integers(1, 2)))
    return config, [draw(trace_records(config, step, layer))
                    for step in range(config.frames) for layer in range(config.layers)]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=config_and_records())
def test_edge_values_read_back_exactly(tmp_path, drawn):
    # Every finite double and int64 reads back as the value written, and
    # the head-mean sums written as col_sums_raw / heads read back as that.
    # Rewriting what was read must give the same bytes, which also
    # catches a lost -0.0 sign that record equality cannot see.
    config, records = drawn
    trace = Trace(config=config.to_dict(), budget=config.budget_metadata(), records=records)
    first = write_trace(trace, tmp_path / "first.jsonl")
    read = read_trace(first)
    assert read.records == records
    assert read.config == trace.config and read.budget == trace.budget
    second = write_trace(read, tmp_path / "second.jsonl")
    assert second.read_bytes() == first.read_bytes()


# Every string a trace holds: record, evicted-entry and header keys,
# config and budget keys, the format tag, the reasons and each
# enumerated config value.
TRACE_STRINGS = sorted(
    _JSON_FIELDS | {"token_id", "importance", "format", "version", "config", "budget", TRACE_FORMAT}
    | StreamConfig().to_dict().keys() | StreamConfig().budget_metadata().keys()
    | {*REASONS, *POLICIES, *BUDGET_MODES, *ATTN_DTYPES})
# Finite doubles, weighted towards the ranges whose layout orjson and
# repr differ on: one-digit negative exponents, 1e-5 <= |x| < 1e-4 and
# positive exponents from 1e16.
LAYOUT_FLOATS = st.one_of(EDGE_FLOATS, st.floats(1e-10, 1e-4), st.floats(-1e-4, -1e-10),
                          st.floats(1e15, 1e17), st.floats(-1e308, -1e15))
INT64S = st.integers(-2**63, 2**63 - 1)


@st.composite
def payload_arrays(draw):
    # Float64 or int64 arrays of rank 1 to 3, some of them reversed or
    # strided, which are not C-contiguous.
    dtype, elements = draw(st.sampled_from([(np.float64, LAYOUT_FLOATS), (np.int64, INT64S)]))
    array = draw(arrays(dtype, array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4), elements=elements))
    return draw(st.sampled_from([array, array[::-1], array[..., ::2], array.T]))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | INT64S | LAYOUT_FLOATS | st.sampled_from(TRACE_STRINGS) | payload_arrays(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.sampled_from(TRACE_STRINGS), children,
                                                                     max_size=4),
    max_leaves=16)


@settings(max_examples=400, deadline=None)
@given(value=JSON_VALUES)
@example(value=[1e-05, 9.999999999999999e-05, 1e-04, 5e-324, -1.23e-05, 10.00001, 1e16, -0.0,
                1.7976931348623157e308])
@example(value=1e-05)
@example(value=-1.23e-05)
@example(value=1e-08)
@example(value=1e16)
@example(value=TRACE_STRINGS)
@example(value={name: name for name in TRACE_STRINGS})
def test_dumps_matches_stdlib_json(value):
    # The trace encoder writes what json.dumps writes, byte for byte.
    expected = json.dumps(value, separators=(",", ":"), default=np.ndarray.tolist).encode("ascii")
    assert _dumps(value) == expected


@pytest.mark.parametrize("config", [
    dict(beta=0.3, keep_maps=True),
    dict(beta=0.5, attn_dtype="float32"),
    dict(beta=0.4, policy="random"),
    dict(keep_maps=True),
], ids=["keep_maps", "float32", "random_policy", "unbounded"])
def test_trace_bytes_match_stdlib_writer(tmp_path, config):
    # write_trace writes what an independent json.dumps writer writes, for
    # a run and for the trace read back and written again.
    run = run_stream(StreamConfig(**{**SMALL, "frames": 12}, **config))
    written = write_trace(run, tmp_path / "trace.jsonl").read_bytes()
    assert written == stdlib_trace_bytes(run)
    read = read_trace(tmp_path / "trace.jsonl")
    assert write_trace(read, tmp_path / "again.jsonl").read_bytes() == stdlib_trace_bytes(read) == written


def test_keep_maps_trace_holds_every_rewritten_layout(tmp_path):
    # The byte comparison above covers each layout the encoder rewrites.
    run = run_stream(StreamConfig(**{**SMALL, "frames": 12}, beta=0.3, keep_maps=True))
    text = write_trace(run, tmp_path / "trace.jsonl").read_text()
    assert "e-05" in text and any(f"e-0{d}" in text for d in range(6, 10))


def test_largest_seed_round_trips(tmp_path):
    # The largest seed validate() accepts is written and read back as an int.
    run = run_stream(StreamConfig(**{**SMALL, "frames": 2, "seed": 2**63 - 1}))
    trace = read_trace(write_trace(run, tmp_path / "trace.jsonl"))
    assert trace.config["seed"] == 2**63 - 1 and trace.records == run.records


def test_import_does_not_load_orjson():
    # Importing the package is part of every process's set-up; the
    # encoder and decoder load orjson on first use.
    code = "import sys, boundedkv; sys.exit('orjson' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_non_finite_run_writes_no_trace(tmp_path):
    # Logits this sharp overflow; the run completes with NaN statistics,
    # which JSON cannot carry, so no trace file is written.
    with np.errstate(all="ignore"):
        run = run_stream(StreamConfig(frames=4, sharpness=1.7e308))
    path = tmp_path / "trace.jsonl"
    with pytest.raises(NonFiniteRecord, match=r"step \d+ layer \d+: \w+ is not finite") as err:
        write_trace(run, path)
    bad = run.records[[(r.step, r.layer) for r in run.records].index((err.value.step, err.value.layer))]
    assert not np.isfinite(getattr(bad, err.value.field)).all()
    assert not path.exists()


@pytest.mark.parametrize("field", ["sigma", "pi", "evicted_importances", "col_sums_raw", "maps"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
def test_non_finite_field_is_named(tmp_path, field, bad):
    run = run_stream(StreamConfig(**SMALL, beta=0.3, keep_maps=True))
    index = next(i for i, rec in enumerate(run.records) if len(rec.evicted_ids))
    rec = run.records[index]
    value = getattr(rec, field)
    if isinstance(value, np.ndarray):
        value = value.copy()
        value.flat[-1] = bad
    else:
        value = bad
    records = list(run.records)
    records[index] = replace(rec, **{field: value})
    trace = Trace(config=run.config.to_dict(), budget=run.budget, records=records)
    with pytest.raises(NonFiniteRecord) as err:
        write_trace(trace, tmp_path / "trace.jsonl")
    assert (err.value.step, err.value.layer, err.value.field) == (rec.step, rec.layer, field)
    assert str(err.value) == f"step {rec.step} layer {rec.layer}: {field} is not finite"
    assert not (tmp_path / "trace.jsonl").exists()


def assert_typed_payloads(records):
    for rec in records:
        for f in fields(TraceRecord):
            if "dtype" in f.metadata:
                value = getattr(rec, f.name)
                assert type(value) is np.ndarray and value.dtype == f.metadata["dtype"], f.name
                assert value.ndim == f.metadata["rank"], f.name


def test_run_and_trace_payloads_are_typed_arrays(tmp_path):
    # A run's records and the records a trace reads back hold every
    # payload as an ndarray of its field's dtype and rank, and a layer
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


MISSING = object()


@pytest.mark.parametrize("field, value", [
    ("maps", [[[0.5, 0.5], [1.0]]]),
    ("key_ids", ["a", "b"]),
    ("key_ids", ["1", "2"]),
    ("key_ids", [1.5, 2.0]),
    ("col_sums_raw", 0.5),
    ("col_sums_headmean", [[0.5, 0.5]]),
    ("evicted", [{"token_id": "3", "importance": 0.1}]),
    ("evicted", [{"token_id": 3, "importance": None}]),
    ("evicted", [{"token_id": 3, "importance": 0.1, "junk": 7}]),
    ("evicted", [{"token_id": 3}]),
    ("evicted", [[3, 0.1]]),
    ("evicted", {"token_id": 3, "importance": 0.1}),
    ("evicted", 3),
    ("step", "0"),
    ("step", True),
    ("layer", 1.0),
    ("n_keys", 2**64),
    ("occupancy_pre", None),
    ("clamped", 3),
    ("reason", 5),
    ("reason", "budget_grow"),
    ("sigma", "0.5"),
    ("pi", False),
    ("budget_post", 1.5),
    ("sigma", float("nan")),
    ("pi", float("-inf")),
    ("col_sums_raw", [0.5, float("inf")]),
    ("multiplies", MISSING),
    ("key_ids", MISSING),
    ("evicted", MISSING),
    ("extra", 1),
    ("n_keys", 10**6),
    ("key_ids", [1]),
    ("col_sums_raw", [0.5]),
    ("col_sums_headmean", [0.5]),
    ("maps", [[[0.5]]]),
    ("col_sums_headmean", lambda sums: sums[:-1] + [float(np.nextafter(sums[-1], np.inf))]),
    ("col_sums_headmean", lambda sums: [2 * x for x in sums]),
    ("maps", lambda maps: maps[:1]),
    ("maps", lambda maps: maps + maps[:1]),
    ("maps", lambda maps: [[row[:-1] for row in head] for head in maps]),
    ("occupancy_post", lambda n: n + 1),
    ("multiplies", lambda n: n + 1),
    ("footprint_bytes", lambda n: 2 * n),
], ids=["ragged_maps", "string_key_ids", "numeral_key_ids", "float_key_ids", "scalar_col_sums_raw",
        "rank2_col_sums_headmean", "string_evicted_id", "null_importance", "unknown_evicted_field",
        "evicted_without_importance", "evicted_entry_not_an_object", "evicted_object", "scalar_evicted",
        "string_step", "bool_step",
        "float_layer", "n_keys_past_2_64", "null_occupancy", "int_clamped", "int_reason", "unknown_reason", "string_sigma",
        "bool_pi", "float_budget", "nan_sigma", "infinite_pi", "infinite_col_sum", "no_multiplies",
        "no_key_ids", "no_evicted", "unknown_field", "wrong_n_keys", "short_key_ids", "short_col_sums_raw",
        "short_col_sums_headmean", "short_maps_key_axis", "headmean_one_ulp_off", "headmean_is_raw",
        "one_head_of_two", "three_heads_of_two", "maps_short_of_n_keys", "occupancy_post_not_n_keys",
        "multiplies_off_by_one", "footprint_doubled"])
def test_malformed_payload_reports_line(tmp_path, field, value):
    # A payload that is ragged, non-numeric or of the wrong rank, a scalar
    # of another JSON type than the writer gives it, a NaN or Infinity
    # literal (not JSON), a missing or unknown field, per-key payloads
    # that do not all hold n_keys entries, head-mean sums that are not
    # exactly col_sums_raw / heads (a function of the written value
    # below), maps that do not hold the header's heads, and an occupancy,
    # multiply count or footprint that n_keys and the header's config
    # contradict fail on their own line instead of reading back as
    # something else.
    run = run_stream(StreamConfig(**SMALL, beta=0.3, keep_maps=True))
    lines = write_trace(run, tmp_path / "trace.jsonl").read_text().splitlines()
    record = json.loads(lines[3])
    if value is MISSING:
        del record[field]
    elif callable(value):
        record[field] = value(record[field])
    else:
        record[field] = value
    lines[3] = json.dumps(record)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedTrace) as err:
        read_trace(bad)
    assert err.value.line == 4


# Each edit takes the records, as trace lines or as TraceRecords, and a
# function that moves one of them to another layer.
@pytest.mark.parametrize("edit, line", [
    (lambda records, relayer: records + records[-1:], 14),
    (lambda records, relayer: [records[0], records[2], records[1], *records[3:]], 3),
    (lambda records, relayer: [*records[:2], relayer(records[2], 2), *records[3:]], 4),
    (lambda records, relayer: records[:3], 5),
    (lambda records, relayer: records[:-2], 12),
], ids=["last_line_repeated", "two_lines_swapped", "layer_past_layers", "cut_mid_step", "last_step_missing"])
def test_records_must_fill_every_cell_in_order(tmp_path, edit, line):
    # Record i, on line i + 2, is the record of (step, layer) =
    # divmod(i, layers), and a trace holds frames * layers of them; read
    # back, any other layout would give a summary that counts a cell
    # twice or not at all.
    run = run_stream(StreamConfig(**SMALL, beta=0.5))
    header, *lines = write_trace(run, tmp_path / "trace.jsonl").read_text().splitlines()
    assert len(lines) == 12 and '"layer":0' in lines[2]
    bad = tmp_path / "bad.jsonl"
    edited = edit(lines, lambda text, layer: text.replace('"layer":0', f'"layer":{layer}', 1))
    bad.write_text("\n".join([header, *edited]) + "\n")
    with pytest.raises(MalformedTrace) as err:
        read_trace(bad)
    assert err.value.line == line
    # The writer refuses the same records with the same error, before it
    # creates the file.
    trace = read_trace(tmp_path / "trace.jsonl")
    trace.records = edit(trace.records, lambda rec, layer: replace(rec, layer=layer))
    with pytest.raises(MalformedTrace) as refused:
        write_trace(trace, tmp_path / "refused.jsonl")
    assert str(refused.value) == str(err.value)
    assert not (tmp_path / "refused.jsonl").exists()


def test_writer_keys_are_the_reader_schema(tmp_path):
    # Every record line write_trace writes carries exactly the fields
    # read_trace requires, so the two cannot drift apart.
    for keep_maps in (True, False):
        run = run_stream(StreamConfig(**SMALL, beta=0.3, keep_maps=keep_maps))
        lines = write_trace(run, tmp_path / "trace.jsonl").read_text().splitlines()[1:]
        assert lines and all(json.loads(line).keys() == _JSON_FIELDS for line in lines)


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

    # The header must carry the format tag, its config and budget must be
    # objects, and its version an int (True and 1.0 compare equal to 1).
    # Its config must hold every field, each of the JSON type to_dict
    # writes, and no other; its budget must be the one that config
    # resolves to.
    header = json.loads(lines[0])
    config = header["config"]
    no_frames = {key: value for key, value in config.items() if key != "frames"}
    for i, (key, value) in enumerate([
        ("format", "other-trace"), ("config", [1]), ("budget", [1]), ("version", True), ("version", 1.0),
        ("config", no_frames), ("config", {**config, "junk": 1}), ("config", {**config, "frames": 3.0}),
        ("config", {**config, "keep_maps": 1}), ("config", {**config, "beta": 0.5}),
        ("budget", {**header["budget"], "budget_tokens": 12}),
        ("budget", {**header["budget"], "bounded": 0}),
        ("config", {**config, "sharpness_profile": [True, 0]}),
        ("config", {**config, "sharpness_profile": [1.0, "2"]}),
    ]):
        bad_header = tmp_path / f"header{i}.jsonl"
        bad_header.write_text("\n".join([json.dumps({**header, key: value}), *lines[1:]]) + "\n")
        with pytest.raises(MalformedTrace) as err:
            read_trace(bad_header)
        assert err.value.line == 1

    # A header without config, and a blank line between two records.
    no_config = {key: value for key, value in header.items() if key != "config"}
    for i, (text, line) in enumerate([("\n".join([json.dumps(no_config), *lines[1:]]), 1),
                                      ("\n".join([*lines[:3], "", *lines[3:]]), 4)]):
        bad_layout = tmp_path / f"layout{i}.jsonl"
        bad_layout.write_text(text + "\n")
        with pytest.raises(MalformedTrace) as err:
            read_trace(bad_layout)
        assert err.value.line == line


def test_empty_trace_file_is_reported(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_bytes(b"")
    with pytest.raises(MalformedTrace, match="line 1: empty trace file"):
        read_trace(empty)


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


def synthetic_trace(col_sums_by_step, layer=0):
    # Two heads: the raw sums are twice the head-mean ones given.
    config = StreamConfig(heads=2)
    records = [layer_record(step, range(len(sums)), 2 * np.array(sums), layer=layer)
               for step, sums in enumerate(col_sums_by_step)]
    return Trace(config=config.to_dict(), budget=config.budget_metadata(), records=records)


def test_heatmap_constant_for_uniform_attention():
    trace = synthetic_trace([[0.5, 0.5], [0.5, 0.5]])
    grid, ids, bounds = heatmap_grid(trace, 0)
    assert np.all(grid == 0.5)
    assert ids == [0, 1]


def test_heatmap_reweight_multiplies_rows_exactly():
    trace = synthetic_trace([[0.25, 0.25], [0.125, 0.125], [0.0625, 0.0625]])
    plain, _, _ = heatmap_grid(trace, 0, reweight=False)
    weighted, _, _ = heatmap_grid(trace, 0, reweight=True)
    for t in range(3):
        assert np.array_equal(weighted[t], plain[t] * (t + 1))


def test_heatmap_unknown_layer():
    trace = synthetic_trace([[1.0]])
    with pytest.raises(UnknownLayer):
        heatmap_grid(trace, 5)


def test_graymap_levels_round_to_nearest(tmp_path):
    # A level is grid / peak * 255 rounded: 0.45 / 0.55 * 255 = 208.6 reads 209.
    export_heatmap(synthetic_trace([[0.55, 0.45]]), 0, tmp_path / "grid.txt")
    assert (tmp_path / "grid.pgm").read_text().splitlines()[3] == "255 209"


def test_heatmap_files_and_boundaries(tmp_path):
    cfg = StreamConfig(**SMALL)
    run = baseline_run(cfg)
    grid_path = tmp_path / "heatmap.txt"
    grid = export_heatmap(run, 1, grid_path)
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
    export_heatmap(run, 1, tmp_path / "run.txt")
    export_heatmap(read_trace(write_trace(run, tmp_path / "trace.jsonl")), 1, tmp_path / "trace.txt")
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
    variances = []
    for layer in (0, 1):
        grid, _, _ = heatmap_grid(run, layer)
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


def test_summary_row_reads_all_nan_retention_as_none():
    run = run_stream(StreamConfig(**SMALL, beta=0.5))
    assert summary_row(run, "x", retention=[float("nan")] * 2).landmark_retention is None
    assert summary_row(run, "x", retention=[float("nan"), 0.25]).landmark_retention == 0.25


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
