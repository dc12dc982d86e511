"""Trace recording/replay and metric export.

Traces are line-delimited JSON: a version-tagged header object on line
1, then one self-describing record per (step, layer). Default traces
carry the per-key column sums (which fully determine scoring), raw and
head-mean; a record keeps only the raw ones, and the head-mean sums are
always ``col_sums_raw / heads``. Full
per-head attention maps are an opt-in payload (``keep_maps``) because
they grow as M x N per layer per step.

Footprints are derived from token counts, not process memory, so every
number in a trace is platform-independent and byte-reproducible. The
bytes are those of ``json.dumps(..., separators=(",", ":"))``, each line
ending in ``\n``; orjson writes and reads them.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from collections import defaultdict
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .config import REASONS, StreamConfig, admits, allowed, config_from_dict
from .errors import ConfigError, MalformedTrace, NonFiniteRecord, UnknownLayer

TRACE_FORMAT = "boundedkv-trace"
TRACE_VERSION = 1


@dataclass(eq=False)
class TraceRecord:
    """Telemetry of one (step, layer) cell, in memory and in the trace.

    ``occupancy_pre`` is taken before eviction, ``occupancy_post`` after
    eviction and admission, so ``post = pre - evicted + tokens_per_frame``.
    ``budget_pre`` is the budget in force during the step and
    ``budget_post`` the value after this step's reallocation.
    ``evicted_ids`` and ``evicted_importances`` are parallel; the trace
    file writes them as one ``evicted`` list of objects.

    This is the one carrier of a step's attention data: scoring reads
    its key ids and column sums, and it holds the (H, M, N) attention
    maps when ``keep_maps`` is set (otherwise ``maps`` is None). It keeps
    one per-key float array, ``col_sums_raw``; readers that want the
    head-mean sums divide it by the config's ``heads``. A payload is an
    ndarray of the ``dtype`` and ``rank`` its field's metadata declares, in
    a run and after ``read_trace`` alike, with one entry per resident key
    on its ``key_axis`` if it declares one. In a run, ``key_ids`` is
    read-only: a copy when the stream is bounded, and a view of the
    layer's append-only id column when it is not, so an unbounded run
    holds each id once rather than once per step. Two records are equal
    when their payloads are exactly equal and every other field compares
    equal.
    """

    step: int
    layer: int
    n_keys: int
    budget_pre: int | None
    budget_post: int | None
    occupancy_pre: int
    occupancy_post: int
    protected_count: int
    clamped: bool
    reason: str | None = field(metadata={"choices": (None, *REASONS)})
    evicted_ids: np.ndarray = field(metadata={"dtype": np.int64, "rank": 1})
    evicted_importances: np.ndarray = field(metadata={"dtype": np.float64, "rank": 1})
    sigma: float
    pi: float | None
    multiplies: int
    footprint_bytes: int
    key_ids: np.ndarray = field(metadata={"dtype": np.int64, "rank": 1, "key_axis": 0})
    col_sums_raw: np.ndarray = field(metadata={"dtype": np.float64, "rank": 1, "key_axis": 0})
    maps: np.ndarray | None = field(metadata={"dtype": np.float64, "rank": 3, "key_axis": 2})

    def __eq__(self, other):
        if not isinstance(other, TraceRecord):
            return NotImplemented
        pairs = ((f, getattr(self, f.name), getattr(other, f.name)) for f in fields(TraceRecord))
        return all(a is b if a is None or b is None else np.array_equal(a, b) if "dtype" in f.metadata else a == b
                   for f, a, b in pairs)


@dataclass
class Trace:
    config: dict
    budget: dict
    records: list[TraceRecord]


def records_from_run(run) -> list[TraceRecord]:
    """A run's records, unchanged: they equal what a trace reads back.
    Only ``bench/worker.py``'s ``check_audit`` calls this; ROADMAP.md item 6 deletes it."""
    return run.records


# The record's fields as the trace writes them: the parallel evicted arrays as
# one "evicted" list, and col_sums_raw followed by its head-mean sums.
_JSON_FIELDS = ({f.name for f in fields(TraceRecord)} - {"evicted_ids", "evicted_importances"}
                | {"evicted", "col_sums_headmean"})
# The fields of one entry of a record's "evicted" list.
_EVICTED_FIELDS = {"token_id", "importance"}
_PAYLOAD_FIELDS = {f.name: f for f in fields(TraceRecord) if "dtype" in f.metadata}
_SCALARS = [f for f in fields(TraceRecord) if "dtype" not in f.metadata]
# The float fields and payloads a record must hold finite: JSON has no NaN or Infinity.
_FINITE = [f.name for f in fields(TraceRecord)
           if "float" in f.type.split(" | ") or f.metadata.get("dtype") is np.float64]
# Bytes after which "0.0000" starts a number, not the tail of one like 10.00001.
_NUMBER_START = (b"", b"[", b",", b":", b"-")
# A one-digit negative exponent, and the start of a positive one.
_SHORT_EXPONENT = re.compile(rb"e-(?=\d\b)")
_POSITIVE_EXPONENT = re.compile(rb"e(?=\d)")


def _dumps(obj) -> bytes:
    """``obj`` as ``json.dumps(obj, separators=(",", ":"), default=np.ndarray.tolist)``
    writes it, for what a trace holds: finite floats, int64 ints, None,
    bools, lists, dicts, float64/int64 arrays, and the trace's own keys
    and enumerated values as strings, which are ASCII and hold nothing
    the rewrites below would read as a number.

    orjson encodes, C-contiguous arrays natively and others through
    ``tolist``. It prints each float's shortest round-trip digits, as
    ``repr`` does, and its layout differs in three places only. Each is
    rewritten in C, by a regex with a literal replacement or by
    ``split``/``join``, and only the numbers that differ go through
    Python: a one-digit negative exponent (``1e-8`` to ``1e-08``), a
    positive exponent (``1e16`` to ``1e+16``) and 1e-5 <= |x| < 1e-4,
    which orjson writes in plain decimals (``0.0000123`` to ``1.23e-05``).
    orjson writes a non-finite float as ``null``, so callers reject them.
    """
    # Imported here so that importing the package does not load the encoder.
    import orjson

    data = orjson.dumps(obj, option=orjson.OPT_SERIALIZE_NUMPY, default=np.ndarray.tolist)
    data = _POSITIVE_EXPONENT.sub(b"e+", _SHORT_EXPONENT.sub(b"e-0", data))
    pieces = data.split(b"0.0000")
    out = pieces[:1]
    for before, piece in zip(pieces, pieces[1:]):
        if before[-1:] not in _NUMBER_START:
            out.append(b"0.0000" + piece)
            continue
        rest = piece.lstrip(b"0123456789")
        digits = piece[:len(piece) - len(rest)]
        out.append(digits[:1] + (b"." + digits[1:] if digits[1:] else b"") + b"e-05" + rest)
    return b"".join(out)


def _record_to_json(rec: TraceRecord, heads: int) -> bytes:
    payload = {}
    for f in fields(TraceRecord):
        if f.name == "evicted_ids":
            payload["evicted"] = [
                {"token_id": tid, "importance": imp}
                for tid, imp in zip(rec.evicted_ids.tolist(), rec.evicted_importances.tolist())
            ]
        elif f.name != "evicted_importances":
            payload[f.name] = getattr(rec, f.name)
        if f.name == "col_sums_raw":
            payload["col_sums_headmean"] = rec.col_sums_raw / heads
    # Payload arrays are written as nested lists.
    return _dumps(payload)


def _check_keys(values, names, lineno: int, what: str) -> None:
    """Raise unless ``values`` is an object keyed by exactly ``names``."""
    if not isinstance(values, dict):
        raise MalformedTrace(f"{what} is not an object", line=lineno)
    if values.keys() != names:
        missing, unknown = names - values.keys(), values.keys() - names
        raise MalformedTrace(f"{what} missing fields {sorted(missing)}, unknown fields {sorted(unknown)}", line=lineno)


def _in_order(records, frames: int, layers: int):
    """Yield ``records``, checking each as it comes: record i, on line i + 2 of a trace, is that
    of ``(step, layer) == divmod(i, layers)``, and ``frames * layers`` records fill the trace."""
    count = 0
    for rec in records:
        step, layer = divmod(count, layers)
        if (rec.step, rec.layer) != (step, layer) or step >= frames:
            raise MalformedTrace(f"record {count} must be step {step}, layer {layer}; a trace holds "
                                 f"{frames} steps x {layers} layers in order", line=count + 2)
        yield rec
        count += 1
    if count != frames * layers:
        raise MalformedTrace(f"trace ends after {count} records", line=count + 2)


def _record_from_json(raw: str, lineno: int, config: StreamConfig) -> TraceRecord:
    # Imported here so that importing the package does not load the decoder.
    import orjson

    try:
        payload = orjson.loads(raw)
    except orjson.JSONDecodeError as exc:
        # Only the last line can lack its newline.
        if not raw.endswith("\n"):
            raise MalformedTrace("truncated last record", line=lineno) from exc
        raise MalformedTrace(f"record is not valid JSON ({exc.msg})", line=lineno) from exc
    _check_keys(payload, _JSON_FIELDS, lineno, "record")
    for f in _SCALARS:
        value = payload[f.name]
        if not admits(f, value):
            raise MalformedTrace(f"record {f.name} must be {allowed(f, value)}", line=lineno)
    values = dict(payload)
    evicted = values.pop("evicted")
    if not isinstance(evicted, list):
        raise MalformedTrace("evicted is not a list", line=lineno)
    for entry in evicted:
        _check_keys(entry, _EVICTED_FIELDS, lineno, "evicted entry")
    values["evicted_ids"] = [entry["token_id"] for entry in evicted]
    values["evicted_importances"] = [entry["importance"] for entry in evicted]
    # Every payload, and the head-mean sums as col_sums_raw.
    for name, f in {**_PAYLOAD_FIELDS, "col_sums_headmean": _PAYLOAD_FIELDS["col_sums_raw"]}.items():
        dtype, rank, key_axis = f.metadata["dtype"], f.metadata["rank"], f.metadata.get("key_axis")
        if values[name] is None and "None" in f.type.split(" | "):
            continue
        try:
            array = np.array(values[name])
        except ValueError as exc:
            raise MalformedTrace(f"{name} is ragged", line=lineno) from exc
        # JSON ints read as int64 and floats as float64; an empty list
        # reads as float64 and takes either dtype.
        if array.ndim != rank or (array.size and not (array.dtype.kind in "if" and np.can_cast(array.dtype, dtype))):
            raise MalformedTrace(f"{name} is not a rank-{rank} {np.dtype(dtype).name} array", line=lineno)
        if key_axis is not None and array.shape[key_axis] != values["n_keys"]:
            raise MalformedTrace(f"{name} must hold n_keys = {values['n_keys']} on axis {key_axis}", line=lineno)
        values[name] = array.astype(dtype, copy=False)
    heads, n_keys, maps = config.heads, values["n_keys"], values["maps"]
    if maps is not None and maps.shape[0] != heads:
        raise MalformedTrace(f"maps must hold heads = {heads} maps on axis 0", line=lineno)
    if not np.array_equal(values.pop("col_sums_headmean"), values["col_sums_raw"] / heads):
        raise MalformedTrace("col_sums_headmean must equal col_sums_raw / heads", line=lineno)
    multiplies, footprint_bytes = config.layer_costs(n_keys)
    for name, value in (("occupancy_post", n_keys), ("multiplies", multiplies), ("footprint_bytes", footprint_bytes)):
        if values[name] != value:
            raise MalformedTrace(f"{name} must be {value} for n_keys = {n_keys}", line=lineno)
    return TraceRecord(**values)


def _config_of(source) -> dict:
    """The config of a finished run (``RunSummary``) or of a ``Trace`` read back, as a dict."""
    return source.config if isinstance(source, Trace) else source.config.to_dict()


def write_trace(source, path) -> Path:
    """Write a trace file from a finished run (``RunSummary``) or a ``Trace`` read back.

    Each record's head-mean column sums are written as ``col_sums_raw / heads``.
    Before the file is opened, a NaN or infinite float raises ``NonFiniteRecord``,
    and records out of (step, layer) order the ``MalformedTrace`` of ``read_trace``."""
    config = _config_of(source)
    for rec in _in_order(source.records, config["frames"], config["layers"]):
        for name in _FINITE:
            value = getattr(rec, name)
            if value is not None and not np.isfinite(value).all():
                raise NonFiniteRecord(rec.step, rec.layer, name)
    header = {"format": TRACE_FORMAT, "version": TRACE_VERSION, "config": config, "budget": source.budget}
    path = Path(path)
    with path.open("wb") as fh:
        fh.write(_dumps(header) + b"\n")
        for rec in source.records:
            fh.write(_record_to_json(rec, config["heads"]) + b"\n")
    return path


def read_trace(path) -> Trace:
    """Parse a trace file, one line at a time.

    The header's ``config`` must be what ``StreamConfig.to_dict`` writes
    for a valid config and its ``budget`` that config's ``budget_metadata()``,
    each value of the same JSON type.
    A record, and each entry of its ``evicted`` list, must carry exactly
    the fields ``write_trace`` writes, with ``n_keys`` entries in each
    per-key payload, ``heads`` maps when it has maps, head-mean column
    sums exactly equal to ``col_sums_raw / heads``, which are then
    dropped, ``occupancy_post`` equal to ``n_keys``, and the
    ``multiplies`` and ``footprint_bytes`` that ``StreamConfig.layer_costs``
    gives for ``n_keys``; any other line, a blank one included, raises
    ``MalformedTrace`` naming its line number.
    Record i, on line i + 2, must be that of ``(step, layer) == divmod(i,
    layers)``, and there must be ``frames * layers`` of them; a trace that
    ends early fails on the line after its last record.

    Only the current line is held besides the records, so reading takes
    little more memory than the records it returns. A last line without
    its newline that does not parse is reported as a truncated record:
    the writer stopped part-way through it. Values are decoded as strict
    JSON, so a ``NaN`` or ``Infinity`` literal is malformed.
    """
    # Imported here so that importing the package does not load the decoder.
    import orjson

    with Path(path).open(encoding="utf-8") as fh:
        first = fh.readline()
        if not first:
            raise MalformedTrace("empty trace file", line=1)
        try:
            header = orjson.loads(first)
        except orjson.JSONDecodeError as exc:
            raise MalformedTrace(f"header is not valid JSON ({exc.msg})", line=1) from exc
        if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT:
            raise MalformedTrace("missing trace format tag", line=1)
        version = header.get("version")
        # An exact type check: True and 1.0 compare equal to 1.
        if type(version) is not int or version != TRACE_VERSION:
            raise MalformedTrace(f"unsupported trace version {version!r}", line=1)
        config, budget = header.get("config"), header.get("budget")
        _check_keys(config, StreamConfig.__dataclass_fields__.keys(), 1, "config")
        try:
            valid = config_from_dict(config)
        except ConfigError as exc:
            raise MalformedTrace(f"invalid config ({exc})", line=1) from exc
        # Compared with their types, since 1 == True == 1.0 in Python.
        expected = {key: (type(value), value) for key, value in valid.budget_metadata().items()}
        if not isinstance(budget, dict) or {key: (type(value), value) for key, value in budget.items()} != expected:
            raise MalformedTrace("budget disagrees with its config", line=1)

        parsed = (_record_from_json(raw, lineno, valid) for lineno, raw in enumerate(fh, start=2))
        records = list(_in_order(parsed, valid.frames, valid.layers))
    return Trace(config=config, budget=budget, records=records)


def heatmap_grid(source, layer: int, reweight: bool = False):
    """Per-step head-mean column-sum matrix for one layer of a finished
    run (``RunSummary``) or a ``Trace`` read back.

    The head-mean sums are ``col_sums_raw`` over the config's ``heads``.
    Columns are token ids in admission order; absent (evicted or not yet
    admitted) cells are zero. ``reweight`` multiplies the row of 1-based
    frame number t by t, compensating for later frames spreading mass
    over more keys. Returns (grid, column_ids, frame_boundaries) where
    boundaries[f] is the first column index of frame f's tokens.
    """
    layer_recs = sorted((r for r in source.records if r.layer == layer), key=lambda r: r.step)
    if not layer_recs:
        raise UnknownLayer(f"no records for layer {layer}")
    n_rows = len(layer_recs)
    steps = np.array([rec.step for rec in layer_recs], dtype=np.int64)
    rows = np.repeat(np.arange(n_rows), [len(rec.key_ids) for rec in layer_recs])
    # Unique ids come sorted, and each one's first occurrence lies in the
    # earliest step that holds it.
    col_ids, first, cols = np.unique(np.concatenate([rec.key_ids for rec in layer_recs]),
                                     return_index=True, return_inverse=True)
    grid = np.zeros((n_rows, len(col_ids)), dtype=np.float64)
    grid[rows, cols] = np.concatenate([rec.col_sums_raw for rec in layer_recs]) / _config_of(source)["heads"]
    if reweight:
        grid *= steps[:, None] + 1
    # Frame f starts at the lowest column first seen at step f.
    boundaries = np.full(n_rows, len(col_ids))
    np.minimum.at(boundaries, steps[rows[first]], np.arange(len(col_ids)))
    return grid, col_ids.tolist(), boundaries.tolist()


def export_heatmap(source, layer: int, path, reweight: bool = False) -> np.ndarray:
    """Write the layer's column-sum grid of a run or a ``Trace`` as text,
    graymap, and boundary sidecar.

    ``path`` names the plain-text grid; the portable graymap and the
    frame-boundary index list are written next to it with ``.pgm`` and
    ``.frames.json`` suffixes. The graymap scales the grid's maximum to
    level 255; a negative cell, and every cell of a grid with no positive
    one, is level 0.
    """
    grid, col_ids, boundaries = heatmap_grid(source, layer, reweight=reweight)
    path = Path(path)
    np.savetxt(path, grid, fmt="%.17g")

    peak = grid.max()
    levels = np.rint(np.maximum(grid, 0.0) / (peak if peak > 0 else 1.0) * 255).astype(np.int64)
    pgm_lines = [f"P2\n{grid.shape[1]} {grid.shape[0]}\n255\n"]
    for row in levels:
        pgm_lines.append(" ".join(str(v) for v in row) + "\n")
    path.with_suffix(".pgm").write_text("".join(pgm_lines), encoding="utf-8")

    sidecar = {"layer": layer, "column_ids": col_ids, "frame_boundaries": boundaries}
    sidecar_text = json.dumps(sidecar, separators=(",", ":"))
    path.with_suffix(".frames.json").write_text(sidecar_text + "\n", encoding="utf-8")
    return grid


@dataclass
class SummaryRow:
    """One run's row of the summary table; the fields are its columns, in order."""

    label: str
    policy: str
    budget_mode: str | None
    beta: float | None
    budget_tokens: int | None
    tau: float
    seed: int
    frames: int
    layers: int
    heads: int
    dim: int
    tokens_per_frame: int
    peak_footprint_bytes: int
    mean_step_multiplies: float
    total_evictions: int
    mean_divergence: float | None
    landmark_retention: float | None


def summary_row(run, label: str, divergence=None, retention=None) -> SummaryRow:
    """One summary row from a finished run (``RunSummary``) or a ``Trace`` read back.

    Both give the same row for the same stream; ``divergence`` and
    ``retention`` need the run's outputs and cache, so only a run has them.
    """
    cfg = _config_of(run)
    footprints: dict[int, int] = defaultdict(int)
    multiplies: dict[int, int] = defaultdict(int)
    evictions = 0
    for rec in run.records:
        footprints[rec.step] += rec.footprint_bytes
        multiplies[rec.step] += rec.multiplies
        evictions += len(rec.evicted_ids)
    mean_div = None if divergence is None else divergence.mean_rms
    mean_ret = None
    if retention is not None:
        finite = [r for r in retention if not math.isnan(r)]
        mean_ret = float(np.mean(finite)) if finite else None
    return SummaryRow(
        label=label,
        policy=cfg["policy"],
        budget_mode=run.budget["budget_mode"],
        beta=cfg["beta"],
        budget_tokens=run.budget["budget_tokens"],
        tau=cfg["tau"],
        seed=cfg["seed"],
        frames=cfg["frames"],
        layers=cfg["layers"],
        heads=cfg["heads"],
        dim=cfg["dim"],
        tokens_per_frame=cfg["tokens_per_frame"],
        peak_footprint_bytes=max(footprints.values(), default=0),
        mean_step_multiplies=float(np.mean(list(multiplies.values()))) if multiplies else 0.0,
        total_evictions=evictions,
        mean_divergence=mean_div,
        landmark_retention=mean_ret,
    )


def summarize(rows: list[SummaryRow]) -> str:
    """Comma-delimited table, one row per run; header-only when empty."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    columns = [f.name for f in fields(SummaryRow)]
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(getattr(row, name)) for name in columns])
    return buf.getvalue()


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)
