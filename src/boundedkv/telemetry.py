"""Trace recording/replay and metric export.

Traces are line-delimited JSON: a version-tagged header object on line
1, then one self-describing record per (step, layer). Default traces
carry the per-key column sums (which fully determine scoring); full
per-head attention maps are an opt-in payload (``keep_maps``) because
they grow as M x N per layer per step.

Footprints are derived from token counts, not process memory, so every
number in a trace is platform-independent and byte-reproducible.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import defaultdict
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import MalformedTrace, UnknownLayer
from .simulate import PAYLOADS, RunSummary, TraceRecord

TRACE_FORMAT = "boundedkv-trace"
TRACE_VERSION = 1


@dataclass
class Trace:
    config: dict
    budget: dict
    records: list[TraceRecord]


def records_from_run(run: RunSummary) -> list[TraceRecord]:
    """The run's records, unchanged: they equal what a trace reads back.
    Only ``bench/worker.py``'s ``check_audit`` calls this; ROADMAP.md item 2 deletes it."""
    return run.records


# In-memory parallel arrays that the trace writes as one "evicted" list.
_PAIRED = ("evicted_ids", "evicted_importances")
_JSON_FIELDS = {f.name for f in fields(TraceRecord)} - set(_PAIRED) | {"evicted"}
# The JSON types write_trace gives each scalar field, by its annotation.
# A bool is no int here; JSON has one number type, so a float takes an int.
_JSON_TYPES = {
    "int": (int,),
    "int | None": (int, type(None)),
    "float": (int, float),
    "float | None": (int, float, type(None)),
    "bool": (bool,),
    "str | None": (str, type(None)),
}
_SCALARS = {f.name: _JSON_TYPES[f.type] for f in fields(TraceRecord) if f.name not in PAYLOADS}
# Payloads with one entry per resident key; maps hold them on axis 2.
_PER_KEY = ("key_ids", "col_sums_raw", "col_sums_headmean")


def _record_to_json(rec: TraceRecord) -> str:
    payload = {}
    for f in fields(TraceRecord):
        if f.name == "evicted_ids":
            payload["evicted"] = [
                {"token_id": tid, "importance": imp}
                for tid, imp in zip(rec.evicted_ids.tolist(), rec.evicted_importances.tolist())
            ]
        elif f.name not in _PAIRED:
            payload[f.name] = getattr(rec, f.name)
    # Payload arrays are written as nested lists.
    return json.dumps(payload, separators=(",", ":"), default=np.ndarray.tolist)


def _record_from_json(payload, lineno: int) -> TraceRecord:
    if not isinstance(payload, dict):
        raise MalformedTrace("record is not an object", line=lineno)
    if payload.keys() != _JSON_FIELDS:
        missing, unknown = _JSON_FIELDS - payload.keys(), payload.keys() - _JSON_FIELDS
        raise MalformedTrace(f"missing fields {sorted(missing)}, unknown fields {sorted(unknown)}", line=lineno)
    for name, types in _SCALARS.items():
        if type(payload[name]) not in types:
            raise MalformedTrace(f"{name} must be {' or '.join(t.__name__ for t in types)}", line=lineno)
    values = dict(payload)
    evicted = values.pop("evicted")
    try:
        values["evicted_ids"] = [entry["token_id"] for entry in evicted]
        values["evicted_importances"] = [entry["importance"] for entry in evicted]
    except (TypeError, KeyError) as exc:
        raise MalformedTrace("evicted entries need token_id and importance", line=lineno) from exc
    for name, (dtype, rank) in PAYLOADS.items():
        if name == "maps" and values[name] is None:
            continue
        try:
            array = np.array(values[name])
        except ValueError as exc:
            raise MalformedTrace(f"{name} is ragged", line=lineno) from exc
        # JSON ints read as int64 and floats as float64; an empty list
        # reads as float64 and takes either dtype.
        if array.ndim != rank or (array.size and not (array.dtype.kind in "if" and np.can_cast(array.dtype, dtype))):
            raise MalformedTrace(f"{name} is not a rank-{rank} {np.dtype(dtype).name} array", line=lineno)
        values[name] = array.astype(dtype, copy=False)
    n_keys, maps = values["n_keys"], values["maps"]
    if any(len(values[name]) != n_keys for name in _PER_KEY) or (maps is not None and maps.shape[2] != n_keys):
        raise MalformedTrace(f"per-key payloads must hold n_keys = {n_keys} entries", line=lineno)
    return TraceRecord(**values)


def write_trace(source: RunSummary | Trace, path) -> Path:
    """Write a trace file from a finished run or from a trace read back."""
    config = source.config.to_dict() if isinstance(source, RunSummary) else source.config
    header = {"format": TRACE_FORMAT, "version": TRACE_VERSION, "config": config, "budget": source.budget}
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        for rec in source.records:
            fh.write(_record_to_json(rec) + "\n")
    return path


def read_trace(path) -> Trace:
    """Parse a trace file, one line at a time.

    A record must carry exactly the fields ``write_trace`` writes, with
    ``n_keys`` entries in each per-key payload; any other line, a blank
    one included, raises ``MalformedTrace`` naming its line number.

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
        if not isinstance(config, dict) or not isinstance(budget, dict):
            raise MalformedTrace("header config and budget must be objects", line=1)

        records = []
        for lineno, raw in enumerate(fh, start=2):
            try:
                payload = orjson.loads(raw)
            except orjson.JSONDecodeError as exc:
                # Only the last line can lack its newline.
                if not raw.endswith("\n"):
                    raise MalformedTrace("truncated last record", line=lineno) from exc
                raise MalformedTrace(f"record is not valid JSON ({exc.msg})", line=lineno) from exc
            records.append(_record_from_json(payload, lineno))
    return Trace(config=config, budget=budget, records=records)


def heatmap_grid(records: list[TraceRecord], layer: int, reweight: bool = False):
    """Per-step head-mean column-sum matrix for one layer.

    Columns are token ids in admission order; absent (evicted or not yet
    admitted) cells are zero. ``reweight`` multiplies the row of 1-based
    frame number t by t, compensating for later frames spreading mass
    over more keys. Returns (grid, column_ids, frame_boundaries) where
    boundaries[f] is the first column index of frame f's tokens.
    """
    layer_recs = sorted((r for r in records if r.layer == layer), key=lambda r: r.step)
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
    grid[rows, cols] = np.concatenate([rec.col_sums_headmean for rec in layer_recs])
    if reweight:
        grid *= steps[:, None] + 1
    # Frame f starts at the lowest column first seen at step f.
    first_step = steps[rows[first]]
    framed = (first_step >= 0) & (first_step < n_rows)
    boundaries = np.full(n_rows, len(col_ids))
    np.minimum.at(boundaries, first_step[framed], np.flatnonzero(framed))
    return grid, col_ids.tolist(), boundaries.tolist()


def export_heatmap(records: list[TraceRecord], layer: int, path, reweight: bool = False) -> np.ndarray:
    """Write the layer's column-sum grid as text, graymap, and boundary sidecar.

    ``path`` names the plain-text grid; the portable graymap and the
    frame-boundary index list are written next to it with ``.pgm`` and
    ``.frames.json`` suffixes.
    """
    grid, col_ids, boundaries = heatmap_grid(records, layer, reweight=reweight)
    path = Path(path)
    np.savetxt(path, grid, fmt="%.17g")

    peak = float(grid.max()) if grid.size else 0.0
    levels = np.zeros_like(grid, dtype=np.int64) if peak <= 0 else np.rint(grid / peak * 255).astype(np.int64)
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


def summary_row(run: RunSummary | Trace, label: str, divergence=None, retention=None) -> SummaryRow:
    """One summary row from a finished run or from a trace read back.

    Both give the same row for the same stream; ``divergence`` and
    ``retention`` need the run's outputs and cache, so only a run has them.
    """
    cfg = run.config.to_dict() if isinstance(run, RunSummary) else run.config
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
        policy=cfg.get("policy", ""),
        budget_mode=run.budget.get("budget_mode"),
        beta=cfg.get("beta"),
        budget_tokens=run.budget.get("budget_tokens"),
        tau=cfg.get("tau", 0.0),
        seed=cfg.get("seed", 0),
        frames=cfg.get("frames", 0),
        layers=cfg.get("layers", 0),
        heads=cfg.get("heads", 0),
        dim=cfg.get("dim", 0),
        tokens_per_frame=cfg.get("tokens_per_frame", 0),
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
