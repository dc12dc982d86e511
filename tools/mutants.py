"""Mutation probe of the package's rules: each entry of ``MUTANTS`` breaks
one rule of one ``src/boundedkv`` module by replacing one exact text, and
the tier-1 test suite must fail on it.

    python3 tools/mutants.py [--no-pins]

For each entry the probe copies the checkout into a temporary directory,
replaces the entry's text in its module (the text must occur there
exactly once, or the probe refuses to run) and runs
``python -m pytest -q -x`` over ``tests/`` in that copy, two entries at
a time. The test files run in name order, except
``tests/test_acceptance.py``, which runs last, so that a killed entry
stops early and the report names the most specific test that failed.
Each report line says ``killed`` with that first failing test, or
``SURVIVED``.

Two hygiene tests are deselected in every mutated copy: the unused-import
scan, so that an entry only it would catch (a deleted check whose
exception type goes unused) counts as survived, and
``test_mutant_table_is_current``, which fails on any mutated copy.
``--no-pins`` also deselects every test that compares an output with a
recorded byte pin (``GOLDEN_DIGEST``, ``GOLDEN_SHA256``,
``bench/digests.json``). Those pins hold only under the BLAS kernel they
were recorded with, so a rule that only a pin kills is unguarded under
another kernel.

Each run sets ``OPENBLAS_NUM_THREADS=1``, since two run side by side. The
exit code is 1 when any entry survived or its run gave no verdict. Uses
only the standard library.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "boundedkv"
# The modules the table covers, with at least three entries each.
MODULES = ("cache", "scoring", "eviction", "allocation", "simulate", "telemetry", "oracle", "config", "cli")
JOBS = 2
RUN_TIMEOUT_S = 900.0
# Tests deselected in every mutated copy; see the module docstring.
ALWAYS_DESELECTED = ("tests/test_hygiene.py::test_no_unused_imports",
                     "tests/test_hygiene.py::test_mutant_table_is_current")
# Names whose use in a test function marks it as a byte-pin test.
PIN_NAMES = {"GOLDEN_DIGEST", "GOLDEN_SHA256", "assert_golden", "DIGESTS"}
# The first failing test in pytest's short summary (-rfE).
_FIRST_FAILURE = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)

# (module, exact text, replacement, rule the text states).
MUTANTS = [
    ("cache", "max(rows, 2 * len(array), _MIN_ROWS)", "max(rows, _MIN_ROWS)",
     "columns grow by doubling"),
    ("cache", "return self.scored_step + 1 - self.birth_step[rows]", "return self.scored_step - self.birth_step[rows]",
     "exposure counts the birth step and the last scored step"),
    ("cache", "return max(self.budget, self.protected_count + new_tokens)", "return self.budget",
     "the effective budget is clamped to the protected floor"),
    ("cache", "if shielded.any():", "if False:",
     "evict refuses protected rows"),
    ("cache", "if not len(rows):", "if False:",
     "evicting no rows changes nothing"),
    ("cache", "column[low:stop] = column.take(survivors, axis=0)", "column[low:stop] = column[low:stop]",
     "eviction compacts every column, keeping survivor order"),
    ("cache", 'out["exposure"] = self.exposure(rows)', 'out["exposure"] = self.exposure(rows) + 1',
     "the eviction log freezes each victim's exposure"),
    ("cache", "if start + count > effective:", "if start + count > effective + 1:",
     "admission overflows past the effective budget"),
    ("cache", "protected = np.asarray(protected)", "protected = protected",
     "admit takes any array-like protection mask"),
    ("cache", " or np.shape(values) != np.shape(keys)", "",
     "admit refuses values shaped unlike the keys"),
    ("cache", "layer.protected_count += int(np.count_nonzero(protected))", "layer.protected_count += count",
     "protected_count counts only protected admissions"),
    ("cache", "if not 0 <= layer_index < len(self.layers):", "if not layer_index < len(self.layers):",
     "a negative layer index is unknown"),
    ("cache", "if len(missing):", "if False:",
     "remove refuses ids that are not resident"),
    ("cache", "self.token_id = self.token_id.copy()", "pass",
     "eviction compacts the ids into a fresh array, so a record's view of them never changes"),
    ("cache", "layer._reserve(stop if cfg.bounded else max(stop, cfg.frames * cfg.tokens_per_frame))",
     "layer._reserve(stop)",
     "an unbounded layer's first admission reserves the stream's rows"),
    ("scoring", "return maps.sum(axis=(0, 1))", "return maps.sum(axis=(0, 1)) / maps.shape[0]",
     "column sums total heads * queries"),
    ("scoring", " or not np.array_equal(record.key_ids, cache_layer.token_id[:n])", "",
     "accumulate refuses a record whose key ids differ from the cache's"),
    ("scoring", "inv_n = 1.0 / n", "inv_n = 1.0",
     "each step's column sums are divided by its key count"),
    ("scoring", "cache_layer.scored_step = record.step", "cache_layer.scored_step = record.step - 1",
     "accumulating a step counts it into exposure"),
    ("scoring", "return cache_layer.cum_score[rows] / cache_layer.exposure(rows)", "return cache_layer.cum_score[rows]",
     "importance is the cumulative score over exposure"),
    ("scoring", "return -float(np.add.reduce(deviation) / len(headmean))", "return float(np.add.reduce(deviation) / len(headmean))",
     "sparsity is the negative variance"),
    ("eviction", "rows = _candidate_rows(layer)[::-1]", "rows = _candidate_rows(layer)",
     "ties evict the newest token first"),
    ("eviction", 'order = np.argsort(values, kind="stable")[:slots_needed]', 'order = np.argsort(-values, kind="stable")[:slots_needed]',
     "the lowest importance is evicted first"),
    ("eviction", "return (~layer.protected[: layer.n]).nonzero()[0]", "return np.arange(layer.n)",
     "only unprotected rows are candidates"),
    ("eviction", "plan.reason = REASON_SHRINK if layer.occupancy() > effective else REASON_ADMIT",
     "plan.reason = REASON_ADMIT",
     "a layer above its budget evicts to shrink"),
    ("eviction", "self._rng.choice(len(rows), size=slots_needed, replace=False)",
     "self._rng.choice(len(rows), size=slots_needed, replace=True)",
     "the random policy draws distinct victims"),
    ("eviction", "slots = layer.occupancy() + per_frame - effective if bounded else 0",
     "slots = layer.occupancy() + per_frame - effective - 1 if bounded else 0",
     "maintenance frees room for the whole incoming frame"),
    ("allocation", "if tau <= 0.0 or not math.isfinite(tau):", "if tau <= 0.0:",
     "an infinite temperature is refused"),
    ("allocation", "if sig.ndim != 1 or sig.size == 0:", "if False:",
     "sigmas must be a non-empty 1-d sequence"),
    ("allocation", "if not np.isfinite(sig).all():", "if False:",
     "sigmas must be finite"),
    ("allocation", "if total < 0:", "if False:",
     "a negative total is refused"),
    ("allocation", "key=lambda i: (-(raw[i] - base[i]), i)", "key=lambda i: (-(raw[i] - base[i]), -i)",
     "remainder ties go to the lower layer"),
    ("allocation", "z = z - z.max()", "z = z - 0.0",
     "the softmax subtracts the maximum before exponentiating"),
    ("allocation", "overflow = [i for i, b in zip(active, trial) if b > cap]", "overflow = []",
     "a layer's budget is capped and the surplus redistributed"),
    ("allocation", "cap=cfg.frames * cfg.tokens_per_frame", "cap=math.inf",
     "a session caps each layer at the stream horizon"),
    ("simulate", "if frame.frame_index != t:", "if False:",
     "a frame must arrive at its own step"),
    ("simulate", "max(size, 2 * self._maps_scratch.size)", "size",
     "the maps scratch grows by doubling"),
    ("simulate", "return np.arange(config.tokens_per_frame) <= config.registers",
     "return np.arange(config.tokens_per_frame) < config.registers",
     "every frame's camera and register tokens are protected"),
    ("simulate", "if frame_index == 0:", "if frame_index < 0:",
     "every token of frame 0 is protected"),
    ("simulate", "mask[patch_offset + np.sort(slots)] = True", "mask[np.sort(slots)] = True",
     "landmarks are planted on patch slots only"),
    ("simulate", "logits -= logits.max(axis=-1, keepdims=True)", "logits -= 0.0",
     "the attention softmax subtracts the row maximum"),
    ("simulate", "layer.effective_budget(cfg.tokens_per_frame) != layer.budget",
     "layer.effective_budget(cfg.tokens_per_frame) == layer.budget",
     "a record is clamped when the protected floor lifts its budget"),
    ("simulate", "record.sigma = layer_sparsity(record.col_sums_raw / cfg.heads)",
     "record.sigma = layer_sparsity(record.col_sums_raw)",
     "sparsity is taken over the head-mean column sums"),
    ("simulate", "key_ids = layer.token_id[:n_keys].copy() if cfg.bounded else",
     "key_ids = layer.token_id[:n_keys] if cfg.bounded else",
     "a bounded stream's records own their key ids"),
    ("simulate", "key_ids.flags.writeable = False", "pass",
     "a record's key ids are read-only"),
    ("simulate", "if L == 1:", "if False:",
     "a one-layer stack has a dense profile"),
    ("simulate", "previous = np.setbufsize(_ROW_BUFSIZE)", "previous = np.getbufsize()",
     "a step whose attention outgrows numpy's default buffer runs under a row-sized one"),
    ("simulate", "keys <= _NUMPY_BUFSIZE:", "keys < _NUMPY_BUFSIZE:",
     "a step whose attention fits numpy's default buffer keeps the caller's size"),
    ("simulate", "finally:\n            np.setbufsize(previous)", "finally:\n            pass",
     "a step gives the caller's ufunc buffer size back"),
    ("simulate", "try:\n            return self._advance(frame)\n        finally:\n            np.setbufsize(previous)",
     "result = self._advance(frame)\n        np.setbufsize(previous)\n        return result",
     "a step gives the caller's ufunc buffer size back when it raises"),
    ("simulate", "out.size < _SPLIT_ELEMENTS", "out.size <= _SPLIT_ELEMENTS",
     "a call whose maps block reaches the split threshold splits"),
    ("simulate", "if heads < 2 or out.size", "if out.size",
     "a one-head call never splits"),
    ("simulate", "return len(os.sched_getaffinity(0)) > 1", "return len(os.sched_getaffinity(0)) > 0",
     "a process tied to one CPU never splits"),
    ("simulate", "not _HELPER_FREE.acquire(blocking=False)", "not _HELPER_FREE.acquire()",
     "a call that finds the helper busy runs unsplit instead of waiting"),
    ("simulate", "    finally:\n        job.done.wait()", "    except BaseException:\n        raise\n    job.done.wait()",
     "the caller waits for the helper's half even when its own half raises"),
    ("simulate", "if job.error is not None:", "if False:",
     "a fault in the helper's half is raised in the caller"),
    ("simulate", "del job, args", "del job",
     "the idle helper holds no view of a finished call's maps"),
    ("simulate", "        np.setbufsize(_ROW_BUFSIZE)\n        while True:", "        while True:",
     "the helper attends under the row-sized ufunc buffer"),
    ("simulate", "    except BaseException:\n        _HELPER_FREE.release()", "    except BaseException:\n        pass",
     "a helper that fails to start leaves the helper free"),
    ("simulate", "_HELPER, _HELPER_FREE = None, threading.Lock()", "pass",
     "a forked child starts its own helper"),
    ("telemetry", "if not first:", "if False:",
     "an empty trace file is reported as empty"),
    ("telemetry", ' or header.get("format") != TRACE_FORMAT', "",
     "a trace header must carry the format tag"),
    ("telemetry", "if type(version) is not int or version != TRACE_VERSION:", "if version != TRACE_VERSION:",
     "the trace version must be the int 1"),
    ("telemetry", "mean_ret = float(np.mean(finite)) if finite else None", "mean_ret = float(np.mean(finite))",
     "an all-NaN retention is an empty summary cell"),
    ("telemetry", "if not layer_recs:", "if False:",
     "a heatmap of a layer with no records is an unknown layer"),
    ("telemetry", 'if not raw.endswith("\\n"):', "if False:",
     "an unparsable last line without a newline is a truncated record"),
    ("telemetry", "if value is not None and not np.isfinite(value).all():", "if False:",
     "write_trace refuses non-finite values"),
    ("telemetry", "if maps is not None and maps.shape[0] != heads:", "if False:",
     "a record's maps hold one map per head"),
    ("telemetry", "if not isinstance(budget, dict) or {key: (type(value), value) for key, value in budget.items()} != expected:",
     "if not isinstance(budget, dict):",
     "the header's budget must be its config's"),
    ("telemetry", 'data = _POSITIVE_EXPONENT.sub(b"e+", _SHORT_EXPONENT.sub(b"e-0", data))',
     'data = _POSITIVE_EXPONENT.sub(b"e+", data)',
     "a one-digit negative exponent is written with two digits"),
    ("telemetry", "grid *= steps[:, None] + 1", "grid *= steps[:, None]",
     "reweighting multiplies each row by its 1-based frame number"),
    ("telemetry", "np.rint(np.maximum(grid, 0.0)", "np.floor(np.maximum(grid, 0.0)",
     "graymap levels are rounded to nearest"),
    ("telemetry", "np.maximum(grid, 0.0)", "grid",
     "a negative heatmap cell is graymap level 0"),
    ("telemetry", "(peak if peak > 0 else 1.0)", "peak",
     "a heatmap with no positive cell is graymap level 0 throughout"),
    ("telemetry", '_check_keys(entry, _EVICTED_FIELDS, lineno, "evicted entry")', "pass",
     "an evicted entry carries exactly token_id and importance"),
    ("telemetry", "np.minimum.at(boundaries, steps[rows[first]], np.arange(len(col_ids)))",
     "np.maximum.at(boundaries, steps[rows[first]], np.arange(len(col_ids)))",
     "a frame boundary is the frame's first column"),
    ("oracle", "retained.append(kept / total if total > 0 else 1.0)", "retained.append(kept / total)",
     "a run with no attention mass retains all of it"),
    ("oracle", "if cfg_a != cfg_b:", "if False:",
     "structurally different runs are not compared"),
    ("oracle", "kept += float(mass[np.isin(base.key_ids, report_a.layers[layer].key_ids)].sum())",
     "kept += float(mass.sum())",
     "retained mass counts only keys still resident"),
    ("oracle", "for report, mask in zip(run.reports[1:], run.landmark_masks[1:]):",
     "for report, mask in zip(run.reports, run.landmark_masks):",
     "frame-0 landmarks are left out of retention"),
    ("oracle", '"policy", "keep_maps"}', '"policy"}',
     "keep_maps is nonstructural"),
    ("oracle", "if not planted:", "if False:",
     "a layer with no planted landmarks has NaN retention"),
    ("oracle", "!= list(range(len(entries))):", "!= list(range(entries[0].step, entries[0].step + len(entries))):",
     "a map log holds steps 0 to n - 1, so it starts at step 0"),
    ("oracle", "if rec.maps is None:", "if False:",
     "a map log needs every record's maps"),
    ("oracle", "if maps.ndim != 3 or maps.shape[2] != len(entry.key_ids):", "if False:",
     "each map covers its record's keys"),
    ("config", "if unknown:", "if False:",
     "config_from_dict refuses unknown keys"),
    ("config", "if self.dim < 1 or self.dim % self.heads != 0:", "if self.dim < 1:",
     "dim must be a multiple of heads"),
    ("config", "if self.beta is not None and not 0.0 < self.beta <= 1.0:", "if self.beta is not None and not 0.0 < self.beta:",
     "beta must be at most 1"),
    ("config", "self.frames >= 3 and (", "self.frames >= 2 and (",
     "policy 'none' with a small budget is refused from three frames"),
    ("config", "return math.ceil(round(self.beta * self.layers * horizon * self.tokens_per_frame, 6))",
     "return math.ceil(self.beta * self.layers * horizon * self.tokens_per_frame)",
     "the budget ceiling ignores binary-float fuzz"),
    ("config", "horizon = self.ref_frames if self.ref_frames is not None else self.frames", "horizon = self.frames",
     "steady-state budgets use ref_frames"),
    ("config", '"budget_mode": self.budget_mode if self.beta is not None else None', '"budget_mode": self.budget_mode',
     "an absolute budget has no budget mode"),
    ("config", "return UNIFORM_BUDGET_TAU if self.policy == \"uniform_budget\" else self.tau", "return self.tau",
     "the uniform-budget ablation allocates at temperature 100"),
    ("config", "return type(value) in kinds and (", "return (",
     "a config value must have its field's exact type"),
    ("config", "if not 0 <= self.seed < 2**63:", "if not 0 <= self.seed:",
     "a seed must fit in 64 bits"),
    ("cli", "if not betas or args.seeds < 1:", "if args.seeds < 1:",
     "sweep refuses an empty --betas"),
    ("cli", "if not betas or args.seeds < 1:", "if not betas:",
     "sweep refuses --seeds 0"),
    ("cli", "if args.seeds < 1:", "if False:",
     "ablate refuses --seeds 0"),
    ("cli", "if bounded_cfg.frames > 0 and lc.protected_count != expected_protected:",
     "if lc.protected_count != expected_protected:",
     "verify passes a zero-frame stream"),
    ("cli", "if kind is None:", "if False:",
     "a config file refuses unknown keys"),
    ("cli", "return math.inf if math.isnan(err) else err", "return err",
     "verify reads a NaN relative error as a failure"),
    ("cli", 'out = args.out or os.environ.get("BOUNDEDKV_OUT") or "out"', 'out = args.out or "out"',
     "BOUNDEDKV_OUT sets the output directory"),
    ("cli", "seed_cfg.validate()", "pass",
     "ablate validates the configs it runs"),
    ("cli", "if failures:", "if False:",
     "a failed verify check exits 3"),
    ("cli", "((evicted.birth_step == 0) | (slots <= bounded_cfg.registers)).any()", "False",
     "verify fails when a protected token was evicted"),
]


def module_path(root: Path, module: str) -> Path:
    return root / PACKAGE / f"{module}.py"


def table_problems(root: Path) -> list[str]:
    """Entries whose text does not occur exactly once in their module."""
    problems = []
    for index, (module, text, _, rule) in enumerate(MUTANTS):
        count = module_path(root, module).read_text().count(text)
        if count != 1:
            problems.append(f"entry {index} ({module}: {rule}): text occurs {count} times")
    return problems


def pin_tests(root: Path) -> list[str]:
    """Node ids of the test functions that name a ``PIN_NAMES`` name."""
    found = []
    for path in sorted((root / "tests").glob("test_*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_") and any(
                    isinstance(n, ast.Name) and n.id in PIN_NAMES for n in ast.walk(node)):
                found.append(f"tests/{path.name}::{node.name}")
    return found


def ordered_test_files(root: Path) -> list[str]:
    """Test files in run order: by name, the acceptance suite last."""
    names = sorted(p.name for p in (root / "tests").glob("test_*.py"))
    names.sort(key=lambda name: name == "test_acceptance.py")
    return [f"tests/{name}" for name in names]


def run_mutant(root: Path, entry: tuple, deselected: list[str]) -> tuple[str, str]:
    """(verdict, detail) of one entry: ``killed`` and the first failing
    test, ``SURVIVED``, or ``NO VERDICT`` and why."""
    module, text, replacement, _ = entry
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(root, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "out", ".work", "*.egg-info"))
        path = module_path(copy, module)
        path.write_text(path.read_text().replace(text, replacement))
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
               *(f"--deselect={node}" for node in deselected), *ordered_test_files(copy)]
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "OPENBLAS_NUM_THREADS": "1"}
        try:
            proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "NO VERDICT", f"timed out after {RUN_TIMEOUT_S:.0f} s"
    failure = _FIRST_FAILURE.search(proc.stdout)
    if proc.returncode == 0:
        return "SURVIVED", ""
    if failure:
        return "killed", failure.group(1)
    return "NO VERDICT", f"pytest exit {proc.returncode}: {proc.stdout.strip()[-300:]}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the tier-1 tests against each entry of the mutant table.")
    parser.add_argument("--no-pins", action="store_true", help="deselect the byte-pin tests")
    args = parser.parse_args(argv)

    problems = table_problems(ROOT)
    if problems:
        print("refusing to run:\n  " + "\n  ".join(problems))
        return 1
    deselected = [*ALWAYS_DESELECTED, *(pin_tests(ROOT) if args.no_pins else [])]
    print(f"{len(MUTANTS)} entries; deselected: {', '.join(deselected)}", flush=True)
    verdicts = Counter()
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        results = pool.map(lambda entry: run_mutant(ROOT, entry, deselected), MUTANTS)
        for (module, _, _, rule), (verdict, detail) in zip(MUTANTS, results):
            verdicts[verdict] += 1
            print(f"{verdict:<10} {module:<10} {rule}" + (f"  <- {detail}" if detail else ""), flush=True)
    print(f"{len(MUTANTS)} entries{' (no pins)' if args.no_pins else ''}: "
          f"{verdicts['killed']} killed, {verdicts['SURVIVED']} survived, {verdicts['NO VERDICT']} no verdict")
    return 0 if verdicts["killed"] == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
