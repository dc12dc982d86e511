"""CLI subcommands, config precedence, exit codes, flag schema, output goldens."""

import csv
import hashlib
import io
import json
import math
import re
import warnings
from dataclasses import fields

import numpy as np
import pytest

from boundedkv import cli, eviction, simulate
from boundedkv.cli import _merge_config, build_parser, main
from boundedkv.config import ATTN_DTYPES, BUDGET_MODES, POLICIES, StreamConfig
from boundedkv.errors import ConfigError, MalformedTrace
from boundedkv.simulate import run_stream
from boundedkv.telemetry import read_trace, summarize, summary_row, write_trace

from builders import blas_kernel


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SMALL_FLAGS = ["--layers", "2", "--heads", "2", "--dim", "16",
               "--tokens-per-frame", "4", "--registers", "0", "--frames", "6"]
SMALL = dict(layers=2, heads=2, dim=16, tokens_per_frame=4, registers=0, frames=6)

# sha256 of the CLI's output files for SMALL_FLAGS ("run --beta 0.5",
# the same with --trace-full-maps, "export" of that trace) and for the
# default "verify". Locked once; anchored to the BLAS kernel picked at
# run time (SkylakeX), not to the build, like GOLDEN_DIGEST in test_simulate.
GOLDEN_SHA256 = {
    "run/trace.jsonl": "853078b59ef4428b33ab684ce000d687fdb20b864dcd79d2cf3f8f44020ce510",
    "run/summary.csv": "c6cd9e9563d9141378451ad67f3a27cf3cf7231bb05d55187b3aca3998ff86db",
    "maps/trace.jsonl": "bc250bf64c469e37df2ab4ab5c92f1af75740f56376ea9509bcf2e3cadadb477",
    "export/summary.csv": "74feac5132ae4dc847dc29b7832b14ada183c46288eebd50ceb3d11bae22ec06",
    "verify/verify_trace.jsonl": "d40e0bb94fba979d59e301540ae570c23fa518041a4aec0d84b80d27649a6915",
    "verify/verify_summary.csv": "90f6c638c71ecaaf16c46a04f2e21477455d72b5b1e72868da59a9e8bbc2b207",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def assert_golden(path, key):
    assert sha256(path) == GOLDEN_SHA256[key], f"{key} under BLAS kernel {blas_kernel()}"


def test_run_writes_trace_and_summary(tmp_path, capsys):
    code, out, _ = run_cli(["run", *SMALL_FLAGS, "--beta", "0.5", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert (tmp_path / "trace.jsonl").exists()
    summary = (tmp_path / "summary.csv").read_text()
    assert summary.count("\n") == 2
    banner = json.loads(out.splitlines()[0])
    assert banner["budget"]["budget_tokens"] == 24  # 0.5 * 2 * 6 * 4


def test_run_beta_one_compare_baseline(tmp_path, capsys):
    code, out, _ = run_cli(
        ["run", *SMALL_FLAGS, "--beta", "1.0", "--compare-baseline", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    diff_line = next(line for line in out.splitlines() if line.startswith("max_abs_diff="))
    assert float(diff_line.split("=")[1]) <= 1e-12


def test_config_error_exit_code(tmp_path, capsys):
    code, _, err = run_cli(["run", "--tau", "-1", "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "tau" in err
    code, _, err = run_cli(["run", "--dim", "30", "--heads", "4", "--out", str(tmp_path)], capsys)
    assert code == 2


def test_non_finite_run_exits_2_without_trace(tmp_path, capsys):
    # The run overflows to NaN statistics, which a JSON trace cannot carry.
    with np.errstate(all="ignore"):
        code, _, err = run_cli(["run", "--frames", "4", "--sharpness", "1.7e308", "--out", str(tmp_path)], capsys)
    assert code == 2
    assert re.search(r"step \d+ layer \d+: \w+ is not finite", err)
    assert not (tmp_path / "trace.jsonl").exists()


def test_precedence_defaults_file_flags(tmp_path, capsys):
    cfg_file = tmp_path / "stream.cfg"
    cfg_file.write_text("frames = 5\nseed = 99\n# comment\nlayers = 2\n")
    out_dir = tmp_path / "o1"
    code, out, _ = run_cli(
        ["run", "--config", str(cfg_file), "--heads", "2", "--dim", "16",
         "--tokens-per-frame", "4", "--registers", "0", "--out", str(out_dir)],
        capsys,
    )
    assert code == 0
    banner = json.loads(out.splitlines()[0])
    assert banner["config"]["frames"] == 5      # from file
    assert banner["config"]["seed"] == 99       # from file
    assert banner["config"]["tau"] == 1.5       # default

    out_dir2 = tmp_path / "o2"
    code, out, _ = run_cli(
        ["run", "--config", str(cfg_file), "--frames", "3", "--heads", "2", "--dim", "16",
         "--tokens-per-frame", "4", "--registers", "0", "--out", str(out_dir2)],
        capsys,
    )
    banner = json.loads(out.splitlines()[0])
    assert banner["config"]["frames"] == 3      # flag overrides file


def test_bad_config_file(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("frames: 5\n")
    code, _, err = run_cli(["run", "--config", str(cfg_file), "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "key = value" in err


@pytest.mark.parametrize("content", [None, b"\xff\n"], ids=["missing", "not_utf8"])
@pytest.mark.parametrize("args", [["export", "--trace"], ["run", "--config"]], ids=["trace", "config"])
def test_unreadable_input_file_exits_2(args, content, tmp_path, capsys):
    path = tmp_path / "input.txt"
    if content is not None:
        path.write_bytes(content)
    code, _, err = run_cli([*args, str(path), "--out", str(tmp_path / "out")], capsys)
    assert code == 2
    if content is None:
        assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out" / "summary.csv").exists()


def test_sweep_table(tmp_path, capsys):
    code, out, _ = run_cli(
        ["sweep", *SMALL_FLAGS, "--betas", "0.3,0.6", "--seeds", "2", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    table = (tmp_path / "sweep_summary.csv").read_text()
    assert table.count("\n") == 5  # header + 2 betas x 2 seeds


@pytest.mark.parametrize("args, message", [
    (["sweep", "--betas", ",", "--seeds", "1"], "sweep needs at least one beta and one seed"),
    (["sweep", "--betas", "0.5", "--seeds", "0"], "sweep needs at least one beta and one seed"),
    (["ablate", "--budget-frac", "0.5", "--seeds", "0"], "ablate needs at least one seed"),
], ids=["sweep_no_betas", "sweep_no_seeds", "ablate_no_seeds"])
def test_empty_sweep_or_ablation_exits_2(args, message, tmp_path, capsys):
    code, out, err = run_cli([*args, *SMALL_FLAGS, "--out", str(tmp_path)], capsys)
    assert (code, out, err) == (2, "", f"config error: {message}\n")


def test_ablate_orders_policies(tmp_path, capsys):
    code, out, _ = run_cli(
        ["ablate", "--layers", "2", "--heads", "2", "--dim", "16",
         "--tokens-per-frame", "16", "--registers", "0", "--frames", "16",
         "--landmark-frac", "0.07", "--budget-frac", "0.2", "--seeds", "4",
         "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    retention = {}
    for line in out.splitlines():
        if line.startswith("policy="):
            fields = dict(part.split("=") for part in line.split())
            retention[fields["policy"]] = float(fields["mean_landmark_retention"])
    assert set(retention) == {"attention", "uniform_budget", "random"}
    assert retention["attention"] > retention["random"]
    assert (tmp_path / "ablate_summary.csv").exists()


def test_ablate_checks_the_policies_it_runs(tmp_path, capsys, monkeypatch):
    # ablate runs attention, uniform_budget and random whatever --policy
    # says, so a budget that policy 'none' could not keep is no error;
    # a bad --budget-frac still fails before the baseline runs.
    code, out, err = run_cli(["ablate", "--budget-frac", "0.5", "--policy", "none", "--frames", "4",
                              "--seeds", "1", "--out", str(tmp_path)], capsys)
    assert code == 0, err
    assert [line.split()[0] for line in out.splitlines() if line.startswith("policy=")] == [
        "policy=attention", "policy=uniform_budget", "policy=random"]
    monkeypatch.setattr(cli, "baseline_run", lambda cfg: pytest.fail("the baseline ran"))
    code, _, err = run_cli(["ablate", "--budget-frac", "1.5", "--frames", "4", "--seeds", "1",
                            "--out", str(tmp_path)], capsys)
    assert (code, err) == (2, "config error: beta must be in (0, 1]\n")


def test_verify_default_config_passes(tmp_path, capsys):
    code, out, _ = run_cli(["verify", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert [line.split(" (")[0] for line in out.splitlines()[:7]] == [
        "ok: " + name for name in ("beta1-equivalence", "conservation", "scoring-oracle", "allocation-example",
                                   "occupancy-bound", "protected-persistence", "determinism")
    ]


def test_verify_outputs_match_golden(tmp_path, capsys):
    assert run_cli(["verify", "--out", str(tmp_path)], capsys)[0] == 0
    assert_golden(tmp_path / "verify_trace.jsonl", "verify/verify_trace.jsonl")
    assert_golden(tmp_path / "verify_summary.csv", "verify/verify_summary.csv")


@pytest.mark.parametrize("fault", [
    lambda score, exposure: score / (exposure + 1),
    lambda score, exposure: score * np.nan,
], ids=["exposure_off_by_one", "nan"])
def test_verify_fails_when_eviction_ranks_on_wrong_importances(fault, tmp_path, capsys, monkeypatch):
    # A planted fault in the importances eviction ranks on must fail the
    # scoring oracle, not only the output pins.
    def faulty(cache_layer, rows):
        return fault(cache_layer.cum_score[rows], cache_layer.exposure(rows))

    monkeypatch.setattr(eviction, "importances", faulty)
    code, out, _ = run_cli(["verify", "--out", str(tmp_path)], capsys)
    assert code == 3
    assert "FAIL: scoring-oracle" in out
    # NaN importances reach the bounded run's records, whose trace cannot be written.
    assert ("FAIL: determinism (no trace: " in out) == math.isnan(fault(1.0, 1))


def test_verify_fails_when_later_frames_lose_protection(tmp_path, capsys, monkeypatch):
    # verify restates the protection rule from the id layout, so a
    # simulator that protects nothing after frame 0 must fail it.
    rule = simulate.frame_protection
    monkeypatch.setattr(simulate, "frame_protection", lambda cfg, frame: rule(cfg, frame) & (frame == 0))
    code, out, _ = run_cli(["verify", "--out", str(tmp_path)], capsys)
    assert code == 3
    assert "FAIL: protected-persistence" in out


def test_verify_fails_when_protection_marks_the_wrong_slots(tmp_path, capsys, monkeypatch):
    # Reversed, the mask protects as many tokens of each later frame as
    # the rule does, but patches in place of the camera and registers
    # that the id layout names: the protected count holds, and verify
    # fails on the camera and register tokens evicted.
    rule = simulate.frame_protection
    monkeypatch.setattr(simulate, "frame_protection", lambda cfg, frame: rule(cfg, frame)[::-1])
    code, out, _ = run_cli(["verify", "--out", str(tmp_path)], capsys)
    assert code == 3
    assert "FAIL: protected-persistence" in out


def test_verify_passes_a_zero_frame_stream(tmp_path, capsys):
    code, out, err = run_cli(["verify", "--frames", "0", "--out", str(tmp_path)], capsys)
    assert (code, err) == (0, "")
    assert "FAIL" not in out


def test_verify_reruns_byte_identical(tmp_path, capsys):
    d1, d2 = tmp_path / "v1", tmp_path / "v2"
    assert run_cli(["verify", "--frames", "10", "--out", str(d1)], capsys)[0] == 0
    assert run_cli(["verify", "--frames", "10", "--out", str(d2)], capsys)[0] == 0
    assert (d1 / "verify_trace.jsonl").read_bytes() == (d2 / "verify_trace.jsonl").read_bytes()
    assert (d1 / "verify_summary.csv").read_bytes() == (d2 / "verify_summary.csv").read_bytes()


def export_small_run(tmp_path, capsys):
    """Run SMALL_FLAGS at beta 0.5 and export layer 1 of its trace,
    reweighted; returns the export directory."""
    run_dir = tmp_path / "run"
    code, _, _ = run_cli(["run", *SMALL_FLAGS, "--beta", "0.5", "--out", str(run_dir)], capsys)
    assert code == 0
    export_dir = tmp_path / "export"
    code, _, _ = run_cli(
        ["export", "--trace", str(run_dir / "trace.jsonl"), "--layer", "1",
         "--reweight", "--out", str(export_dir)],
        capsys,
    )
    assert code == 0
    return export_dir


def test_export_heatmap_from_trace(tmp_path, capsys):
    export_dir = export_small_run(tmp_path, capsys)
    assert (export_dir / "heatmap_layer1.txt").exists()
    assert (export_dir / "heatmap_layer1.pgm").exists()
    assert (export_dir / "heatmap_layer1.frames.json").exists()


@pytest.mark.parametrize("change", ["zero", "negative", "negative_first_step"])
def test_export_graymap_levels_stay_in_range(tmp_path, capsys, change):
    # Column sums that are all zero, or negative, read back; the graymap
    # still holds levels 0..255 only: a negative cell, and every cell of a
    # grid with no positive one, is level 0. No warning is raised.
    run_dir, export_dir = tmp_path / "run", tmp_path / "export"
    assert run_cli(["run", *SMALL_FLAGS, "--frames", "3", "--beta", "0.5", "--out", str(run_dir)], capsys)[0] == 0
    lines = (run_dir / "trace.jsonl").read_text().splitlines()
    for i in range(1, len(lines)):
        record = json.loads(lines[i])
        if change == "zero":
            sign = 0.0
        else:
            sign = -1.0 if change == "negative" or record["step"] == 0 else 1.0
        for name in ("col_sums_raw", "col_sums_headmean"):
            record[name] = [sign * x for x in record[name]]
        lines[i] = json.dumps(record)
    trace = tmp_path / "trace.jsonl"
    trace.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(["export", "--trace", str(trace), "--layer", "1", "--out", str(export_dir)], capsys)
    assert (code, err) == (0, "")
    grid = np.loadtxt(export_dir / "heatmap_layer1.txt")
    magic, shape, depth, *rows = (export_dir / "heatmap_layer1.pgm").read_text().splitlines()
    assert (magic, shape, depth) == ("P2", f"{grid.shape[1]} {grid.shape[0]}", "255")
    levels = np.array([[int(v) for v in row.split()] for row in rows])
    assert levels.shape == grid.shape
    assert levels.min() >= 0 and (levels[grid <= 0] == 0).all()
    assert levels.max() == (255 if change == "negative_first_step" else 0)


def test_export_summary_matches_golden(tmp_path, capsys):
    assert_golden(export_small_run(tmp_path, capsys) / "summary.csv", "export/summary.csv")


def test_export_summary_row_matches_run(tmp_path, capsys):
    # The row export builds from a trace equals the row of the run that
    # wrote it, on every column but the label.
    cases = [
        dict(beta=0.3),
        dict(),
        dict(frames=0, beta=0.5),
        dict(beta=0.5, budget_mode="steady-state", ref_frames=3),
        dict(budget_tokens=20, budget_mode="steady-state"),
    ]
    for i, extra in enumerate(cases):
        flags = [part for key, value in extra.items()
                 for part in ("--" + key.replace("_", "-"), str(value))]
        run_dir, export_dir = tmp_path / f"run{i}", tmp_path / f"export{i}"
        assert run_cli(["run", *SMALL_FLAGS, *flags, "--out", str(run_dir)], capsys)[0] == 0
        assert run_cli(["export", "--trace", str(run_dir / "trace.jsonl"),
                        "--out", str(export_dir)], capsys)[0] == 0
        exported = (export_dir / "summary.csv").read_text().splitlines()
        expected = summarize([summary_row(run_stream(StreamConfig(**{**SMALL, **extra})), label="run")])
        assert [row.split(",")[1:] for row in exported] == \
            [row.split(",")[1:] for row in expected.splitlines()]


def test_zero_frame_run_and_export_round_trip(tmp_path, capsys):
    run_dir, export_dir = tmp_path / "run", tmp_path / "export"
    code, _, err = run_cli(["run", *SMALL_FLAGS, "--frames", "0", "--beta", "0.5", "--out", str(run_dir)], capsys)
    assert (code, err) == (0, "")
    trace = run_dir / "trace.jsonl"
    assert trace.read_text().count("\n") == 1
    assert read_trace(trace).records == []
    code, _, err = run_cli(["export", "--trace", str(trace), "--out", str(export_dir)], capsys)
    assert (code, err) == (0, "")

    def summary(directory):
        (row,) = csv.DictReader(io.StringIO((directory / "summary.csv").read_text()))
        return row

    run_row, export_row = summary(run_dir), summary(export_dir)
    assert (run_row.pop("label"), export_row.pop("label")) == ("run", "trace")
    assert run_row == export_row
    assert (run_row["mean_divergence"], run_row["landmark_retention"]) == ("", "")


def test_export_of_an_unknown_layer_exits_2(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert run_cli(["run", *SMALL_FLAGS, "--frames", "2", "--out", str(run_dir)], capsys)[0] == 0
    code, _, err = run_cli(["export", "--trace", str(run_dir / "trace.jsonl"), "--layer", "9",
                            "--out", str(tmp_path / "export")], capsys)
    assert (code, err) == (2, "error: no records for layer 9\n")


def test_export_malformed_trace_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    code, _, err = run_cli(["export", "--trace", str(bad), "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "line 1" in err

    # A record whose col_sums_headmean lacks an entry, or is one ulp off
    # col_sums_raw / heads, fails on its line instead of reaching the heatmap.
    run_dir = tmp_path / "run"
    assert run_cli(["run", *SMALL_FLAGS, "--frames", "3", "--beta", "0.5", "--out", str(run_dir)], capsys)[0] == 0
    lines = (run_dir / "trace.jsonl").read_text().splitlines()
    for change in (list.pop, lambda sums: sums.append(float(np.nextafter(sums.pop(), np.inf)))):
        record = json.loads(lines[2])
        change(record["col_sums_headmean"])
        bad.write_text("\n".join([*lines[:2], json.dumps(record), *lines[3:]]) + "\n")
        code, _, err = run_cli(["export", "--trace", str(bad), "--out", str(tmp_path / "export")], capsys)
        assert code == 2
        assert "line 3" in err

    # A header whose budget holds 1 for true and whose sharpness profile
    # holds true for a number fails on line 1: 1 == True in Python.
    header = json.loads(lines[0])
    header["budget"]["bounded"] = 1
    header["config"]["sharpness_profile"] = [True, 0]
    bad.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    code, _, err = run_cli(["export", "--trace", str(bad), "--out", str(tmp_path / "export")], capsys)
    assert code == 2
    assert "line 1" in err

    # A header whose config lost frames and policy and gained an unknown
    # key fails on line 1 instead of exporting a summary row of defaults.
    lines = (run_dir / "trace.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    del header["config"]["frames"], header["config"]["policy"]
    header["config"]["junk"] = 1
    bad.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    code, _, err = run_cli(["export", "--trace", str(bad), "--out", str(tmp_path / "export")], capsys)
    assert code == 2
    assert "line 1" in err


def test_env_var_output_dir(tmp_path, capsys, monkeypatch):
    target = tmp_path / "env_out"
    monkeypatch.setenv("BOUNDEDKV_OUT", str(target))
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(["run", *SMALL_FLAGS, "--beta", "0.5"], capsys)
    assert code == 0
    assert (target / "trace.jsonl").exists()


def test_rerun_outputs_byte_identical(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_cli(["run", *SMALL_FLAGS, "--beta", "0.3", "--out", str(d1)], capsys)
    run_cli(["run", *SMALL_FLAGS, "--beta", "0.3", "--out", str(d2)], capsys)
    assert (d1 / "trace.jsonl").read_bytes() == (d2 / "trace.jsonl").read_bytes()
    assert (d1 / "summary.csv").read_bytes() == (d2 / "summary.csv").read_bytes()


def test_run_outputs_match_golden(tmp_path, capsys):
    plain, maps = tmp_path / "plain", tmp_path / "maps"
    run_cli(["run", *SMALL_FLAGS, "--beta", "0.5", "--out", str(plain)], capsys)
    run_cli(["run", *SMALL_FLAGS, "--beta", "0.5", "--trace-full-maps", "--out", str(maps)], capsys)
    assert_golden(plain / "trace.jsonl", "run/trace.jsonl")
    assert_golden(plain / "summary.csv", "run/summary.csv")
    assert_golden(maps / "trace.jsonl", "maps/trace.jsonl")


# A non-default value, as typed and as parsed, for every StreamConfig
# field that has a flag (its name with dashes) and a config-file key.
FIELD_VALUES = {
    "layers": ("3", 3), "heads": ("4", 4), "dim": ("64", 64), "tokens_per_frame": ("16", 16),
    "registers": ("2", 2), "frames": ("5", 5), "beta": ("0.5", 0.5),
    "budget_tokens": ("100", 100), "budget_mode": ("steady-state", "steady-state"),
    "ref_frames": ("3", 3), "tau": ("2.5", 2.5), "policy": ("random", "random"),
    "seed": ("3", 3), "landmark_frac": ("0.5", 0.5), "landmark_gain": ("1.5", 1.5),
    "sharpness": ("1.5", 1.5), "attn_dtype": ("float32", "float32"),
}


def test_every_config_field_is_a_flag_and_a_config_key(tmp_path):
    settable = {f.name for f in fields(StreamConfig)} - {"sharpness_profile", "keep_maps"}
    assert set(FIELD_VALUES) == settable
    parser = build_parser()
    for name, (text, value) in FIELD_VALUES.items():
        from_flag = _merge_config(parser.parse_args(["run", "--" + name.replace("_", "-"), text]))
        assert getattr(from_flag, name) == value
        cfg_file = tmp_path / f"{name}.cfg"
        cfg_file.write_text(f"{name} = {text}\n")
        from_file = _merge_config(parser.parse_args(["run", "--config", str(cfg_file)]))
        assert getattr(from_file, name) == value

    assert _merge_config(parser.parse_args(["run", "--trace-full-maps"])).keep_maps is True
    cfg_file = tmp_path / "maps.cfg"
    cfg_file.write_text("keep_maps = yes\n")
    assert _merge_config(parser.parse_args(["run", "--config", str(cfg_file)])).keep_maps is True
    cfg_file.write_text("keep_maps = maybe\n")
    with pytest.raises(ConfigError, match="maps.cfg:1: bad value for keep_maps"):
        _merge_config(parser.parse_args(["run", "--config", str(cfg_file)]))


def test_sharpness_profile_has_no_flag_or_config_key(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--sharpness-profile", "1,2", "--out", str(tmp_path)])
    assert exc.value.code == 2
    cfg_file = tmp_path / "profile.cfg"
    cfg_file.write_text("sharpness_profile = 1,2\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        _merge_config(build_parser().parse_args(["run", "--config", str(cfg_file)]))


@pytest.mark.parametrize("flag", ["--policy", "--budget-mode", "--attn-dtype"])
def test_bad_choice_exits_2(flag, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", flag, "bogus", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


CHOICE_FIELDS = pytest.mark.parametrize("field, choices", [
    ("policy", POLICIES), ("budget_mode", BUDGET_MODES), ("attn_dtype", ATTN_DTYPES),
], ids=["policy", "budget_mode", "attn_dtype"])


@CHOICE_FIELDS
def test_out_of_set_value_fails_validate(field, choices):
    with pytest.raises(ConfigError) as err:
        StreamConfig(**{field: "bogus"}).validate()
    assert str(err.value) == f"{field} must be one of {choices}"


@CHOICE_FIELDS
def test_out_of_set_value_fails_config_file(field, choices, tmp_path):
    cfg_file = tmp_path / "bogus.cfg"
    cfg_file.write_text(f"{field} = bogus\n")
    with pytest.raises(ConfigError) as err:
        _merge_config(build_parser().parse_args(["run", "--config", str(cfg_file)]))
    assert str(err.value) == f"{field} must be one of {choices}"


@CHOICE_FIELDS
def test_out_of_set_value_fails_trace_header(field, choices, tmp_path):
    lines = write_trace(run_stream(StreamConfig(**SMALL, beta=0.5)), tmp_path / "trace.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    header["config"][field] = "bogus"
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    with pytest.raises(MalformedTrace) as err:
        read_trace(bad)
    assert err.value.line == 1
    assert f"{field} must be one of {choices}" in str(err.value)
