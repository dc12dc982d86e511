"""tools/bench_pairs.py's summary, on made-up runs: no benchmark runs here."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
DECLARED = [{"name": "step_ms_p50", "better": "lower", "bound": 0.25}]


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOLS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_run(value, raw):
    return {"values": {"step_ms_p50": value}, "raw": {"step_ms_p50": raw}, "host_factor": raw / value,
            "correct": True, "attempted": 4, "failed": 0}


def test_summary_prints_the_parents_raw_spread():
    bench_pairs = load_bench_pairs()
    pairs = [(fake_run(10.0 + i, 20.0 + 2 * i), fake_run(5.0, 8.0)) for i in range(5)]
    lines, flagged = bench_pairs.summarize(DECLARED, pairs)
    # Parent raw values 20, 22, ..., 28: median 24, quartiles 22 and 26.
    assert lines[1].endswith("raw 24 -> 8 (parent IQR 4)")
    assert not flagged


def test_repeated_workloads_each_get_a_summary(monkeypatch, tmp_path, capsys):
    bench_pairs = load_bench_pairs()
    (tmp_path / "BENCHMARK.json").write_text('{"end_to_end": [{"name": "step_ms_p50", "better": "lower", '
                                             '"bound": 0.25}]}')
    ran = []

    def run_once(checkout, workload, seed, seconds):
        ran.append(workload)
        return fake_run(10.0, 12.0) if workload == "a" else fake_run(20.0, 24.0)

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    code = bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                             "--workload", "a", "--workload", "b", "--pairs", "2", "--seconds", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert ran == ["a"] * 4 + ["b"] * 4
    assert "a, seed 1729, 1 s runs, 2 pairs" in out and "b, seed 1729, 1 s runs, 2 pairs" in out
    assert out.count("raw 12 -> 12 (parent IQR 0)") == 1 and out.count("raw 24 -> 24 (parent IQR 0)") == 1
