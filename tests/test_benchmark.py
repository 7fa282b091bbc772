"""The benchmarks under perfbench/ and benchmarks/ still run against the
sources in src/.

A small market world goes through the benchmark's own workload, bench
and traced-run code in a fresh interpreter, so the tracer's patches on
atcpip never reach the rest of the suite. An API change that breaks
the benchmark fails here instead of in a benchmark run. The scaling
script patches nothing, so its measuring code runs in-process.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

SCRIPT = """
import argparse, json, pathlib, sys

import bench, layers, run, worlds

bench.WORKLOADS["market"] = bench.Workload(worlds.market, sessions=60, disputes=3)
api = run._import_atcpip()
args = argparse.Namespace(workload="market", seed=1, seconds=0)
traced, per_layer = layers.traced_run(api, args, pathlib.Path(sys.argv[1]))
traced.describe()
result = {
    "failed": traced.checks.failed,
    "problems": traced.checks.problems,
    "end_to_end": sorted(traced.end_to_end(0.0)),
    "per_layer": sorted(per_layer),
}
print(json.dumps(result))
"""


def test_benchmark_runs_a_small_traced_market_world(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    trace_dir = tmp_path / "trace"
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(trace_dir)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert any(line.startswith("transcript_sha256: ") for line in lines), done.stdout
    result = json.loads(lines[-1])
    assert result["failed"] == 0, result["problems"]
    assert (trace_dir / "spans-market.bin").is_file()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for section in ("end_to_end", "per_layer"):
        missing = {metric["name"] for metric in declared[section]} - set(result[section])
        assert not missing, f"{section} metrics not produced: {sorted(missing)}"


def test_benchmark_selftest_passes(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "perfbench" / "selftest.py")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_scaling_script_measures_both_shapes_in_process(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    path = ROOT / "benchmarks" / "bench_scaling.py"
    spec = importlib.util.spec_from_file_location("bench_scaling", path)
    scaling = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scaling)
    table = scaling.curve(sizes=(20, 40), min_seconds=0)
    assert sorted(table) == ["hot_provider", "market"]
    for row in table.values():
        assert sorted(row) == ["20", "40"]
        for cell in row.values():
            assert sorted(cell) == [
                "bytes_per_session", "chain_entries", "export_evidence_us_per_entry",
                "ms_per_session", "ms_per_session_iqr", "ms_per_session_raw", "peak_kb_per_session",
                "retained_kb_per_session", "runs", "verify_us_per_entry",
            ]
            assert all(figure > 0 for figure in cell.values())
            assert cell["peak_kb_per_session"] >= cell["retained_kb_per_session"]
            assert cell["runs"] == scaling.MIN_RUNS
    ratios = scaling.flatness(table)
    assert sorted(ratios) == ["hot_provider", "market"]
    assert all(ratio > 0 for ratio in ratios.values())
