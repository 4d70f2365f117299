"""Toy-size smoke runs of the benchmark.

    python3 -m pytest -q bench/test_smoke.py

Each workload runs at toy size with tracing off and on. A run must exit 0,
pass every output check, and print a result line carrying exactly the
metrics BENCHMARK.json names, with their units.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_run_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                     "--trace", str(trace), "--size", "toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    table = proc.stdout.splitlines()[:-1]
    for name in [*expected, "error_rate"]:
        assert any(line.split()[:1] == [name] for line in table), name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "fit", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_missing_function_is_recorded_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import skipcast.cli
    import skipcast.modelbank as modelbank
    import tracing

    monkeypatch.delattr(modelbank, "session_score_matrix")
    monkeypatch.delattr(modelbank.ModelBank, "predict_positions")
    original = skipcast.cli.train_bank
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert skipcast.cli.train_bank is not original
        assert "modelbank.session_score_matrix" in tracer.absent
        assert "modelbank.ModelBank.predict_positions" in tracer.absent
    finally:
        tracer.uninstall()
    assert skipcast.cli.train_bank is original
