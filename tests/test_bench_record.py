"""Smoke test of tools/bench_record.py: one toy workload, one second."""

import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_records_one_toy_workload(tmp_path):
    done = subprocess.run(
        [sys.executable, "tools/bench_record.py", "--pr", "0", "--workloads", "score",
         "--size", "toy", "--seconds", "1", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    record = json.loads((tmp_path / "BENCH_0.json").read_text(encoding="utf-8"))
    assert (record["pr"], record["seed"], record["size"]) == (0, 1017, "toy")
    assert record["src_lines"] > 0
    assert record["python"] and record["numpy"]
    score = record["workloads"]["score"]
    assert list(record["workloads"]) == ["score"]
    # toy banks need not beat score's majority-baseline check, so a toy run
    # may count failed checks; the record must only carry the counts
    assert score["attempted"] > 0 and score["passes"] >= 1
    assert re.fullmatch(r"[0-9a-f]{64}", score["output_fingerprint"])
    for name in ("setup_s", "wall_s", "sessions_per_s", "peak_rss_mb", "maa_s9"):
        assert score["metrics"][name] > 0, name
    # the spread beside the medians
    setups = score["setup_s_each"]
    assert setups and all(t > 0 for t in setups)
    assert statistics.median(setups) == score["metrics"]["setup_s"]
    q1, q2, q3 = score["wall_s_quartiles"]
    assert 0 < q1 <= q2 <= q3
    assert q2 == pytest.approx(score["metrics"]["wall_s"], rel=1e-12)
