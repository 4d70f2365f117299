"""Smoke test of tools/bench_record.py: one toy workload, one second."""

import json
import re
import subprocess
import sys
from pathlib import Path

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
