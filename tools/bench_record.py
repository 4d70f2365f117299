"""Run the benchmark at seed 1017 and write its record to BENCH_<pr>.json.

    python3 tools/bench_record.py --pr N
    python3 tools/bench_record.py --pr N --workloads score --size toy --seconds 1 --out DIR

Runs each workload (fit, tune and score by default) once from the root of
this checkout with `bench_ab.run_once`, passing `--size` and `--seconds`
through. From each run's record it keeps the end-to-end metrics (medians
over the timed passes, as bench/run.py reports them), the pass and failure
counts, and the output fingerprint, the digest that bench/run.py prints.
Beside the medians it keeps their spread: the seconds of each set-up
(`setup_s_each`) and the quartiles of the timed passes' walls
(`wall_s_quartiles`, inclusive method). The record also holds the `src/`
line count and the Python and numpy versions of the runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
from pathlib import Path

from bench_ab import ROOT, SEED, WORKLOADS, run_once


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the file name")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated workloads to run")
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="timed seconds per workload")
    parser.add_argument("--out", type=Path, default=ROOT, help="directory of the record")
    args = parser.parse_args(argv)
    args.workloads = args.workloads.split(",")
    for name in args.workloads:
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r}")
    return args


def src_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((ROOT / "src").rglob("*.py"))
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    record = {"pr": args.pr, "seed": SEED, "size": args.size, "seconds": args.seconds,
              "src_lines": src_lines(), "workloads": {}}
    for name in args.workloads:
        run = run_once(ROOT, name, args.seconds, args.size)
        digests = json.dumps(run["fingerprints"], sort_keys=True).encode()
        record["workloads"][name] = {
            "metrics": {metric: m["value"] for metric, m in run["metrics"].items()},
            "setup_s_each": run["setup_s"],
            "wall_s_quartiles": statistics.quantiles(run["walls"], n=4, method="inclusive"),
            "passes": len(run["walls"]),
            "attempted": run["attempted"],
            "failed": run["failed"],
            "output_fingerprint": hashlib.sha256(digests).hexdigest(),
        }
        record["python"] = run["environment"]["python"]
        record["numpy"] = run["environment"]["numpy"]
    path = args.out / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
