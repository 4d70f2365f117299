"""Run the benchmark at seed 1017 and write its record to BENCH_<pr>.json.

    python3 tools/bench_record.py --pr N
    python3 tools/bench_record.py --pr N --workloads score --size toy --seconds 1 --out DIR

Runs `bench/run.py --workload <w> --seed 1017 --trace 0` for each workload
(fit, tune and score by default) from the root of this checkout, passing
`--size` and `--seconds` through. From each run's
`.bench_runs/<w>-seed1017-trace0/record.json` it keeps the end-to-end
metrics (medians over the timed passes, as bench/run.py reports them), the
pass and failure counts, and the output fingerprint, the digest that
bench/run.py prints. Beside the medians it keeps their spread: the seconds
of each set-up (`setup_s_each`) and the quartiles of the timed passes'
walls (`wall_s_quartiles`, inclusive method). The record also holds the
`src/` line count and the Python and numpy versions of the runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1017
WORKLOADS = ("fit", "tune", "score")


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


def run_workload(name: str, size: str, seconds: float) -> dict:
    subprocess.run(
        [sys.executable, "bench/run.py", "--workload", name, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", "0", "--size", size],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )
    path = ROOT / ".bench_runs" / f"{name}-seed{SEED}-trace0" / "record.json"
    return json.loads(path.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    args = parse_args(argv)
    record = {"pr": args.pr, "seed": SEED, "size": args.size, "seconds": args.seconds,
              "src_lines": src_lines(), "workloads": {}}
    for name in args.workloads:
        run = run_workload(name, args.size, args.seconds)
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
