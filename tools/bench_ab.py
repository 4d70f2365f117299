"""Run the benchmark in alternating pairs: a base commit against this checkout.

    python3 tools/bench_ab.py --base HEAD~1
    python3 tools/bench_ab.py --base main --pairs 10 --workloads score --seconds 5

Exports REF with `git archive` into a temporary directory. Each pair then
runs `bench/run.py --workload <w> --seed 1017 --trace 0` once in that tree
and once in this checkout, as it stands, swapping which side runs first
from one pair to the next, and reads each run's
`.bench_runs/<w>-seed1017-trace0/record.json`.

For each workload and each end-to-end metric of BENCHMARK.json it prints
the median of the base's runs and of the change's, the base's quartile
spread, how many pairs the change won (and tied), `WORSE` where the
change's median is worse than the base's by more than the metric's bound,
and `NOISY` where the base's own quartiles lie further apart than that
bound, so that a single run of either side may cross it on noise alone.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1017
WORKLOADS = ("fit", "tune", "score")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git ref of the base side")
    parser.add_argument("--pairs", type=int, default=10, help="runs per side and workload")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated workloads to run")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: BENCHMARK.json's run_seconds)")
    args = parser.parse_args(argv)
    args.workloads = args.workloads.split(",")
    for name in args.workloads:
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r}")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    return args


def export(ref: str, into: Path) -> None:
    """The files of `ref`, written under `into` by `git archive`."""
    archive = into.with_suffix(".tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), ref],
                   cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(into, filter="data")
    archive.unlink()


def run_once(tree: Path, workload: str, seconds: float) -> dict:
    subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, check=True, stdout=subprocess.DEVNULL,
    )
    path = tree / ".bench_runs" / f"{workload}-seed{SEED}-trace0" / "record.json"
    return json.loads(path.read_text(encoding="utf-8"))


def summarize(base: list[dict], change: list[dict], metrics: list[dict]) -> list[dict]:
    """One row per metric of `metrics` (BENCHMARK.json's end-to-end entries).

    `base[k]` and `change[k]` are the records of pair k. A metric a record
    lacks, or holds as None, is left out of that pair.
    """
    rows = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        pairs = [
            (b["metrics"][name]["value"], c["metrics"][name]["value"])
            for b, c in zip(base, change, strict=True)
            if b["metrics"].get(name, {}).get("value") is not None
            and c["metrics"].get(name, {}).get("value") is not None
        ]
        if not pairs:
            continue
        b_values, c_values = [p[0] for p in pairs], [p[1] for p in pairs]
        b_med, c_med = statistics.median(b_values), statistics.median(c_values)
        if len(b_values) > 1:
            q1, _, q3 = statistics.quantiles(b_values, n=4, method="inclusive")
        else:
            q1 = q3 = b_values[0]
        loss = (c_med - b_med) if lower else (b_med - c_med)
        rows.append({
            "metric": name,
            "unit": metric["unit"],
            "base": b_med,
            "change": c_med,
            "base_q1": q1,
            "base_q3": q3,
            "wins": sum((c < b) if lower else (c > b) for b, c in pairs),
            "ties": sum(c == b for b, c in pairs),
            "pairs": len(pairs),
            "worse": loss > metric["bound"] * abs(b_med),
            "noisy": q3 - q1 > metric["bound"] * abs(b_med),
        })
    return rows


def format_rows(workload: str, rows: list[dict]) -> str:
    lines = [f"{workload}:"]
    for r in rows:
        mark = "  WORSE" * r["worse"] + "  NOISY" * r["noisy"]
        lines.append(
            f"  {r['metric']:<15} base {r['base']:.4g} (IQR {r['base_q1']:.4g}-"
            f"{r['base_q3']:.4g})  change {r['change']:.4g} {r['unit']}  "
            f"wins {r['wins']}/{r['pairs']} ties {r['ties']}{mark}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    runs = {name: {"base": [], "change": []} for name in args.workloads}
    with tempfile.TemporaryDirectory(prefix="bench_ab_") as tmp:
        base_tree = Path(tmp) / "base"
        export(args.base, base_tree)
        trees = {"base": base_tree, "change": ROOT}
        for k in range(args.pairs):
            order = ("base", "change") if k % 2 == 0 else ("change", "base")
            for name in args.workloads:
                for side in order:
                    runs[name][side].append(run_once(trees[side], name, seconds))
            print(f"pair {k + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)
    print(f"base {args.base} against this checkout: {args.pairs} pairs, "
          f"{seconds:g} s a run, seed {SEED}")
    for name in args.workloads:
        base, change = runs[name]["base"], runs[name]["change"]
        print(format_rows(name, summarize(base, change, spec["end_to_end"])))
        print(f"  failed checks: base {sum(r['failed'] for r in base)}, "
              f"change {sum(r['failed'] for r in change)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
