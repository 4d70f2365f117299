"""Benchmark of the skipcast pipeline: fit, tune and score workloads.

    python3 bench/run.py --workload fit --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and drives the package in `src/`
only through `skipcast.cli.main` and its public functions. A run sets the
workload up several times (their median is `setup_s`), then repeats the
timed pass in a closed loop for `--seconds`, checks every output, and
prints a metric table followed by one JSON result line. With `--trace 0`
the result holds the end-to-end metrics; with `--trace 1` passes alternate
between untraced and traced, and the result holds the per-layer metrics.
A record of the run, with output fingerprints and the run environment, is
written to `.bench_runs/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 3
MIN_PASSES = 3

STAGES = ("synth", "extract", "train", "tune", "predict", "evaluate")
TIMED_LAYERS = (
    "features.assemble", "features.csv_write", "features.csv_read",
    "gbdt.split_search", "gbdt.train", "gbdt.predict_proba", "gbdt.tree_values",
    "datamodel.parse_tracks", "datamodel.parse_sessions",
    "modelbank.train_bank", "modelbank.grid_search", "modelbank.score",
    "modelbank.save", "modelbank.load",
    "ensemble.combine", "ensemble.write", "evaluation.report",
)
TIMED_COUNTS = (
    "gbdt.split_calls", "gbdt.train_calls", "gbdt.tree_values_calls", "gbdt.predict_rows",
    "features.examples", "datamodel.rows_parsed", "modelbank.fallbacks",
    "modelbank.grid_points", "modelbank.score_calls", "ensemble.combine_calls",
    "evaluation.sessions_scored",
)
TIMED_BYTES = ("features.csv_bytes", "modelbank.bank_bytes", "ensemble.bytes_written")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("fit", "tune", "score"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="corpus size; toy only proves the harness")
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy

    try:
        load_1m = float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        load_1m = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "loadavg_1m": load_1m,
    }


def src_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((ROOT / "src").rglob("*.py"))
    )


def median_of(folds, key, name) -> float:
    return statistics.median(f[key].get(name, 0.0) for f in folds) if folds else 0.0


def layer_metrics(setup_folds, folds, walls, traced_walls, failed_stages) -> dict:
    metrics = {}
    for stage in STAGES:
        source = setup_folds if stage == "synth" else folds
        metrics[f"cli.{stage}_s"] = (median_of(source, "inclusive", f"cli.{stage}"), "s")
    metrics["cli.failed_stages"] = (failed_stages, "count")
    for layer in TIMED_LAYERS:
        metrics[f"{layer}_s"] = (median_of(folds, "inclusive", layer), "s")
    metrics["synthetic.generate_s"] = (
        median_of(setup_folds, "inclusive", "synthetic.generate"), "s")
    for name in TIMED_COUNTS:
        metrics[name] = (median_of(folds, "counts", name), "count")
    for name in TIMED_BYTES:
        metrics[name] = (median_of(folds, "counts", name), "bytes")
    found = [
        f["counts"].get("gbdt.splits_found", 0) / f["counts"]["gbdt.split_calls"]
        if f["counts"].get("gbdt.split_calls") else 0.0
        for f in folds
    ]
    metrics["gbdt.split_found_ratio"] = (statistics.median(found) if found else 0.0, "ratio")
    overhead = statistics.median(traced_walls) / statistics.median(walls) - 1.0
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    metrics["repo.src_lines"] = (src_lines(), "lines")
    return metrics


def self_shares(folds, traced_walls) -> dict:
    """Median self time of each layer as a share of the traced pass."""
    layers = sorted({layer for f in folds for layer in f["self"]})
    wall = statistics.median(traced_walls)
    shares = {layer: median_of(folds, "self", layer) / wall for layer in layers}
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def run(args) -> dict:
    from tracing import Tracer
    from workloads import SIZES, WORKLOADS, Context

    run_dir = ROOT / ".bench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "size": args.size, "environment": environment()}
    tracer = Tracer() if args.trace else None
    ctx = Context(tracer)
    size = SIZES[args.size][args.workload]
    wl = WORKLOADS[args.workload](run_dir, args.seed, size, ctx)

    setup_times, setup_folds, setup_prints = [], [], []
    for repeat in range(SETUP_REPEATS):
        wl.reset(repeat)
        if tracer:
            tracer.install()
            ctx.tracing = True
        start = time.perf_counter()
        with ctx.span("setup"):
            wl.setup(repeat)
        setup_times.append(time.perf_counter() - start)
        if tracer:
            tracer.uninstall()
            ctx.tracing = False
            setup_folds.append(tracer.fold())
        with ctx.guard("set-up output"):
            setup_prints.append(wl.setup_fingerprint())
    ctx.expect(len(set(setup_prints)) == 1, "set-up output differs between repeats")

    # Traced runs alternate untraced and traced passes over each input, so
    # the overhead ratio and the byte-for-byte comparison see the same inputs.
    per_input = 2 if tracer else 1
    walls, traced_walls, rates, folds = [], [], [], []
    fingerprints: dict = {}
    min_passes = per_input * max(MIN_PASSES, wl.inputs)
    start = time.perf_counter()
    done = 0
    while done < min_passes or time.perf_counter() - start < args.seconds:
        k = (done // per_input) % wl.inputs
        traced = bool(tracer) and done % 2 == 1
        if traced:
            tracer.install()
            ctx.tracing = True
        t0 = time.perf_counter()
        with ctx.span("pass"):
            sessions = wl.iterate(k)
        wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
            ctx.tracing = False
            if not folds:
                tracer.dump(run_dir / "spans.jsonl")
            folds.append(tracer.fold())
            traced_walls.append(wall)
        else:
            walls.append(wall)
            rates.append(sessions / wall)
        with ctx.guard(f"pass {done} outputs"):
            fingerprint = wl.fingerprint(k)
            if k not in fingerprints:
                fingerprints[k] = fingerprint
                wl.check(k)
            else:
                ctx.expect(fingerprint == fingerprints[k],
                           f"pass {done} output differs from the first pass on input {k}")
        done += 1

    quality = {}
    with ctx.guard("held-out quality"):
        quality = wl.quality()
    failed = len(ctx.failures)
    if args.trace:
        metrics = layer_metrics(setup_folds, folds, walls, traced_walls, ctx.failed_stages)
        record["self_time_share"] = self_shares(folds, traced_walls)
        record["absent"] = tracer.absent
        record["count_errors"] = dict(tracer.count_errors)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "sessions_per_s": (statistics.median(rates), "sessions/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        for name in ("maa_s1", "maa_s9", "fpa_s9", "val_auc"):
            metrics[name] = (quality.get(name), "ratio")
    record.update({
        "setup_s": setup_times,
        "walls": walls,
        "traced_walls": traced_walls,
        "quality": quality,
        "fingerprints": {str(k): v for k, v in fingerprints.items()},
        "attempted": ctx.attempted,
        "failed": failed,
        "error_rate": failed / max(ctx.attempted, 1),
        "failures": ctx.failures[:20],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    })
    (run_dir / "record.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(wl.dir, ignore_errors=True)
    return record


def report(record) -> None:
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{len(record['walls']) + len(record['traced_walls'])} passes, "
          f"{len(record['setup_s'])} set-ups")
    for failure in record["failures"]:
        print(f"FAILED: {failure}")
    rows = dict(record["metrics"])
    rows["error_rate"] = {"value": record["error_rate"], "unit": "ratio"}
    if not record["trace"]:
        for name, value in record["quality"].items():
            rows.setdefault(name, {"value": value, "unit": "ratio"})
    for name, m in rows.items():
        label = "  (held-out)" if name in record["quality"] else ""
        print(f"  {name:<28} {m['value']!s:>24} {m['unit']}{label}")
    for name, share in record.get("self_time_share", {}).items():
        print(f"  self-time share {name:<26} {share:8.4f}")
    digests = json.dumps(record["fingerprints"], sort_keys=True).encode()
    print(f"  output fingerprint {hashlib.sha256(digests).hexdigest()}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "skipcast" / "__init__.py").is_file():
        print(f"bench: no skipcast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import skipcast

    if Path(skipcast.__file__).resolve().parent != ROOT / "src" / "skipcast":
        print(f"bench: imported skipcast from {skipcast.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    record = run(args)
    report(record)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
