"""Command-line pipeline driver.

Stages communicate only through files in the work directory, so any stage
can be rerun in isolation and a finished run can be inspected file by file:

    tracks.csv, sessions.csv      synth
    features.csv                  extract
    grid_report.csv               tune
    bank/model_NN.json, manifest  train
    submission_solution_NN.txt    predict (+ scores_solution_NN.csv)
    report.csv, report.txt        evaluate

Exit codes: 0 success, 1 usage or configuration error, 2 data error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import RunConfig, load_config
from .datamodel import (
    parse_session_log,
    parse_track_features,
    split_session,
    write_session_csv,
    write_track_csv,
)
from .ensemble import predict_session, write_scores, write_submission
from .errors import (
    ConfigError,
    DegenerateSampleError,
    IntegrityError,
    SkipcastError,
    StageError,
)
from .evaluation import format_report_text, solutions_report, write_report_csv
from .features import FeatureTable, assemble_corpus
from .modelbank import (
    GridReport,
    ModelBank,
    grid_search,
    sample_sessions,
    train_bank,
)
from .synthetic import corpus_summary, generate_synthetic_dataset


def _require(path: Path, stage: str) -> Path:
    if not path.exists():
        raise StageError(f"missing artifact {path}; run the {stage} stage first")
    return path


def _load_corpus(cfg: RunConfig):
    tracks_path = _require(cfg.tracks_path(), "synth")
    sessions_path = _require(cfg.sessions_path(), "synth")
    with open(tracks_path, encoding="utf-8") as fh:
        track_map = parse_track_features(fh)
    with open(sessions_path, encoding="utf-8") as fh:
        sessions = parse_session_log(fh, track_map)
    if not sessions:
        raise DegenerateSampleError(f"session log {sessions_path} holds no sessions")
    return track_map, sessions


def _read_features(cfg: RunConfig) -> FeatureTable:
    path = _require(cfg.workdir / "features.csv", "extract")
    with open(path, encoding="utf-8") as fh:
        return FeatureTable.read_csv(fh)


def _submission_name(solution: int) -> str:
    return f"submission_solution_{solution:02d}.txt"


def cmd_synth(cfg: RunConfig) -> None:
    track_map, sessions = generate_synthetic_dataset(cfg.synth, cfg.seed)
    with open(cfg.tracks_path(), "w", encoding="utf-8") as fh:
        write_track_csv(track_map, fh)
    with open(cfg.sessions_path(), "w", encoding="utf-8") as fh:
        write_session_csv(sessions, fh)
    summary = corpus_summary(sessions)
    print(
        f"synth: sessions={summary['sessions']} rows={summary['rows']} "
        f"skip2_prevalence={summary['skip_2_prevalence']:.4f}"
    )


def cmd_extract(cfg: RunConfig) -> None:
    track_map, sessions = _load_corpus(cfg)
    table = assemble_corpus(sessions, track_map)
    with open(cfg.workdir / "features.csv", "w", encoding="utf-8") as fh:
        table.write_csv(fh)
    print(f"extract: {len(table)} examples from {len(sessions)} sessions")


def cmd_tune(cfg: RunConfig) -> None:
    table = _read_features(cfg)
    if cfg.sample < 1.0:
        table = sample_sessions(table, cfg.sample, cfg.seed)
    report = grid_search(table, cfg.seed, num_boost_round=cfg.tune_rounds)
    with open(cfg.workdir / "grid_report.csv", "w", encoding="utf-8") as fh:
        report.write_csv(fh)
    best = report.rows[report.best_index]
    print(
        f"tune: best eta={best.eta} max_depth={best.max_depth} "
        f"colsample={best.colsample} subsample={best.subsample} "
        f"val_auc={best.val_auc:.4f}"
    )


def cmd_train(cfg: RunConfig) -> None:
    table = _read_features(cfg)
    params = cfg.params
    grid_path = cfg.workdir / "grid_report.csv"
    if grid_path.exists():
        with open(grid_path, encoding="utf-8") as fh:
            grid = GridReport.read_csv(fh)
        params = replace(params, **grid.best_params)
        print(f"train: applying tuned parameters from {grid_path.name}")
    bank = train_bank(table, params, cfg.seed)
    bank.save(cfg.workdir / "bank")
    note = ""
    if bank.fallback_positions:
        note = f" (constant fallbacks at positions {list(bank.fallback_positions)})"
    print(f"train: 10 position models in {cfg.workdir / 'bank'}{note}")


def cmd_predict(cfg: RunConfig) -> None:
    _require(cfg.workdir / "bank" / "manifest.json", "train")
    bank = ModelBank.load(cfg.workdir / "bank")
    track_map, sessions = _load_corpus(cfg)
    # assemble_corpus emits each session's target rows contiguously, in order
    matrix = bank.predict_matrix(assemble_corpus(sessions, track_map).x)
    scored, start = [], 0
    for s in sessions:
        split = split_session(s)
        stop = start + len(split.targets)
        s0 = float(split.history[-1].skip_2)
        scored.append((s.session_id, matrix[start:stop], s0))
        start = stop
    for solution in cfg.solutions:
        predictions = [
            predict_session(sid, rows, s0, solution, cfg.weights)
            for sid, rows, s0 in scored
        ]
        with open(cfg.workdir / _submission_name(solution), "w", encoding="utf-8") as fh:
            write_submission(predictions, fh)
        scores_name = f"scores_solution_{solution:02d}.csv"
        with open(cfg.workdir / scores_name, "w", encoding="utf-8") as fh:
            write_scores(predictions, fh)
    print(
        f"predict: {len(sessions)} sessions, solutions "
        f"{','.join(str(s) for s in cfg.solutions)}"
    )


def _load_submission(path: Path, solution: int) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line:
            continue
        sid, _, bits = line.partition(" ")
        if not bits or set(bits) - {"0", "1"}:
            raise IntegrityError(
                f"{path}: malformed decision string for session {sid!r}"
            )
        out[sid] = np.array([c == "1" for c in bits], dtype=bool)
    if not out:
        raise IntegrityError(f"{path}: submission for solution {solution} is empty")
    return out


def cmd_evaluate(cfg: RunConfig) -> None:
    _track_map, sessions = _load_corpus(cfg)
    submissions = {}
    for solution in cfg.solutions:
        path = _require(cfg.workdir / _submission_name(solution), "predict")
        submissions[solution] = _load_submission(path, solution)

    def replay(session, solution):
        decisions = submissions[solution].get(session.session_id)
        if decisions is None:
            raise IntegrityError(
                f"solution {solution}: no stored decisions for session "
                f"{session.session_id!r}; re-run the predict stage"
            )
        return decisions

    rows = solutions_report(sessions, replay, cfg.solutions)
    with open(cfg.workdir / "report.csv", "w", encoding="utf-8") as fh:
        write_report_csv(rows, fh)
    text = format_report_text(rows)
    (cfg.workdir / "report.txt").write_text(text, encoding="utf-8")
    print(text, end="")


_STAGES = [
    ("synth", cmd_synth, "generate a synthetic listening corpus"),
    ("extract", cmd_extract, "build the 63-column feature matrix"),
    ("tune", cmd_tune, "sweep the hyperparameter grid on a session split"),
    ("train", cmd_train, "fit the 10 position models"),
    ("predict", cmd_predict, "score sessions and write submissions"),
    ("evaluate", cmd_evaluate, "score submissions against ground truth"),
]


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key=value config file")
    common.add_argument("--seed", metavar="INT", help="master random seed")
    common.add_argument("--workdir", metavar="PATH", help="artifact directory")
    common.add_argument(
        "--solutions", metavar="LIST", help="comma-separated solution ids, or 'all'"
    )
    common.add_argument(
        "--sample", metavar="FLOAT", help="fraction of sessions used by tune"
    )
    parser = _Parser(
        prog="skipcast",
        description="train and evaluate sequential skip predictors on session logs",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, _fn, help_text in _STAGES:
        sub.add_parser(name, parents=[common], help=help_text)
    sub.add_parser("run-all", parents=[common], help="run every stage in order")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    overrides = {
        "seed": args.seed,
        "workdir": args.workdir,
        "solutions": args.solutions,
        "sample": args.sample,
    }
    try:
        cfg = load_config(args.config, overrides)
        cfg.workdir.mkdir(parents=True, exist_ok=True)
        if args.command == "run-all":
            stages = [fn for _name, fn, _help in _STAGES]
        else:
            stages = [fn for name, fn, _help in _STAGES if name == args.command]
        for stage in stages:
            stage(cfg)
    except ConfigError as exc:
        print(f"skipcast: {exc}", file=sys.stderr)
        return 1
    except SkipcastError as exc:
        print(f"skipcast: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"skipcast: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
