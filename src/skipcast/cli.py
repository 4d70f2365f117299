"""Command-line pipeline driver.

Stages communicate only through files in the work directory, so any stage
can be rerun in isolation and a finished run can be inspected file by file:

    tracks.csv, sessions.csv      synth
    features.csv                  extract (an export: no stage reads it,
                                  and run-all skips it)
    grid_report.csv               tune
    bank/model_NN.json, manifest  train
    submission_solution_NN.txt    predict (+ scores_solution_NN.csv)
    report.csv, report.txt        evaluate

Exit codes: 0 success, 1 usage or configuration error, 2 data error. Data
files are read through `_read`: `skipcast: <path> line <n>: <message>`.
"""

from __future__ import annotations

import argparse
import functools
import io
import sys
from dataclasses import replace
from pathlib import Path
from typing import IO

import numpy as np

from .config import RunConfig, load_config
from .datamodel import (
    parse_session_log,
    parse_track_features,
    write_session_csv,
    write_track_csv,
)
from .ensemble import (
    CorpusPrediction,
    combine_corpus,
    write_scores,
    write_submission,
)
from .errors import (
    ConfigError,
    IntegrityError,
    RowParseError,
    SkipcastError,
    StageError,
)
from .evaluation import format_report_text, solutions_report, write_report_csv
from .features import assemble_corpus
from .modelbank import (
    MANIFEST_NAME,
    GridReport,
    ModelBank,
    grid_search,
    sample_sessions,
    train_bank,
)
from .synthetic import generate_synthetic_dataset


def _require(path: Path, stage: str) -> Path:
    if not path.exists():
        raise StageError(f"missing artifact {path}; run the {stage} stage first")
    return path


def _read(path: Path, parse, *args):
    """`parse(stream, *args)` on the UTF-8 text of the data file at `path`.

    The one place a data error gets its location: a SkipcastError leaves
    with `<path> line <n>: `, or `<path>: ` if it has no line, before it.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh, *args)
    except UnicodeDecodeError:
        data = path.read_bytes()
        error = SkipcastError("not UTF-8 text")  # unless the file changed since
        try:
            data.decode("utf-8")  # whole this time, for the line of the byte
        except UnicodeDecodeError as exc:
            error = RowParseError(
                f"byte 0x{data[exc.start]:02x} is not UTF-8 text ({exc.reason})",
                data.count(b"\n", 0, exc.start) + 1,
            )
    except SkipcastError as exc:
        error = exc
    where = path if error.line_num is None else f"{path} line {error.line_num}"
    error.args = (f"{where}: {error}",)
    raise error


def _load_sessions(cfg: RunConfig):
    return _read(_require(cfg.sessions_path(), "synth"), parse_session_log)


def _load_corpus(cfg: RunConfig):
    """The session log, and its feature table: the one place that extract,
    tune, train and predict build features, from the log and the tracks."""
    tracks = _read(_require(cfg.tracks_path(), "synth"), parse_track_features)
    log = _load_sessions(cfg)
    return log, assemble_corpus(log, tracks)


def _submission_name(solution: int) -> str:
    return f"submission_solution_{solution:02d}.txt"


def cmd_synth(cfg: RunConfig) -> None:
    tracks, sessions = generate_synthetic_dataset(cfg.synth, cfg.seed)
    with open(cfg.tracks_path(), "w", encoding="utf-8") as fh:
        write_track_csv(tracks, fh)
    with open(cfg.sessions_path(), "w", encoding="utf-8") as fh:
        write_session_csv(sessions, fh)
    rows = sum(s.length for s in sessions)  # >= 1: a session has 2 rows at least
    skips = sum(r.skip_2 for s in sessions for r in s.rows)
    print(f"synth: sessions={len(sessions)} rows={rows} skip2_prevalence={skips / rows:.4f}")


def cmd_extract(cfg: RunConfig) -> None:
    log, table = _load_corpus(cfg)
    with open(cfg.workdir / "features.csv", "w", encoding="utf-8") as fh:
        table.write_csv(fh)
    print(f"extract: {len(table)} examples from {len(log)} sessions")


def cmd_tune(cfg: RunConfig) -> None:
    _, table = _load_corpus(cfg)
    if cfg.sample < 1.0:
        table = sample_sessions(table, cfg.sample, cfg.seed)
    report = grid_search(table, cfg.seed, num_boost_round=cfg.tune_rounds)
    with open(cfg.workdir / "grid_report.csv", "w", encoding="utf-8") as fh:
        report.write_csv(fh)
    best = report.rows[report.best_index]
    tuned = " ".join(f"{name}={value}" for name, value in best.params.items())
    print(f"tune: best {tuned} val_auc={best.val_auc:.4f}")


def cmd_train(cfg: RunConfig) -> None:
    _, table = _load_corpus(cfg)
    params = cfg.params
    grid_path = cfg.workdir / "grid_report.csv"
    if grid_path.exists():
        params = replace(params, **_read(grid_path, GridReport.read_csv).best_params)
        print(f"train: applying tuned parameters from {grid_path.name}")
    bank = train_bank(table, params, cfg.seed)
    bank.save(cfg.workdir / "bank")
    note = ""
    if bank.fallback_positions:
        note = f" (constant fallbacks at positions {list(bank.fallback_positions)})"
    print(f"train: 10 position models in {cfg.workdir / 'bank'}{note}")


def cmd_predict(cfg: RunConfig) -> None:
    _require(cfg.workdir / "bank" / MANIFEST_NAME, "train")
    bank = ModelBank.load(cfg.workdir / "bank")
    log, table = _load_corpus(cfg)
    # assemble_corpus emits each session's target rows contiguously, in order
    matrix = bank.predict_matrix(table.x)
    n_history, counts, _ = log.split()
    s0 = log.column("skip_2")[log.starts[:-1] + n_history - 1]  # the last history row's
    for solution in cfg.solutions:
        scores = combine_corpus(solution, matrix, counts, s0)
        prediction = CorpusPrediction(log.session_ids, counts, scores)
        with open(cfg.workdir / _submission_name(solution), "w", encoding="utf-8") as fh:
            write_submission(prediction, fh)
        scores_name = f"scores_solution_{solution:02d}.csv"
        with open(cfg.workdir / scores_name, "w", encoding="utf-8") as fh:
            write_scores(prediction, fh)
    print(
        f"predict: {len(log)} sessions, solutions "
        f"{','.join(str(s) for s in cfg.solutions)}"
    )


def _submission_template(ids: list[str], counts: np.ndarray):
    """What `write_submission` writes for these sessions with every decision
    0, as UTF-8 bytes, and each decision's offset: where the file with every
    decision 1 differs. None when an id holds a newline, which splits a line."""
    if "\n" in "".join(ids):
        return None
    files = []
    for score in (0.0, 1.0):
        out = io.StringIO()
        write_submission(CorpusPrediction(ids, counts, np.full(counts.sum(), score)), out)
        files.append(np.frombuffer(out.getvalue().encode("utf-8"), dtype=np.uint8))
    return files[0], np.flatnonzero(files[0] != files[1])


def _parse_submission(stream: IO[str], ids: list[str], counts: np.ndarray, template) -> np.ndarray:
    """A submission's decisions, stacked in session-log order.

    A file of exactly the bytes `write_submission` writes for the log is
    checked whole against `template`, `_submission_template`'s result; any
    other is read line by line, which reports its first bad line.
    """
    text = stream.read()
    if template is not None:
        zeros, at = template
        data = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
        if data.size == zeros.size:
            bits = data[at]
            ones = bits == ord("1")
            # every decision is 0 or 1, and only its 1s differ from the template
            if ((bits | 1) == ord("1")).all() and (
                np.count_nonzero(data != zeros) == np.count_nonzero(ones)
            ):
                return ones
    return _submission_lines(text, ids, counts.tolist())


def _submission_lines(text: str, ids: list[str], counts: list[int]) -> np.ndarray:
    """The line reader of `_parse_submission`: checks each line in turn.

    A line is a session id, a space, then the decisions; the id is
    everything before the last space, since decisions hold none.
    """
    index = {sid: k for k, sid in enumerate(ids)}
    out: list[np.ndarray | None] = [None] * len(ids)
    # a line ends at "\n" alone, as `write_submission` ends it
    for number, line in enumerate(text.split("\n"), start=1):
        if not line:
            continue
        sid, bits = line.rsplit(" ", 1) if " " in line else (line, "")
        where = f"session {sid!r}"
        if not bits or set(bits) - {"0", "1"}:
            raise IntegrityError(f"{where}: malformed decision string", number)
        if sid not in index:
            raise IntegrityError(f"{where}: not in the session log", number)
        k = index[sid]
        if out[k] is not None:
            raise IntegrityError(f"{where}: appears a second time", number)
        if len(bits) != counts[k]:
            raise IntegrityError(
                f"{where}: {len(bits)} decisions for {counts[k]} targets", number
            )
        out[k] = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) == ord("1")
    for sid, k in index.items():
        if out[k] is None:
            raise IntegrityError(
                f"no stored decisions for session {sid!r}; re-run the predict stage"
            )
    return np.concatenate(out)


def cmd_evaluate(cfg: RunConfig) -> None:
    log = _load_sessions(cfg)
    _, counts, target = log.split()
    truth = log.column("skip_2")[target] == 1
    template = _submission_template(log.session_ids, counts)
    decisions = []
    for solution in cfg.solutions:
        path = _require(cfg.workdir / _submission_name(solution), "predict")
        decisions.append(_read(path, _parse_submission, log.session_ids, counts, template))
    rows = solutions_report(counts, truth, decisions, cfg.solutions)
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


@functools.cache  # building it costs about 30 parses; main parses once a stage
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
    sub.add_parser("run-all", parents=[common], help="run every stage but extract, in order")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    # every flag but these two is a config key
    overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    try:
        cfg = load_config(args.config, overrides)
        cfg.workdir.mkdir(parents=True, exist_ok=True)
        if args.command == "run-all":  # every stage but extract, whose export no stage reads
            stages = [fn for name, fn, _help in _STAGES if name != "extract"]
        else:
            stages = [fn for name, fn, _help in _STAGES if name == args.command]
        for stage in stages:
            stage(cfg)
    except ConfigError as exc:
        print(f"skipcast: {exc}", file=sys.stderr)
        return 1
    except (SkipcastError, OSError) as exc:
        print(f"skipcast: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
