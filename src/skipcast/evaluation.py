"""Sequence-aware accuracy metrics and the solution comparison report.

Average Accuracy rewards getting early predictions right: with L(i) the
indicator that prediction i is correct and A(i) the running accuracy over
the first i predictions,

    AA = (1/n) * sum_i A(i) * L(i)

Sessions aggregate by unweighted mean (MAA); first-prediction accuracy
(FPA) breaks exact MAA ties when ranking solutions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import IO, Callable, Iterable, Sequence

import numpy as np

from .datamodel import Session, split_session
from .errors import DimensionError

Predictor = Callable[[Session, int], np.ndarray]


@dataclass(frozen=True)
class CorpusScore:
    maa: float
    fpa: float
    n_sessions: int


def average_accuracy(decisions: Sequence[bool], truth: Sequence[bool]) -> float:
    decisions = np.asarray(decisions, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    if decisions.shape != truth.shape or decisions.ndim != 1:
        raise DimensionError(
            f"decisions shape {decisions.shape} != truth shape {truth.shape}"
        )
    n = decisions.size
    if n == 0:
        raise ValueError("average accuracy is undefined for zero predictions")
    total = 0.0
    correct = 0
    for i in range(n):
        if decisions[i] == truth[i]:
            correct += 1
            total += correct / (i + 1)
    return total / n


def first_prediction_correct(
    decisions: Sequence[bool], truth: Sequence[bool]
) -> bool:
    return bool(np.asarray(decisions, dtype=bool)[0] == np.asarray(truth, dtype=bool)[0])


def corpus_scores(
    pairs: Iterable[tuple[Sequence[bool], Sequence[bool]]]
) -> CorpusScore:
    """MAA and FPA over (decisions, truth) pairs, one pair per session."""
    aa_values = []
    first_flags = []
    for decisions, truth in pairs:
        aa_values.append(average_accuracy(decisions, truth))
        first_flags.append(first_prediction_correct(decisions, truth))
    if not aa_values:
        raise ValueError("corpus scores need at least one session")
    return CorpusScore(
        maa=float(np.mean(aa_values)),
        fpa=float(np.mean(first_flags)),
        n_sessions=len(aa_values),
    )


def compare(lhs: CorpusScore, rhs: CorpusScore) -> int:
    """1 when lhs ranks first, -1 when rhs does, 0 on a full tie.

    Higher MAA wins; an exact MAA tie falls back to higher FPA.
    """
    if lhs.maa != rhs.maa:
        return 1 if lhs.maa > rhs.maa else -1
    if lhs.fpa != rhs.fpa:
        return 1 if lhs.fpa > rhs.fpa else -1
    return 0


@dataclass(frozen=True)
class SolutionRow:
    solution: int
    maa: float
    fpa: float


def session_truth(session: Session) -> np.ndarray:
    return np.array([r.skip_2 for r in split_session(session).targets], dtype=bool)


def solutions_report(
    sessions: Sequence[Session],
    predictor: Predictor,
    solutions: Sequence[int],
) -> list[SolutionRow]:
    """Score every requested solution; rows come back ranked worst first.

    The order is `compare` ascending: MAA, then FPA on an exact MAA tie;
    full ties keep the requested order.

    `predictor(session, solution)` returns that solution's boolean decisions
    for the session's target tracks; injecting a different predictor (for
    instance one replaying stored submissions) keeps scoring decoupled from
    model execution.
    """
    rows = []
    for solution in solutions:
        pairs = [
            (np.asarray(predictor(s, solution), dtype=bool), session_truth(s))
            for s in sessions
        ]
        corpus = corpus_scores(pairs)
        rows.append(SolutionRow(solution=solution, maa=corpus.maa, fpa=corpus.fpa))
    rows.sort(key=functools.cmp_to_key(compare))
    return rows


def write_report_csv(rows: Sequence[SolutionRow], stream: IO[str]) -> None:
    stream.write("solution,maa,first_prediction_accuracy\n")
    for row in rows:
        stream.write(f"{row.solution},{repr(float(row.maa))},{repr(float(row.fpa))}\n")


def format_report_text(rows: Sequence[SolutionRow]) -> str:
    lines = [f"{'Solution':<12}{'MAA':>8}{'FPA':>8}"]
    for row in rows:
        lines.append(f"{'Solution ' + str(row.solution):<12}{row.maa:>8.4f}{row.fpa:>8.4f}")
    return "\n".join(lines) + "\n"
