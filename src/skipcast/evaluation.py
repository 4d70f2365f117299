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
from typing import IO, Iterable, Sequence

import numpy as np

from .datamodel import stacked
from .errors import DimensionError


@dataclass(frozen=True)
class CorpusScore:
    maa: float
    fpa: float
    n_sessions: int


def _average_accuracies(hits: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """AA of every session from the stacked hit flags of all sessions' slots.

    Slot i of a session adds correct / (i + 1) to its total when it is a
    hit, `correct` being the session's hits so far, and 0.0 when it is not.
    A row-wise cumulative sum over a (sessions, slots) table adds these
    terms in slot order, as the metric's loop does, so every AA is the
    loop's bit for bit; a plain sum would add them pairwise and differ.
    """
    starts, session, slot = stacked(counts)
    seen = np.cumsum(hits)
    correct = seen - (seen[starts] - hits[starts])[session]
    table = np.zeros((counts.size, counts.max()))
    table[session, slot] = np.where(hits, correct / (slot + 1), 0.0)
    return np.cumsum(table, axis=1)[:, -1] / counts


def _corpus_score(hits: np.ndarray, counts: np.ndarray) -> CorpusScore:
    """MAA and FPA from the stacked hit flags of sessions of `counts` slots."""
    return CorpusScore(
        maa=float(np.mean(_average_accuracies(hits, counts))),
        fpa=float(np.mean(hits[stacked(counts)[0]])),
        n_sessions=counts.size,
    )


def corpus_scores(
    pairs: Iterable[tuple[Sequence[bool], Sequence[bool]]]
) -> CorpusScore:
    """MAA and FPA over (decisions, truth) pairs, one pair per session."""
    decisions, truths = [], []
    for d, t in pairs:
        d, t = np.asarray(d, dtype=bool), np.asarray(t, dtype=bool)
        if d.shape != t.shape or d.ndim != 1:
            raise DimensionError(f"decisions shape {d.shape} != truth shape {t.shape}")
        if d.size == 0:
            raise ValueError("average accuracy is undefined for zero predictions")
        decisions.append(d)
        truths.append(t)
    if not truths:
        raise ValueError("corpus scores need at least one session")
    counts = np.array([t.size for t in truths])
    return _corpus_score(np.concatenate(decisions) == np.concatenate(truths), counts)


def average_accuracy(decisions: Sequence[bool], truth: Sequence[bool]) -> float:
    return corpus_scores([(decisions, truth)]).maa


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


def solutions_report(
    counts: np.ndarray,
    truth: np.ndarray,
    decisions: Sequence[np.ndarray],
    solutions: Sequence[int],
) -> list[SolutionRow]:
    """Score every requested solution; rows come back ranked worst first.

    Session i has `counts[i]` target slots. `truth` stacks the sessions'
    ground truth in session order, and `decisions[k]` stacks the boolean
    decisions of solution `solutions[k]` the same way.

    The order is `compare` ascending: MAA, then FPA on an exact MAA tie;
    full ties keep the requested order.
    """
    counts, truth = np.asarray(counts), np.asarray(truth, dtype=bool)
    if truth.shape != (counts.sum(),):
        raise DimensionError(f"truth shape {truth.shape} for {counts.sum()} slots")
    rows = []
    for solution, stored in zip(solutions, decisions, strict=True):
        stored = np.asarray(stored, dtype=bool)
        if stored.shape != truth.shape:
            raise DimensionError(
                f"decisions shape {stored.shape} != truth shape {truth.shape}"
            )
        corpus = _corpus_score(stored == truth, counts)
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
