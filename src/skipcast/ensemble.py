"""Twelve strategies for combining position-model scores into skip decisions.

Each strategy maps an (n, 10) probability matrix M (row i = target track i
scored by all ten position models, both 1-indexed here) and the last known
user action s0 to continuous scores S(t_i) in [0, 1], which binarize at 0.5.

Strategies 2/4/6/7/8/9/10/11/12 blend in the hard last action (1 if the
final history track was skipped, else 0); strategies 3 and 5 soften it to
0.6/0.4. Strategies 8 and 11 are sequential: each score feeds the next
through the continuous previous score, never the binarized decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .datamodel import MAX_TARGET_POSITIONS
from .errors import DimensionError, DomainError

SOLUTION_IDS = tuple(range(1, 13))
SOFT_SOLUTIONS = frozenset({3, 5})


@dataclass(frozen=True)
class EnsembleWeights:
    """Tunable constants for the distance-weighted strategies 9, 10 and 12."""

    linear_offset: float = 11.0
    alpha_scale: float = 0.5
    fixed_prior: float = 0.2
    exp_base: float = 2.0


DEFAULT_WEIGHTS = EnsembleWeights()


@dataclass(eq=False)
class SessionPrediction:
    session_id: str
    s0: float
    scores: np.ndarray
    decisions: np.ndarray


def soften(s0_hard: float) -> float:
    return 0.6 if s0_hard >= 0.5 else 0.4


def linear_weights(i: int, weights: EnsembleWeights = DEFAULT_WEIGHTS) -> np.ndarray:
    """Model weights for target position i, decaying linearly with distance."""
    j = np.arange(1, MAX_TARGET_POSITIONS + 1, dtype=np.float64)
    raw = weights.linear_offset - np.abs(i - j)
    return raw / raw.sum()


def exponential_weights(
    i: int, weights: EnsembleWeights = DEFAULT_WEIGHTS
) -> np.ndarray:
    j = np.arange(1, MAX_TARGET_POSITIONS + 1, dtype=np.float64)
    raw = weights.exp_base ** (-np.abs(i - j))
    return raw / raw.sum()


def _check_matrix(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != MAX_TARGET_POSITIONS:
        raise DimensionError(
            f"model matrix must be (n, {MAX_TARGET_POSITIONS}), got {matrix.shape}"
        )
    if not 1 <= matrix.shape[0] <= MAX_TARGET_POSITIONS:
        raise DimensionError(
            f"a session has 1..{MAX_TARGET_POSITIONS} targets, got {matrix.shape[0]}"
        )
    return matrix


def combine(
    solution: int,
    matrix: np.ndarray,
    s0_hard: float,
    weights: EnsembleWeights = DEFAULT_WEIGHTS,
) -> np.ndarray:
    """Continuous scores for one session under the given strategy.

    `s0_hard` is the hard last action in {0, 1}; strategies 3 and 5 soften
    it internally. The result is clipped to [0, 1], though every formula is
    already a convex combination of values in that range.
    """
    if solution not in SOLUTION_IDS:
        raise DomainError(f"solution id must be in 1..12, got {solution}")
    matrix = _check_matrix(matrix)
    n = matrix.shape[0]
    s0 = soften(s0_hard) if solution in SOFT_SOLUTIONS else float(s0_hard)
    diag = np.array([matrix[i - 1, i - 1] for i in range(1, n + 1)])

    if solution == 1:
        scores = diag
    elif solution in (2, 3):
        scores = 0.5 * diag + 0.5 * s0
    elif solution in (4, 5):
        q = np.array([matrix[i - 1, :i].mean() for i in range(1, n + 1)])
        scores = 0.5 * q + 0.5 * s0
    elif solution in (6, 7):
        q = matrix[:, :5].mean(axis=1)
        w = matrix[:, 5:].mean(axis=1)
        early = 0.4 * s0 + 0.4 * q + 0.2 * w
        if solution == 6:
            late = 0.2 * s0 + 0.5 * q + 0.3 * w
        else:
            late = 0.4 * s0 + 0.3 * q + 0.3 * w
        i = np.arange(1, n + 1)
        scores = np.where(i <= 5, early, late)
    elif solution in (8, 11):
        row_mean = matrix[:, :n].mean(axis=1)
        mix = 0.5 if solution == 8 else 0.4
        scores = np.empty(n)
        prev = s0
        for i in range(n):
            prev = (1.0 - mix) * row_mean[i] + mix * prev
            scores[i] = prev
    elif solution in (9, 10, 12):
        kernel = exponential_weights if solution == 12 else linear_weights
        scores = np.empty(n)
        for i in range(1, n + 1):
            w = kernel(i, weights)
            blended = float(w @ matrix[i - 1])
            if solution == 10:
                alpha = weights.fixed_prior
            else:
                alpha = weights.alpha_scale * (MAX_TARGET_POSITIONS + 1 - i) / 10.0
            scores[i - 1] = alpha * s0 + (1.0 - alpha) * blended
    else:  # pragma: no cover - SOLUTION_IDS is exhaustive
        raise DomainError(f"solution id must be in 1..12, got {solution}")
    return np.clip(scores, 0.0, 1.0)


def binarize(scores: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Decisions from scores; a score exactly at the threshold predicts skip."""
    return np.asarray(scores, dtype=np.float64) >= threshold


def predict_session(
    session_id: str,
    matrix: np.ndarray,
    s0_hard: float,
    solution: int,
    weights: EnsembleWeights = DEFAULT_WEIGHTS,
) -> SessionPrediction:
    scores = combine(solution, matrix, s0_hard, weights)
    return SessionPrediction(
        session_id=session_id,
        s0=float(s0_hard),
        scores=scores,
        decisions=binarize(scores),
    )


def write_submission(predictions: Sequence[SessionPrediction], stream) -> None:
    """One line per session: the id, a space, then the 0/1 decision string."""
    for pred in predictions:
        bits = "".join("1" if d else "0" for d in pred.decisions)
        stream.write(f"{pred.session_id} {bits}\n")


def write_scores(predictions: Sequence[SessionPrediction], stream) -> None:
    stream.write("session_id,target_position,score,decision\n")
    for pred in predictions:
        for i, (score, decision) in enumerate(zip(pred.scores, pred.decisions), start=1):
            stream.write(
                f"{pred.session_id},{i},{repr(float(score))},{int(decision)}\n"
            )
