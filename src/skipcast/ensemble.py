"""Twelve strategies for combining position-model scores into skip decisions.

Each strategy maps an (n, 10) probability matrix M (row i = target track i
scored by all ten position models, both 1-indexed here) and the last known
user action s0 to continuous scores S(t_i) in [0, 1], which binarize at 0.5.

Strategies 2/4/6/7/8/9/10/11/12 blend in the hard last action (1 if the
final history track was skipped, else 0); strategies 3 and 5 soften it to
0.6/0.4. Strategies 8 and 11 are sequential: each score feeds the next
through the continuous previous score, never the binarized decision.

`combine_corpus` scores a whole corpus at once from its stacked matrix;
`combine` is the same call for one session.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .datamodel import MAX_TARGET_POSITIONS, csv_cell, stacked
from .errors import ConfigError, DimensionError, DomainError

SOLUTION_IDS = tuple(range(1, 13))
SOFT_SOLUTIONS = frozenset({3, 5})
#: the least exp_base whose weight at distance 9, exp_base ** -9, is a finite float
MIN_EXP_BASE = 5.616633020792315e-35


@dataclass(frozen=True)
class EnsembleWeights:
    """Tunable constants for the distance-weighted strategies 9, 10 and 12."""

    linear_offset: float = 11.0
    alpha_scale: float = 0.5
    fixed_prior: float = 0.2
    exp_base: float = 2.0

    def __post_init__(self) -> None:
        # the bounds under which strategies 9, 10 and 12 blend convexly
        if not 9.0 <= self.linear_offset < math.inf:
            raise ConfigError(f"linear_offset must be finite and >= 9, got {self.linear_offset}")
        if not 0.0 <= self.alpha_scale <= 1.0:
            raise ConfigError(f"alpha_scale must be in [0, 1], got {self.alpha_scale}")
        if not 0.0 <= self.fixed_prior <= 1.0:
            raise ConfigError(f"fixed_prior must be in [0, 1], got {self.fixed_prior}")
        if not 0.0 < self.exp_base < math.inf:
            raise ConfigError(f"exp_base must be finite and > 0, got {self.exp_base}")
        if self.exp_base < MIN_EXP_BASE:
            raise ConfigError(
                f"exp_base must be >= {MIN_EXP_BASE!r} (exp_base ** -9 is not "
                f"finite below), got {self.exp_base}"
            )


DEFAULT_WEIGHTS = EnsembleWeights()


@dataclass(frozen=True, eq=False)
class CorpusPrediction:
    """One strategy's scores for a corpus, sessions in order.

    `scores` stacks the sessions' target rows; session k owns `counts[k]`
    consecutive rows.
    """

    session_ids: Sequence[str]
    counts: np.ndarray
    scores: np.ndarray

    @property
    def decisions(self) -> np.ndarray:
        return binarize(self.scores)


def soften(s0_hard):
    """0.6 for a skipped last track, else 0.4; elementwise on arrays."""
    return np.where(np.asarray(s0_hard) >= 0.5, 0.6, 0.4)


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


def combine_corpus(
    solution: int,
    matrix: np.ndarray,
    counts: Sequence[int],
    s0_hard: Sequence[float],
    weights: EnsembleWeights = DEFAULT_WEIGHTS,
) -> np.ndarray:
    """Continuous scores of every target row of a corpus under one strategy.

    `matrix` stacks the sessions' (count, 10) blocks in session order;
    session k has `counts[k]` targets and the hard last action
    `s0_hard[k]` in {0, 1}, which strategies 3 and 5 soften. Every strategy
    runs as array operations over all rows. Each row's sums run in the
    order and shape they would for its session alone: row means reduce
    C-contiguous rows, and the kernel blends are per-row dot products, so
    the scores do not depend on how sessions are grouped. The result is
    clipped to [0, 1], though every formula is already a convex
    combination of values in that range.
    """
    if solution not in SOLUTION_IDS:
        raise DomainError(f"solution id must be in 1..12, got {solution}")
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != MAX_TARGET_POSITIONS:
        raise DimensionError(
            f"model matrix must be (n, {MAX_TARGET_POSITIONS}), got {matrix.shape}"
        )
    counts = np.asarray(counts, dtype=np.intp)
    bad = (counts < 1) | (counts > MAX_TARGET_POSITIONS)
    if bad.any():
        raise DimensionError(
            f"a session has 1..{MAX_TARGET_POSITIONS} targets, got {counts[bad][0]}"
        )
    if counts.sum() != matrix.shape[0]:
        raise DimensionError(
            f"sessions hold {counts.sum()} targets, model matrix has "
            f"{matrix.shape[0]} rows"
        )
    s0 = np.asarray(s0_hard, dtype=np.float64)
    if s0.shape != counts.shape:
        raise DimensionError(f"{s0.size} last actions for {counts.size} sessions")
    if solution in SOFT_SOLUTIONS:
        s0 = soften(s0)
    _, session, slot = stacked(counts)
    s0, pos = s0[session], slot + 1

    if solution in (1, 2, 3):
        scores = matrix[np.arange(pos.size), slot]
        if solution != 1:
            scores = 0.5 * scores + 0.5 * s0
    elif solution in (4, 5):
        q = np.empty(pos.size)
        for i in range(1, MAX_TARGET_POSITIONS + 1):
            at = pos == i
            q[at] = matrix[at, :i].mean(axis=1)
        scores = 0.5 * q + 0.5 * s0
    elif solution in (6, 7):
        q = matrix[:, :5].mean(axis=1)
        w = matrix[:, 5:].mean(axis=1)
        early = 0.4 * s0 + 0.4 * q + 0.2 * w
        if solution == 6:
            late = 0.2 * s0 + 0.5 * q + 0.3 * w
        else:
            late = 0.4 * s0 + 0.3 * q + 0.3 * w
        scores = np.where(pos <= 5, early, late)
    elif solution in (8, 11):
        # each row's mean runs over as many models as its session has targets
        length = counts[session]
        row_mean = np.empty(pos.size)
        for n in range(1, MAX_TARGET_POSITIONS + 1):
            at = length == n
            row_mean[at] = matrix[at, :n].mean(axis=1)
        mix = 0.5 if solution == 8 else 0.4
        # the row before a position-i row is its session's position i - 1
        scores = (1.0 - mix) * row_mean + mix * s0
        for i in range(2, MAX_TARGET_POSITIONS + 1):
            at = np.flatnonzero(pos == i)
            scores[at] = (1.0 - mix) * row_mean[at] + mix * scores[at - 1]
    else:  # 9, 10 and 12
        kernel = exponential_weights if solution == 12 else linear_weights
        table = np.stack([kernel(i, weights) for i in range(1, MAX_TARGET_POSITIONS + 1)])
        # a stacked (1, 10) @ (10, 1) product is each row's own dot product,
        # bit-identical to `w @ row`; einsum or (W * M).sum(1) is not
        blended = np.matmul(table[pos - 1][:, None, :], matrix[:, :, None])[:, 0, 0]
        if solution == 10:
            alpha = weights.fixed_prior
        else:
            alpha = weights.alpha_scale * (MAX_TARGET_POSITIONS + 1 - pos) / 10.0
        scores = alpha * s0 + (1.0 - alpha) * blended
    return np.clip(scores, 0.0, 1.0)


def combine(
    solution: int,
    matrix: np.ndarray,
    s0_hard: float,
    weights: EnsembleWeights = DEFAULT_WEIGHTS,
) -> np.ndarray:
    """Continuous scores for one session: `combine_corpus` of that session."""
    matrix = np.asarray(matrix, dtype=np.float64)
    return combine_corpus(solution, matrix, matrix.shape[:1], [s0_hard], weights)


def binarize(scores: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Decisions from scores; a score exactly at the threshold predicts skip."""
    return np.asarray(scores, dtype=np.float64) >= threshold


def _bits(decisions: np.ndarray) -> str:
    """The 0/1 characters of a boolean vector, as one string."""
    return (decisions.astype(np.uint8) + ord("0")).tobytes().decode("ascii")


def write_submission(prediction: CorpusPrediction, stream) -> None:
    """One line per session: the id, a space, then the 0/1 decision string."""
    bits = _bits(prediction.decisions)
    counts = np.asarray(prediction.counts).tolist()
    first = stacked(counts)[0].tolist()
    stream.write("".join(
        f"{sid} {bits[a:a + n]}\n" for sid, a, n in zip(prediction.session_ids, first, counts)
    ))


def write_scores(prediction: CorpusPrediction, stream) -> None:
    """One CSV line per target row: session id, position, score and decision."""
    _, session, slot = stacked(prediction.counts)
    cells = [csv_cell(sid) for sid in prediction.session_ids]
    stream.write("session_id,target_position,score,decision\n" + "".join(
        f"{sid},{i},{score!r},{bit}\n"
        for sid, i, score, bit in zip(
            map(cells.__getitem__, session.tolist()),
            (slot + 1).tolist(),
            prediction.scores.tolist(),
            _bits(prediction.decisions),
        )
    ))
