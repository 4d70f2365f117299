"""63-dimensional feature extraction for (target track, session history) pairs.

Canonical layout of the feature vector:

====== ====================================================================
 index  meaning
====== ====================================================================
 0-15   target track scalar features (SCALAR_FEATURE_NAMES order)
16-31   mean of the scalar features over skipped history tracks (skip_2)
32-47   mean over listened history tracks (not skip_2)
48-52   premium, shuffle, hour, day, month of the last history row
53-54   skip_1 ratio and skip_2 ratio over the history
55-57   mean (target - skipped track) difference: duration, year, popularity
58-60   the same three differences against the listened group
61      mean dot(target acoustic vector, skipped track acoustic vector)
62      the same dot-product average against the listened group
====== ====================================================================

A history group with no members contributes zeros for all of its entries;
the ratio features let a model recognize that regime. All functions here
are pure and never mutate their inputs.

Tracks come from a :class:`~skipcast.datamodel.TrackTable`: each session
row is joined to its track's table row by track id, and all tracks share
the table's one vector dimension, so the dot products need no check.

Summation order. `assemble_corpus` builds all rows at once, and each value
is bit-identical to computing its session alone with numpy's reductions:

- A group mean (16-47) is ``mean(axis=0)`` of the members' stacked
  scalars, which adds them one after another from zero, in history order,
  then divides by the count. The corpus adds member 1, 2, ... of every
  session slot by slot and adds nothing for a missing member.
- A difference or dot-product mean (55-62) is ``mean(axis=-1)`` along a
  C-contiguous row of the group's m values, which sums pairwise from
  m = 8 on. Target rows are grouped by m so each row is reduced alone.
- Each dot product is one ddot: a stacked ``(1, d) @ (d, 1)`` matmul
  equals ``u @ v`` of two 1-D vectors; an elementwise product summed, or
  ``T @ G.T``, does not.
- The skip ratios (53-54) are an integer count divided by h.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from itertools import chain
from typing import IO, Iterable, Mapping

import numpy as np

from .datamodel import (
    LOG_VALUE_FIELDS,
    MAX_TARGET_POSITIONS,
    N_SCALAR_FEATURES,
    SCALAR_FEATURE_NAMES,
    TOO_LARGE,
    Session,
    SessionLog,
    TrackTable,
    csv_cell,
    csv_rows,
    parse_cell,
    stacked,
)
from .errors import IntegrityError, RowParseError, SchemaError, UnknownTrackError
from .gbdt import MAGNITUDE_BOUND

FEATURE_NAMES: tuple[str, ...] = (
    tuple(f"track_{name}" for name in SCALAR_FEATURE_NAMES)
    + tuple(f"hist_skipped_mean_{name}" for name in SCALAR_FEATURE_NAMES)
    + tuple(f"hist_listened_mean_{name}" for name in SCALAR_FEATURE_NAMES)
    + ("ctx_premium", "ctx_shuffle", "ctx_hour", "ctx_day", "ctx_month")
    + ("skip1_ratio", "skip2_ratio")
    + (
        "diff_skipped_duration",
        "diff_skipped_year",
        "diff_skipped_popularity",
        "diff_listened_duration",
        "diff_listened_year",
        "diff_listened_popularity",
    )
    + ("dot_skipped_mean", "dot_listened_mean")
)

FEATURE_COUNT = len(FEATURE_NAMES)

MATRIX_COLUMNS = FEATURE_NAMES + ("label", "session_id", "target_position")
# how each MATRIX_COLUMNS cell is read
_MATRIX_KINDS = (float,) * FEATURE_COUNT + (int, str, int)
# the log columns of features 48-52, the last history row's context
_CONTEXT_COLUMNS = [
    LOG_VALUE_FIELDS.index(f) for f in ("premium", "shuffle", "hour", "day", "month")
]
# FeatureTable.read_csv converts this many rows at a time, so at most one
# block's Python floats exist beside the float64 blocks
_READ_BLOCK = 128


def feature_schema_hash() -> str:
    """Hash of the canonical feature-name list, stored in bank manifests."""
    return hashlib.sha256(",".join(FEATURE_NAMES).encode("utf-8")).hexdigest()


@dataclass(eq=False)
class FeatureTable:
    """Column-major training data: one row per target track."""

    x: np.ndarray  # (n, 63) float64
    labels: np.ndarray  # (n,) int64 in {0, 1}
    positions: np.ndarray  # (n,) int64 in [1, 10]
    session_ids: tuple[str, ...]

    def __len__(self) -> int:
        return self.x.shape[0]

    def write_csv(self, stream: IO[str]) -> None:
        stream.write(",".join(MATRIX_COLUMNS) + "\n")
        # repr of a Python float round-trips exactly; a row at a time keeps
        # the table's Python floats from all existing at once
        for values, label, sid, position in zip(
            self.x, self.labels.tolist(), self.session_ids, self.positions.tolist()
        ):
            cells = ",".join(map(repr, values.tolist()))
            stream.write(f"{cells},{label},{csv_cell(sid)},{position}\n")

    @classmethod
    def read_csv(cls, stream: IO[str]) -> "FeatureTable":
        """Parse `write_csv`'s layout; an error's ``line_num`` is its line.
        Feature cells must be finite and below gbdt.MAGNITUDE_BOUND in magnitude."""
        lines = csv_rows(stream, "feature matrix file")
        if tuple(next(lines)[1]) != MATRIX_COLUMNS:
            raise SchemaError(
                "feature matrix header does not match the canonical schema; "
                f"expected {len(MATRIX_COLUMNS)} columns starting with "
                f"{MATRIX_COLUMNS[0]!r}",
                1,
            )
        blocks, rows, labels, positions, sids = [], [], [], [], []
        for line, cells in lines:
            try:
                rows.append(list(map(float, cells[:FEATURE_COUNT])))
                labels.append(int(cells[FEATURE_COUNT]))
                positions.append(int(cells[FEATURE_COUNT + 2]))
            except ValueError:
                for column, kind, cell in zip(MATRIX_COLUMNS, _MATRIX_KINDS, cells):
                    parse_cell(kind, cell, column, line)  # the first bad cell raises
            values = rows[-1]
            if not all(map(math.isfinite, values)) or max(map(abs, values)) >= MAGNITUDE_BOUND:
                # the first cell that is NaN, infinite or too large
                k = next(k for k, v in enumerate(values) if not abs(v) < MAGNITUDE_BOUND)
                problem = TOO_LARGE if math.isfinite(values[k]) else "is not a finite number"
                raise RowParseError(f"{FEATURE_NAMES[k]}={cells[k]!r} {problem}", line)
            if labels[-1] not in (0, 1):
                raise RowParseError(f"label {labels[-1]} is not 0 or 1", line)
            if not 1 <= positions[-1] <= MAX_TARGET_POSITIONS:
                raise RowParseError(
                    f"target position {positions[-1]} outside "
                    f"[1, {MAX_TARGET_POSITIONS}]",
                    line,
                )
            sids.append(cells[FEATURE_COUNT + 1])
            if len(rows) == _READ_BLOCK:
                blocks.append(np.array(rows, dtype=np.float64))
                rows = []
        blocks.append(np.array(rows, dtype=np.float64).reshape(-1, FEATURE_COUNT))
        return cls(
            x=np.concatenate(blocks),
            labels=np.array(labels, dtype=np.int64),
            positions=np.array(positions, dtype=np.int64),
            session_ids=tuple(sids),
        )


def assemble_corpus(sessions: SessionLog | Iterable[Session], tracks: TrackTable) -> FeatureTable:
    """Extract the feature rows of every session's target half, in session order.

    Sessions that are not a SessionLog are converted into one first, and one
    of fewer than two rows has no targets: it adds no rows and is not
    checked. A parsed log has no such session: the readers check that each
    has 2 to 20 rows. The checks run over all rows at once; the first
    session that fails one raises the error of its first failing check, in
    this order: every target's position, then the track id of each target,
    each skipped and each listened history row, in order, against the track
    table. The rest is array operations over the whole corpus; they loop
    only over history slots and group sizes. Last, the first target row
    with a value training refuses (see gbdt.MAGNITUDE_BOUND) raises an
    IntegrityError naming its session, target position and feature.
    """
    log = sessions if isinstance(sessions, SessionLog) else SessionLog.from_sessions(
        s for s in sessions if s.length > 1
    )
    n_history, n_targets, target = log.split()
    index = dict(zip(tracks.track_ids, range(len(tracks))))
    # each row's place in the track table, -1 for an id the table lacks
    track_of = np.array([index.get(t, -1) for t in log.track_ids], dtype=np.intp)[log.tracks]
    _, owner, _ = stacked(n_history + n_targets)
    positions = log.column("position") - n_history[owner]
    failed = (track_of < 0) | (target & ((positions < 1) | (positions > MAX_TARGET_POSITIONS)))
    if failed.any():
        session = np.searchsorted(log.starts, np.argmax(failed), side="right") - 1
        _raise_first_failure(log, int(session), index)

    history = ~target
    skip_2 = log.column("skip_2") == 1
    last = log.starts[:-1] + n_history - 1  # each session's last history row
    x = np.zeros((int(n_targets.sum()), FEATURE_COUNT))
    if len(x):
        # sums and dot products of cells in range can overflow: the check
        # below names where, so numpy need not warn
        with np.errstate(over="ignore", invalid="ignore"):
            _fill_features(
                x, tracks, track_of[target], track_of[history], log.column("skip_1")[history],
                skip_2[history], log.values[last][:, _CONTEXT_COLUMNS].astype(np.float64),
                owner[target], n_history,
            )
        if not (x.max() < MAGNITUDE_BOUND and x.min() > -MAGNITUDE_BOUND):  # False for NaN too
            i, k = divmod(int(np.argmax(~(np.abs(x) < MAGNITUDE_BOUND))), FEATURE_COUNT)
            raise IntegrityError(
                f"session {log.session_ids[owner[target][i]]!r} "
                f"target position {positions[target][i]}: "
                f"{FEATURE_NAMES[k]} is {float(x[i, k])!r}; training needs a finite value "
                "of magnitude below 2**1023"
            )
    return FeatureTable(
        x=x,
        labels=skip_2[target].astype(np.int64),
        positions=positions[target],
        session_ids=tuple(map(log.session_ids.__getitem__, owner[target].tolist())),
    )


def _raise_first_failure(log: SessionLog, k: int, index: Mapping[str, int]) -> None:
    """Raise the error of the first check that session `k` of `log` fails,
    in the order `assemble_corpus` documents; the session fails one."""
    a, b = log.starts[k : k + 2].tolist()
    h = int(log.split()[0][k])  # the history length
    position = log.column("position")[a:b].tolist()
    for p in position[h:]:
        if not 1 <= p - h <= MAX_TARGET_POSITIONS:
            raise IntegrityError(
                f"target position {p - h} outside [1, {MAX_TARGET_POSITIONS}]; "
                f"target row position {p} with history length {h}"
            )
    skip_2 = log.column("skip_2")[a:b].tolist()
    track_ids = [log.track_ids[t] for t in log.tracks[a:b]]
    history = sorted(range(h), key=lambda i: not skip_2[i])  # skipped, then listened (stable)
    i = next(i for i in chain(range(h, b - a), history) if track_ids[i] not in index)
    raise UnknownTrackError(
        f"session {log.session_ids[k]!r} position {position[i]}: "
        f"unknown track_id {track_ids[i]!r}"
    )


def _fill_features(
    x: np.ndarray,
    tracks: TrackTable,
    target_tracks: np.ndarray,
    history_tracks: np.ndarray,
    skip_1: np.ndarray,
    skip_2: np.ndarray,
    context: np.ndarray,
    session: np.ndarray,
    n_history: np.ndarray,
) -> None:
    """Write the 63 columns of every target row of the corpus into `x`.

    Tracks are rows of `tracks`; target row i belongs to session
    `session[i]`. `history_tracks`, `skip_1` and `skip_2` hold every
    session's history rows back to back, `n_history` of them each.
    """
    n_sessions, h_max = len(n_history), int(n_history.max())
    # each session's first history row, and each history row's session
    start, owner, _ = stacked(n_history)

    scalars, vectors = tracks.scalars, tracks.vectors
    # what the differences of columns 55-60 are taken of
    attrs = np.column_stack((tracks.duration, tracks.year, scalars[:, 0]))

    x[:, :16] = scalars[target_tracks]
    x[:, 48:53] = context[session]
    x[:, 53] = (np.add.reduceat(skip_1, start) / n_history)[session]
    x[:, 54] = (np.add.reduceat(skip_2.astype(np.int64), start) / n_history)[session]

    # dots[i, k]: target row i's acoustic vector dotted with history slot k's
    dots = np.zeros((len(x), h_max))
    row_h = n_history[session]
    for k in range(h_max):
        rows = np.flatnonzero(row_h > k)
        u = vectors[target_tracks[rows]]
        v = vectors[history_tracks[start[session[rows]] + k]]
        # a stacked (1, d) @ (d, 1) product is one ddot, like `u[i] @ v[i]`
        dots[rows, k] = np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]

    for g, in_group in enumerate((skip_2, ~skip_2)):
        # member[s, j]: the history row of the j-th member of session s's group
        seen = np.cumsum(in_group)
        rank = seen - 1 - (seen - in_group)[start][owner]
        member = np.zeros((n_sessions, h_max), dtype=np.intp)
        member[owner[in_group], rank[in_group]] = np.flatnonzero(in_group)
        count = np.add.reduceat(in_group.astype(np.int64), start)

        # add the members one after another, as mean(axis=0) of a block does
        sums = np.zeros((n_sessions, N_SCALAR_FEATURES))
        for j in range(int(count.max())):
            has = np.flatnonzero(count > j)
            sums[has] += scalars[history_tracks[member[has, j]]]
        means = sums / np.maximum(count, 1)[:, None]  # an empty group stays zero
        x[:, 16 + 16 * g : 32 + 16 * g] = means[session]

        # mean along C-contiguous rows of m members, as for one target alone
        row_count = count[session]
        for m in range(1, int(count.max()) + 1):
            rows = np.flatnonzero(row_count == m)
            s = session[rows]
            hist = member[s, :m]  # the members' history rows, in order
            theirs = attrs[history_tracks[hist]].transpose(0, 2, 1)  # (rows, 3, m)
            diffs = np.ascontiguousarray(attrs[target_tracks[rows], :, None] - theirs)
            x[rows, 55 + 3 * g : 58 + 3 * g] = diffs.mean(axis=2)
            x[rows, 61 + g] = dots[rows[:, None], hist - start[s, None]].mean(axis=1)
