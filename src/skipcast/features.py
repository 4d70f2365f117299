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
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import IO, Iterable, Mapping

import numpy as np

from .datamodel import (
    MAX_TARGET_POSITIONS,
    N_SCALAR_FEATURES,
    SCALAR_FEATURE_NAMES,
    Session,
    SessionRow,
    TrackMetadata,
    csv_rows,
    split_session,
)
from .errors import (
    DimensionError,
    IntegrityError,
    RowParseError,
    SchemaError,
    UnknownTrackError,
)

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


def feature_schema_hash() -> str:
    """Hash of the canonical feature-name list, stored in bank manifests."""
    return hashlib.sha256(",".join(FEATURE_NAMES).encode("utf-8")).hexdigest()


def _checked_track(
    track_map: Mapping[str, TrackMetadata], row: SessionRow
) -> TrackMetadata:
    meta = track_map.get(row.track_id)
    if meta is None:
        raise UnknownTrackError(
            f"session {row.session_id!r} position {row.position}: "
            f"unknown track_id {row.track_id!r}"
        )
    if meta.scalars.shape != (N_SCALAR_FEATURES,):
        raise DimensionError(
            f"track {meta.track_id!r}: expected {N_SCALAR_FEATURES} scalar "
            f"features, got shape {meta.scalars.shape}"
        )
    return meta


def session_features(
    session: Session, track_map: Mapping[str, TrackMetadata]
) -> np.ndarray:
    """The (n_targets, 63) feature block of one session's target rows.

    The 39 history features are computed once and broadcast to every row.
    Differences and dot products are averaged along the C-contiguous rows
    of an (n_targets, group size) array, and each dot product is a 1-D
    ``@``, so every sum runs in the order it would for one target alone.
    A 3-D reduction or a ``T @ G.T`` product changes the last bits.
    """
    split = split_session(session)
    out = np.zeros((len(split.targets), FEATURE_COUNT))
    if not split.targets:
        return out
    h = split.h
    for row in split.targets:
        if not 1 <= row.position - h <= MAX_TARGET_POSITIONS:
            raise IntegrityError(
                f"target position {row.position - h} outside "
                f"[1, {MAX_TARGET_POSITIONS}]; target row position "
                f"{row.position} with history length {h}"
            )
    targets = [_checked_track(track_map, r) for r in split.targets]
    groups = (
        [_checked_track(track_map, r) for r in split.history if r.skip_2],
        [_checked_track(track_map, r) for r in split.history if not r.skip_2],
    )
    for t in targets:
        for m in groups[0] + groups[1]:
            if m.acoustic_vector.shape != t.acoustic_vector.shape:
                raise IntegrityError(
                    f"acoustic vector dimension mismatch: track "
                    f"{m.track_id!r} has {m.acoustic_vector.shape[0]}, target "
                    f"{t.track_id!r} has {t.acoustic_vector.shape[0]}"
                )

    out[:, :16] = np.stack([t.scalars for t in targets])
    last = split.history[-1]
    out[:, 48:53] = [last.premium, last.shuffle, last.hour, last.day, last.month]
    out[:, 53] = sum(1 for r in split.history if r.skip_1) / h
    out[:, 54] = sum(1 for r in split.history if r.skip_2) / h
    for g, group in enumerate(groups):
        if not group:
            continue  # an empty group contributes zeros
        scalars = np.array([m.scalars for m in group], dtype=np.float64)
        out[:, 16 + 16 * g : 32 + 16 * g] = scalars.mean(axis=0)
        for k, attr in enumerate(("duration_s", "release_year", "popularity")):
            t_vals = np.array([float(getattr(t, attr)) for t in targets])
            m_vals = np.array([float(getattr(m, attr)) for m in group])
            out[:, 55 + 3 * g + k] = (t_vals[:, None] - m_vals[None, :]).mean(axis=1)
        dots = [[t.acoustic_vector @ m.acoustic_vector for m in group] for t in targets]
        out[:, 61 + g] = np.array(dots).mean(axis=1)
    return out


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
        for i in range(len(self)):
            cells = [repr(float(v)) for v in self.x[i]]
            cells.append(str(int(self.labels[i])))
            cells.append(self.session_ids[i])
            cells.append(str(int(self.positions[i])))
            stream.write(",".join(cells) + "\n")

    @classmethod
    def read_csv(cls, stream: IO[str]) -> "FeatureTable":
        """Parse `write_csv`'s layout; an error's ``line_num`` is its line."""
        lines = csv_rows(stream, "feature matrix file")
        if tuple(next(lines)[1]) != MATRIX_COLUMNS:
            raise SchemaError(
                "feature matrix header does not match the canonical schema; "
                f"expected {len(MATRIX_COLUMNS)} columns starting with "
                f"{MATRIX_COLUMNS[0]!r}",
                1,
            )
        rows, labels, positions, sids = [], [], [], []
        for line, cells in lines:
            try:
                rows.append([float(c) for c in cells[:FEATURE_COUNT]])
                labels.append(int(cells[FEATURE_COUNT]))
                positions.append(int(cells[FEATURE_COUNT + 2]))
            except ValueError as exc:
                raise RowParseError(str(exc), line)
            if not all(map(math.isfinite, rows[-1])):
                k = next(k for k, v in enumerate(rows[-1]) if not math.isfinite(v))
                raise RowParseError(
                    f"{FEATURE_NAMES[k]}={cells[k]!r} is not a finite number", line
                )
            if labels[-1] not in (0, 1):
                raise RowParseError(f"label {labels[-1]} is not 0 or 1", line)
            if not 1 <= positions[-1] <= MAX_TARGET_POSITIONS:
                raise RowParseError(
                    f"target position {positions[-1]} outside "
                    f"[1, {MAX_TARGET_POSITIONS}]",
                    line,
                )
            sids.append(cells[FEATURE_COUNT + 1])
        n = len(rows)
        x = np.array(rows, dtype=np.float64) if n else np.empty((0, FEATURE_COUNT))
        return cls(
            x=x,
            labels=np.array(labels, dtype=np.int64),
            positions=np.array(positions, dtype=np.int64),
            session_ids=tuple(sids),
        )


def assemble_corpus(
    sessions: Iterable[Session], track_map: Mapping[str, TrackMetadata]
) -> FeatureTable:
    """Extract the feature rows of every session's target half, in session order."""
    blocks = [np.empty((0, FEATURE_COUNT))]
    labels: list[int] = []
    positions: list[int] = []
    sids: list[str] = []
    for session in sessions:
        blocks.append(session_features(session, track_map))
        split = split_session(session)
        for row in split.targets:
            labels.append(int(row.skip_2))
            positions.append(row.position - split.h)
            sids.append(row.session_id)
    return FeatureTable(
        x=np.concatenate(blocks),
        labels=np.array(labels, dtype=np.int64),
        positions=np.array(positions, dtype=np.int64),
        session_ids=tuple(sids),
    )
