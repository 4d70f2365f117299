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

import csv
import hashlib
from dataclasses import dataclass
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .datamodel import (
    MAX_TARGET_POSITIONS,
    SCALAR_FEATURE_NAMES,
    Session,
    SessionRow,
    TrackMetadata,
    lookup_track,
    split_session,
)
from .errors import DimensionError, IntegrityError, RowParseError, SchemaError

N_TRACK_FEATURES = 16
N_HISTORY_FEATURES = 39
N_SESSION_TRACK_FEATURES = 8
FEATURE_COUNT = 63

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

assert len(FEATURE_NAMES) == FEATURE_COUNT

MATRIX_COLUMNS = FEATURE_NAMES + ("label", "session_id", "target_position")


def feature_schema_hash() -> str:
    """Hash of the canonical feature-name list, stored in bank manifests."""
    return hashlib.sha256(",".join(FEATURE_NAMES).encode("utf-8")).hexdigest()


@dataclass(frozen=True, eq=False)
class TrainingExample:
    """One labeled target row: 63 features, skip_2 label, target position."""

    features: np.ndarray
    label: bool
    target_position: int
    session_id: str


def track_features(meta: TrackMetadata) -> np.ndarray:
    """The 16 scalar features of one track, in canonical order."""
    if meta.scalars.shape != (N_TRACK_FEATURES,):
        raise DimensionError(
            f"track {meta.track_id!r}: expected {N_TRACK_FEATURES} scalar "
            f"features, got shape {meta.scalars.shape}"
        )
    return meta.scalars.astype(np.float64, copy=True)


def _group_rows(
    history: Sequence[SessionRow],
) -> tuple[list[SessionRow], list[SessionRow]]:
    skipped = [r for r in history if r.skip_2]
    listened = [r for r in history if not r.skip_2]
    return skipped, listened


def session_history_features(
    history: Sequence[SessionRow],
    track_map: Mapping[str, TrackMetadata],
) -> np.ndarray:
    """The 39 history features: group means, last-row context, skip ratios."""
    if not history:
        raise ValueError("history must be nonempty")
    skipped, listened = _group_rows(history)

    def group_mean(rows: list[SessionRow]) -> np.ndarray:
        if not rows:
            return np.zeros(N_TRACK_FEATURES)
        stack = np.stack([track_features(lookup_track(track_map, r.track_id)) for r in rows])
        return stack.mean(axis=0)

    last = history[-1]
    context = np.array(
        [
            1.0 if last.premium else 0.0,
            1.0 if last.shuffle else 0.0,
            float(last.hour),
            float(last.day),
            float(last.month),
        ]
    )
    n = len(history)
    ratios = np.array(
        [
            sum(1 for r in history if r.skip_1) / n,
            sum(1 for r in history if r.skip_2) / n,
        ]
    )
    return np.concatenate([group_mean(skipped), group_mean(listened), context, ratios])


def session_track_features(
    target_meta: TrackMetadata,
    history: Sequence[SessionRow],
    track_map: Mapping[str, TrackMetadata],
) -> np.ndarray:
    """Differences and acoustic dot products between target and history groups."""
    if not history:
        raise ValueError("history must be nonempty")
    skipped, listened = _group_rows(history)

    def diffs_and_dot(rows: list[SessionRow]) -> tuple[np.ndarray, float]:
        if not rows:
            return np.zeros(3), 0.0
        metas = [lookup_track(track_map, r.track_id) for r in rows]
        for m in metas:
            if m.acoustic_vector.shape != target_meta.acoustic_vector.shape:
                raise IntegrityError(
                    f"acoustic vector dimension mismatch: track "
                    f"{m.track_id!r} has {m.acoustic_vector.shape[0]}, target "
                    f"{target_meta.track_id!r} has "
                    f"{target_meta.acoustic_vector.shape[0]}"
                )
        diffs = np.array(
            [
                float(np.mean([target_meta.duration_s - m.duration_s for m in metas])),
                float(np.mean([target_meta.release_year - m.release_year for m in metas])),
                float(np.mean([target_meta.popularity - m.popularity for m in metas])),
            ]
        )
        dot = float(
            np.mean([target_meta.acoustic_vector @ m.acoustic_vector for m in metas])
        )
        return diffs, dot

    skipped_diffs, skipped_dot = diffs_and_dot(skipped)
    listened_diffs, listened_dot = diffs_and_dot(listened)
    return np.concatenate(
        [skipped_diffs, listened_diffs, [skipped_dot, listened_dot]]
    )


def assemble_example(
    target_row: SessionRow,
    history: Sequence[SessionRow],
    track_map: Mapping[str, TrackMetadata],
) -> TrainingExample:
    """Build the full 63-feature example for one target row."""
    h = len(history)
    target_position = target_row.position - h
    if not 1 <= target_position <= MAX_TARGET_POSITIONS:
        raise IntegrityError(
            f"target position {target_position} outside "
            f"[1, {MAX_TARGET_POSITIONS}]; target row position "
            f"{target_row.position} with history length {h}"
        )
    meta = lookup_track(track_map, target_row.track_id)
    vector = np.concatenate(
        [
            track_features(meta),
            session_history_features(history, track_map),
            session_track_features(meta, history, track_map),
        ]
    )
    return TrainingExample(
        features=vector,
        label=target_row.skip_2,
        target_position=target_position,
        session_id=target_row.session_id,
    )


def assemble_session_examples(
    session: Session, track_map: Mapping[str, TrackMetadata]
) -> list[TrainingExample]:
    split = split_session(session)
    return [
        assemble_example(row, split.history, track_map) for row in split.targets
    ]


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
        reader = csv.reader(stream)
        header = next(reader, None)
        if header is None:
            raise SchemaError("feature matrix file is empty")
        if tuple(header) != MATRIX_COLUMNS:
            raise SchemaError(
                "feature matrix header does not match the canonical schema; "
                f"expected {len(MATRIX_COLUMNS)} columns starting with "
                f"{MATRIX_COLUMNS[0]!r}"
            )
        rows, labels, positions, sids = [], [], [], []
        for cells in reader:
            line = reader.line_num
            if len(cells) != len(MATRIX_COLUMNS):
                raise RowParseError(
                    f"feature matrix line {line}: expected {len(MATRIX_COLUMNS)} "
                    f"cells, got {len(cells)}",
                    line,
                )
            try:
                rows.append([float(c) for c in cells[:FEATURE_COUNT]])
                labels.append(int(cells[FEATURE_COUNT]))
                positions.append(int(cells[FEATURE_COUNT + 2]))
            except ValueError as exc:
                raise RowParseError(f"feature matrix line {line}: {exc}", line)
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
    """Extract training examples from every session's target half."""
    examples: list[TrainingExample] = []
    for session in sessions:
        examples.extend(assemble_session_examples(session, track_map))
    if examples:
        x = np.stack([e.features for e in examples])
    else:
        x = np.empty((0, FEATURE_COUNT))
    return FeatureTable(
        x=x,
        labels=np.array([int(e.label) for e in examples], dtype=np.int64),
        positions=np.array([e.target_position for e in examples], dtype=np.int64),
        session_ids=tuple(e.session_id for e in examples),
    )
