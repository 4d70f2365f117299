"""Session and track records, CSV ingestion, and the history/target split.

File formats
------------
Track features: header-first CSV (UTF-8, ``.`` decimal separator) with
columns ``track_id``, ``duration``, ``release_year``, the 16 scalar feature
columns named in :data:`SCALAR_FEATURE_NAMES`, and dense vector columns
``acoustic_vector_0 .. acoustic_vector_{D-1}``. The vector dimension D is
inferred from the header and must match on every row. Unknown extra columns
are ignored so files with a wider schema still load.

Session log: CSV with the columns of :data:`SESSION_LOG_LAYOUT`. Boolean
cells are encoded as ``0``/``1``. Rows must be contiguous per session and
ordered by position.

Every row of either file has as many cells as its header. A parse error
tells where it is only by its ``line_num`` (1 for the header, none for an
empty file); the CLI puts the file's path and the line before the message.

Parsed collections are built single-writer and treated as immutable
afterwards, so they are safe to share across threads.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Mapping

import numpy as np

from .errors import (
    DegenerateSampleError,
    DuplicateTrackError,
    IntegrityError,
    MalformedSessionError,
    RowParseError,
    SchemaError,
)

#: Canonical ordering of the per-track scalar features. Index 0 is
#: popularity and index 15 is valence; every 16-wide block in the feature
#: vector uses this order.
SCALAR_FEATURE_NAMES = (
    "popularity",
    "acousticness",
    "beat_strength",
    "bounciness",
    "danceability",
    "dyn_range_mean",
    "energy",
    "flatness",
    "instrumentalness",
    "liveness",
    "loudness",
    "mechanism",
    "tempo",
    "organism",
    "speechiness",
    "valence",
)

N_SCALAR_FEATURES = len(SCALAR_FEATURE_NAMES)

MIN_SESSION_LENGTH = 2
MAX_SESSION_LENGTH = 20
#: Upper bound on targets per session: ceil/floor split of a length-20
#: session leaves at most 10 rows to predict.
MAX_TARGET_POSITIONS = 10

DEFAULT_ACOUSTIC_DIM = 7

#: The session log's columns in file order: (column, SessionRow field, kind).
#: The fields come in SessionRow's order; the kind (str, int or bool) says
#: how the cell is read and written.
SESSION_LOG_LAYOUT = (
    ("session_id", "session_id", str),
    ("session_position", "position", int),
    ("session_length", "session_length", int),
    ("track_id", "track_id", str),
    ("skip_1", "skip_1", bool),
    ("skip_2", "skip_2", bool),
    ("skip_3", "skip_3", bool),
    ("premium", "premium", bool),
    ("shuffle", "shuffle", bool),
    ("hour_of_day", "hour", int),
    ("day", "day", int),
    ("month", "month", int),
)


@dataclass(frozen=True, eq=False)
class TrackMetadata:
    """Per-track scalar features plus a dense acoustic vector.

    ``scalars`` holds the 16 values in :data:`SCALAR_FEATURE_NAMES` order.
    """

    track_id: str
    duration_s: float
    release_year: int
    scalars: np.ndarray
    acoustic_vector: np.ndarray

    @property
    def popularity(self) -> float:
        return float(self.scalars[0])


@dataclass(frozen=True)
class SessionRow:
    """One playback event. Skip flags nest: skip_1 => skip_2 => skip_3."""

    session_id: str
    position: int
    session_length: int
    track_id: str
    skip_1: bool
    skip_2: bool
    skip_3: bool
    premium: bool
    shuffle: bool
    hour: int
    day: int
    month: int


@dataclass(frozen=True, eq=False)
class Session:
    """An ordered sequence of rows sharing one session_id."""

    session_id: str
    rows: tuple[SessionRow, ...]

    @property
    def length(self) -> int:
        return len(self.rows)


@dataclass(frozen=True, eq=False)
class SessionSplit:
    """History (skip flags known) and targets (flags to predict).

    History gets the ceiling half, so targets never exceed
    :data:`MAX_TARGET_POSITIONS` rows.
    """

    history: tuple[SessionRow, ...]
    targets: tuple[SessionRow, ...]

    @property
    def h(self) -> int:
        return len(self.history)


#: (SessionRow attribute, lowest, highest) of each bounded context column
CONTEXT_RANGES = (("hour", 0, 23), ("day", 1, 31), ("month", 1, 12))


def validate_session(session: Session) -> None:
    """Check all Session invariants, raising a typed error on violation."""
    _validate_layout(session)
    for row in session.rows:
        problem = _row_problem(row)
        if problem:
            raise IntegrityError(problem)


def _validate_layout(session: Session) -> None:
    """Length, ids, positions and declared length; not each row's values."""
    n = session.length
    if not MIN_SESSION_LENGTH <= n <= MAX_SESSION_LENGTH:
        raise MalformedSessionError(
            f"session {session.session_id!r}: length {n} outside "
            f"[{MIN_SESSION_LENGTH}, {MAX_SESSION_LENGTH}]"
        )
    for expect, row in enumerate(session.rows, start=1):
        if row.session_id != session.session_id:
            raise MalformedSessionError(
                f"session {session.session_id!r}: row carries foreign id "
                f"{row.session_id!r}"
            )
        if row.position != expect:
            raise MalformedSessionError(
                f"session {session.session_id!r}: expected position {expect}, "
                f"found {row.position}"
            )
        if row.session_length != n:
            raise MalformedSessionError(
                f"session {session.session_id!r}: declared length "
                f"{row.session_length} does not match row count {n}"
            )


def _row_problem(row: SessionRow) -> str | None:
    """What is wrong with one row's skip nesting or context ranges, if anything."""
    where = f"session {row.session_id!r} position {row.position}: "
    if row.skip_1 and not row.skip_2:
        return where + "skip_1 set without skip_2"
    if row.skip_2 and not row.skip_3:
        return where + "skip_2 set without skip_3"
    for column, low, high in CONTEXT_RANGES:
        value = getattr(row, column)
        if not low <= value <= high:
            return where + f"{column} {value} outside [{low}, {high}]"
    return None


def split_session(session: Session) -> SessionSplit:
    """Split into history (first ceil(n/2) rows) and targets (the rest)."""
    h = (session.length + 1) // 2
    return SessionSplit(history=session.rows[:h], targets=session.rows[h:])


def csv_rows(stream: IO[str], what: str) -> Iterator[tuple[int, list[str]]]:
    """(line, cells) of a header-first CSV stream, the header first.

    A row whose cell count differs from the header's raises a RowParseError
    at its line; a blank line is a row of no cells.
    """
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None:
        raise SchemaError(f"{what} is empty")
    yield reader.line_num, header
    for cells in reader:
        if len(cells) != len(header):
            raise RowParseError(
                f"expected {len(header)} cells, got {len(cells)}", reader.line_num
            )
        yield reader.line_num, cells


# ---------------------------------------------------------------------------
# Track-feature CSV


def _track_header_columns(dim: int) -> list[str]:
    cols = ["track_id", "duration", "release_year"]
    cols.extend(SCALAR_FEATURE_NAMES)
    cols.extend(f"acoustic_vector_{k}" for k in range(dim))
    return cols


def _infer_acoustic_dim(fieldnames: Iterable[str]) -> int:
    prefix = "acoustic_vector_"
    indices = set()
    for name in fieldnames:
        if name.startswith(prefix):
            try:
                indices.add(int(name[len(prefix):]))
            except ValueError:
                raise SchemaError(f"malformed acoustic vector column {name!r}", 1)
    if not indices:
        raise SchemaError("no acoustic_vector_* columns in header", 1)
    dim = len(indices)
    if indices != set(range(dim)):
        raise SchemaError(
            "acoustic vector columns must be numbered contiguously from 0, "
            f"got indices {sorted(indices)}", 1
        )
    return dim


def parse_cell(kind: type, value: str, column: str, line_num: int):
    """`value` read as `kind`: str, int, float, or bool written as 0 or 1.

    A cell that does not read raises a RowParseError naming its column.
    """
    if kind is bool:
        if value in ("0", "1"):
            return value == "1"
        raise RowParseError(f"column {column} must be 0 or 1, got {value!r}", line_num)
    try:
        return kind(value)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise RowParseError(f"cannot parse {column}={value!r} as {noun}", line_num)


def _float_cell(value: str, column: str, line_num: int) -> float:
    number = parse_cell(float, value, column, line_num)
    if not math.isfinite(number):
        raise RowParseError(f"{column}={value!r} is not a finite number", line_num)
    return number


def _track_numbers(
    record: Mapping[str, str], line: int, vector_cols: list[str]
) -> tuple[list[float], int]:
    """One track row's numbers, cell by cell: the first bad one raises.

    Returns the duration, the 16 scalars and the vector, then the year.
    """
    duration = _float_cell(record["duration"], "duration", line)
    if duration <= 0:
        raise IntegrityError("duration must be positive", line)
    year = parse_cell(int, record["release_year"], "release_year", line)
    scalars = [_float_cell(record[c], c, line) for c in SCALAR_FEATURE_NAMES]
    if not 0.0 <= scalars[0] <= 100.0:
        raise IntegrityError(f"popularity {scalars[0]} outside [0, 100]", line)
    vector = [_float_cell(record[c], c, line) for c in vector_cols]
    return [duration, *scalars, *vector], year


def parse_track_features(stream: IO[str]) -> dict[str, TrackMetadata]:
    """Read a track-feature CSV into a map keyed by track_id.

    The acoustic-vector dimension is inferred from the header and every
    track in the returned map shares it. A column named twice is read from
    its last copy. A row is converted whole; only a row that fails is read
    again cell by cell, to report its first bad cell.
    """
    rows = csv_rows(stream, "track feature file")
    _, header = next(rows)
    for required in _track_header_columns(0):
        if required not in header:
            raise SchemaError(f"track feature file is missing column {required!r}", 1)
    dim = _infer_acoustic_dim(header)
    vector_cols = [f"acoustic_vector_{k}" for k in range(dim)]
    at = {column: i for i, column in enumerate(header)}  # the last of a repeat
    numbers = operator.itemgetter(
        *(at[c] for c in ["duration", *SCALAR_FEATURE_NAMES, *vector_cols])
    )
    id_at, year_at = at["track_id"], at["release_year"]

    track_map: dict[str, TrackMetadata] = {}
    for line, cells in rows:
        track_id = cells[id_at]
        if track_id in track_map:
            raise DuplicateTrackError(f"duplicate track_id {track_id!r}", line)
        try:
            values = list(map(float, numbers(cells)))
            year = int(cells[year_at])
            valid = (
                all(map(math.isfinite, values))
                and values[0] > 0
                and 0.0 <= values[1] <= 100.0
            )
        except ValueError:
            valid = False
        if not valid:
            values, year = _track_numbers(dict(zip(header, cells)), line, vector_cols)
        array = np.array(values)  # the scalars and the vector are views of it
        track_map[track_id] = TrackMetadata(
            track_id=track_id,
            duration_s=values[0],
            release_year=year,
            scalars=array[1 : 1 + N_SCALAR_FEATURES],
            acoustic_vector=array[1 + N_SCALAR_FEATURES :],
        )
    return track_map


def _fmt(x: float) -> str:
    # repr of a Python float round-trips exactly and stays compact.
    return repr(float(x))


def write_track_csv(track_map: Mapping[str, TrackMetadata], stream: IO[str]) -> None:
    """Write tracks in map order using the canonical column layout."""
    dims = {meta.acoustic_vector.shape[0] for meta in track_map.values()}
    if len(dims) > 1:
        raise IntegrityError(f"mixed acoustic vector dimensions {sorted(dims)}")
    dim = dims.pop() if dims else DEFAULT_ACOUSTIC_DIM
    stream.write(",".join(_track_header_columns(dim)) + "\n")
    for meta in track_map.values():
        cells = [meta.track_id, _fmt(meta.duration_s), str(meta.release_year)]
        cells.extend(_fmt(v) for v in meta.scalars)
        cells.extend(_fmt(v) for v in meta.acoustic_vector)
        stream.write(",".join(cells) + "\n")


# ---------------------------------------------------------------------------
# Session-log CSV

def parse_session_log(stream: IO[str]) -> list[Session]:
    """Read a session log into validated Session objects.

    Rows must arrive grouped by session_id and ordered by position. An
    error's ``line_num`` is its row's, the session's first row's for wrong
    positions or length, or 1 for the header; a row's first bad cell in
    column order is the one reported, found by reading a row that fails
    again cell by cell. A log with no rows raises with no line. Track ids
    are checked where features joins the log with the track file.
    """
    rows = csv_rows(stream, "session log")
    _, header = next(rows)
    for column, _field, _kind in SESSION_LOG_LAYOUT:
        if column not in header:
            raise SchemaError(f"session log is missing column {column!r}", 1)
    index = {column: i for i, column in enumerate(header)}
    cells_of = operator.itemgetter(*(index[c] for c, _, _ in SESSION_LOG_LAYOUT))
    # in CONTEXT_RANGES order
    hours, days, months = (range(low, high + 1) for _, low, high in CONTEXT_RANGES)
    bits = frozenset("01")
    sessions: list[Session] = []
    seen: set[str] = set()
    current_id: str | None = None
    current_rows: list[SessionRow] = []
    first_line = 0

    def finalize() -> None:
        if current_id is None:
            return
        session = Session(session_id=current_id, rows=tuple(current_rows))
        try:
            _validate_layout(session)  # each row was checked as it was read
        except MalformedSessionError as exc:
            raise RowParseError(str(exc), first_line)
        sessions.append(session)

    for line, cells in rows:
        # the cells in SESSION_LOG_LAYOUT order, which is SessionRow's
        (sid, position, length, track_id, skip_1, skip_2, skip_3, premium,
         shuffle, hour, day, month) = cells_of(cells)
        if sid != current_id:
            finalize()
            if sid in seen:
                raise MalformedSessionError(
                    f"session {sid!r} reappears after other sessions; "
                    "rows must be contiguous",
                    line,
                )
            seen.add(sid)
            current_id = sid
            current_rows = []
            first_line = line
        try:
            row = SessionRow(
                sid, int(position), int(length), track_id, skip_1 == "1",
                skip_2 == "1", skip_3 == "1", premium == "1", shuffle == "1",
                int(hour), int(day), int(month),
            )
            valid = (
                bits.issuperset((skip_1, skip_2, skip_3, premium, shuffle))
                # the flags nest: "0" < "1"
                and skip_1 <= skip_2 <= skip_3
                and row.hour in hours
                and row.day in days
                and row.month in months
            )
        except ValueError:
            valid = False
        if not valid:
            row = SessionRow(*[
                parse_cell(kind, cell, column, line)
                for cell, (column, _, kind) in zip(cells_of(cells), SESSION_LOG_LAYOUT)
            ])
            problem = _row_problem(row)
            if problem:
                raise RowParseError(problem, line)
        current_rows.append(row)
    finalize()
    if not sessions:
        raise DegenerateSampleError("session log holds no sessions")
    return sessions


def write_session_csv(sessions: Iterable[Session], stream: IO[str]) -> None:
    """Write sessions in order using the canonical session-log layout."""
    stream.write(",".join(column for column, _, _ in SESSION_LOG_LAYOUT) + "\n")
    cells = operator.attrgetter(*(field for _, field, _ in SESSION_LOG_LAYOUT))
    # %d writes a bool as 1 or 0
    line = ",".join("%s" if kind is str else "%d" for _, _, kind in SESSION_LOG_LAYOUT)
    for session in sessions:
        for row in session.rows:
            stream.write(line % cells(row) + "\n")
