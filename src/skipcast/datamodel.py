"""Session and track records, CSV ingestion, and the history/target split.

File formats
------------
Track features: header-first CSV (UTF-8, ``.`` decimal separator) with
columns ``track_id``, ``duration``, ``release_year``, the 16 scalar feature
columns named in :data:`SCALAR_FEATURE_NAMES`, and dense vector columns
``acoustic_vector_0 .. acoustic_vector_{D-1}``. The header fixes the vector
dimension D, so every track of a file has the same one, a file of no rows
included. Unknown extra columns are ignored so files with a wider schema
still load. It parses into a :class:`TrackTable`, a column store with one
dimension per table.

Session log: CSV with the columns of :data:`SESSION_LOG_LAYOUT`. Boolean
cells are encoded as ``0``/``1``. Rows must be contiguous per session and
ordered by position. It parses into a :class:`SessionLog`, a column store.

Every row of either file has as many cells as its header. A parse error
tells where it is only by its ``line_num`` (1 for the header, none for an
empty file); the CLI puts the file's path and the line before the message.

Reading
-------
Each reader takes the whole text and tries its fast reader first: one
``np.loadtxt`` call converts the numeric columns, ``str.split(",")`` gives
the id and flag cells, and every check runs as an array operation. The
row reader, which converts and checks one cell after another, reads the
same text instead when

- the text holds a quote, a carriage return, or one of ``\\x1c``-``\\x1f``
  (numpy strips those around a number; ``float`` and ``int`` do not);
- a row's cell count is not the header's (a blank line, which ``loadtxt``
  would skip, included), ``loadtxt`` rejects a cell, or a flag cell is not
  exactly ``0`` or ``1``;
- any other check fails.

So every error comes from the row reader, with the line and cell it
names. The fast reader accepts only what the row reader accepts, with the
same result, and a file that only the row reader accepts (a quoted cell,
an integer written ``1_0``) still loads: a differential test holds the
two to this. Both readers share the header checks.

Parsed collections are built single-writer and treated as immutable
afterwards, so they are safe to share across threads.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import re
from dataclasses import dataclass
from itertools import chain, repeat
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
#: The int and bool fields of SESSION_LOG_LAYOUT, in its order: the columns
#: of SessionLog.values.
LOG_VALUE_FIELDS = tuple(field for _, field, kind in SESSION_LOG_LAYOUT if kind is not str)
_LOG_COLUMNS = tuple(column for column, _, _ in SESSION_LOG_LAYOUT)


@dataclass(frozen=True, eq=False)
class TrackTable:
    """Tracks as columns, in file order.

    Track i is ``track_ids[i]``. ``scalars`` holds its 16 values in
    :data:`SCALAR_FEATURE_NAMES` order and ``vectors`` its acoustic vector;
    every track of a table has the same vector dimension.
    """

    track_ids: list[str]
    duration: np.ndarray  # (n,) float64, seconds
    year: np.ndarray  # (n,) int64, the release year
    scalars: np.ndarray  # (n, N_SCALAR_FEATURES) float64
    vectors: np.ndarray  # (n, dim) float64

    def __len__(self) -> int:
        return len(self.track_ids)


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


def stacked(counts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The layout of groups stacked back to back, group k holding `counts[k]`
    rows: each group's first row, then each row's group and its 0-based slot
    in that group. A group may hold no rows."""
    counts = np.asarray(counts, dtype=np.intp)
    first = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(counts.size), counts)
    return first, owner, np.arange(owner.size) - first[owner]


@dataclass(frozen=True, eq=False)
class SessionLog:
    """A session log as columns, its sessions in file order.

    Session k owns rows ``starts[k]`` up to ``starts[k + 1]``. Row i plays
    track ``track_ids[tracks[i]]``; ``track_ids`` lists each track once, in
    the order the rows first name it. ``values`` holds every row's int and
    bool cells as int64, one column per :data:`LOG_VALUE_FIELDS` entry.
    :meth:`from_sessions` builds one from :class:`Session` objects; nothing
    turns it back into them. Its length is its number of sessions.
    """

    session_ids: list[str]
    starts: np.ndarray  # (sessions + 1,) row offsets
    track_ids: list[str]
    tracks: np.ndarray  # (rows,) intp
    values: np.ndarray  # (rows, len(LOG_VALUE_FIELDS)) int64

    @classmethod
    def from_sessions(cls, sessions: Iterable[Session]) -> "SessionLog":
        sessions = list(sessions)
        rows = [row for session in sessions for row in session.rows]
        index: dict[str, int] = {}
        cells = operator.attrgetter(*LOG_VALUE_FIELDS)
        return cls(
            session_ids=[session.session_id for session in sessions],
            starts=np.cumsum([0] + [len(session.rows) for session in sessions]),
            tracks=np.array(
                [index.setdefault(row.track_id, len(index)) for row in rows], dtype=np.intp
            ),
            track_ids=list(index),
            values=np.array([cells(row) for row in rows], dtype=np.int64).reshape(
                -1, len(LOG_VALUE_FIELDS)
            ),
        )

    def __len__(self) -> int:
        return len(self.session_ids)

    def column(self, field: str) -> np.ndarray:
        """The cells of one LOG_VALUE_FIELDS field, one per row."""
        return self.values[:, LOG_VALUE_FIELDS.index(field)]

    def split(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """split_session of every session at once.

        Returns each session's history length and target count, and
        whether each row is a target.
        """
        n = np.diff(self.starts)
        h = (n + 1) // 2
        _, owner, slot = stacked(n)
        return h, n - h, slot >= h[owner]


#: (LOG_VALUE_FIELDS field, lowest, highest) of each bounded context column
CONTEXT_RANGES = (("hour", 0, 23), ("day", 1, 31), ("month", 1, 12))


def _layout_problem(session_id: str, rows: list[tuple[int, ...]]) -> str | None:
    """What is wrong with a session's length, positions or declared length,
    if anything; `rows` hold its cells in LOG_VALUE_FIELDS order, which
    begins with position and session_length."""
    n = len(rows)
    where = f"session {session_id!r}: "
    if not MIN_SESSION_LENGTH <= n <= MAX_SESSION_LENGTH:
        return where + f"length {n} outside [{MIN_SESSION_LENGTH}, {MAX_SESSION_LENGTH}]"
    for expect, (position, declared, *_) in enumerate(rows, start=1):
        if position != expect:
            return where + f"expected position {expect}, found {position}"
        if declared != n:
            return where + f"declared length {declared} does not match row count {n}"
    return None


def _row_problem(session_id: str, row: tuple[int, ...]) -> str | None:
    """What is wrong with one row's skip nesting or context ranges, if
    anything; `row` holds its cells in LOG_VALUE_FIELDS order."""
    cell = dict(zip(LOG_VALUE_FIELDS, row))
    where = f"session {session_id!r} position {cell['position']}: "
    if cell["skip_1"] and not cell["skip_2"]:
        return where + "skip_1 set without skip_2"
    if cell["skip_2"] and not cell["skip_3"]:
        return where + "skip_2 set without skip_3"
    for column, low, high in CONTEXT_RANGES:
        if not low <= cell[column] <= high:
            return where + f"{column} {cell[column]} outside [{low}, {high}]"
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


_NEEDS_QUOTES = re.compile('[,"\r\n]')


def csv_cell(text: str) -> str:
    """`text` quoted as csv.writer quotes a cell by default, if at all."""
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


#: What only the row reader reads: csv quoting, a carriage return, and the
#: separators that numpy strips around a number but float() and int() do not.
_ROW_READER_ONLY = '"\r\x1c\x1d\x1e\x1f'


def _parse(stream: IO[str], columns, rows):
    """The stream's text read by `columns(header, lines)`, the fast reader,
    or else by `rows(stream)`: when the text is empty, holds a character of
    _ROW_READER_ONLY, or `columns` returns None."""
    text = stream.read()
    if text and not any(c in text for c in _ROW_READER_ONLY):
        lines = text.split("\n")
        if lines[-1] == "":
            lines.pop()  # the last line's end
        parsed = columns(lines[0].split(","), lines[1:])
        if parsed is not None:
            return parsed
    return rows(io.StringIO(text))


def _column_index(header: list[str], required: Iterable[str], what: str) -> dict[str, int]:
    """Each column's index, a repeated column's last; a header without a
    `required` column raises a SchemaError at line 1."""
    for column in required:
        if column not in header:
            raise SchemaError(f"{what} is missing column {column!r}", 1)
    return {column: i for i, column in enumerate(header)}


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


def _track_layout(header: list[str]) -> tuple[dict[str, int], list[str]]:
    """Each column's index (see _column_index) and the vector columns."""
    at = _column_index(header, _track_header_columns(0), "track feature file")
    return at, [f"acoustic_vector_{k}" for k in range(_infer_acoustic_dim(header))]


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


_INT64 = np.iinfo(np.int64)


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
    if not _INT64.min <= year <= _INT64.max:
        raise RowParseError(f"release_year {year} outside the 64-bit integer range", line)
    scalars = [_float_cell(record[c], c, line) for c in SCALAR_FEATURE_NAMES]
    if not 0.0 <= scalars[0] <= 100.0:
        raise IntegrityError(f"popularity {scalars[0]} outside [0, 100]", line)
    vector = [_float_cell(record[c], c, line) for c in vector_cols]
    return [duration, *scalars, *vector], year


def _track_table(track_ids: list[str], year: np.ndarray, numbers: np.ndarray) -> TrackTable:
    """The table whose track i has `year[i]` and, in `numbers[i]`, its
    duration, its 16 scalars and its vector; the columns are views."""
    return TrackTable(
        track_ids, numbers[:, 0], year, numbers[:, 1 : 1 + N_SCALAR_FEATURES],
        numbers[:, 1 + N_SCALAR_FEATURES :],
    )


def parse_track_features(stream: IO[str]) -> TrackTable:
    """Read a track-feature CSV into a TrackTable, its tracks in file order.

    The acoustic-vector dimension is the header's, also for a file of no
    rows. A column named twice is read from its last copy. The fast reader
    reads a valid file; the row reader reads any other, to report its first
    bad cell (see the module notes).
    """
    return _parse(stream, _track_columns, _track_rows)


def _track_columns(header: list[str], rows: list[str]) -> TrackTable | None:
    """The fast reader's table, or None to leave the file to the row reader."""
    at, vector_cols = _track_layout(header)
    if not rows or set(map(str.count, rows, repeat(","))) != {len(header) - 1}:
        return None
    id_at = at["track_id"]
    ids = [row.split(",", id_at + 1)[id_at] for row in rows]
    numbers = ["duration", *SCALAR_FEATURE_NAMES, *vector_cols]
    try:
        table = np.loadtxt(
            rows, delimiter=",", comments=None, ndmin=1,
            usecols=[at["release_year"], *(at[c] for c in numbers)],
            dtype=[("year", np.int64), ("numbers", np.float64, (len(numbers),))],
        )
    except ValueError:
        return None
    values = np.ascontiguousarray(table["numbers"])
    duration, popularity = values[:, 0], values[:, 1]
    if not (
        len(set(ids)) == len(ids)
        and np.isfinite(values).all()
        and (duration > 0).all()
        and ((0.0 <= popularity) & (popularity <= 100.0)).all()
    ):
        return None
    return _track_table(ids, np.ascontiguousarray(table["year"]), values)


def _track_rows(stream: IO[str]) -> TrackTable:
    """The row reader: each row's cells in turn, so the first bad one raises."""
    rows = csv_rows(stream, "track feature file")
    _, header = next(rows)
    _, vector_cols = _track_layout(header)
    ids: list[str] = []
    seen: set[str] = set()
    years: list[int] = []
    numbers: list[list[float]] = []
    for line, cells in rows:
        record = dict(zip(header, cells))  # the last copy of a repeated column
        track_id = record["track_id"]
        if track_id in seen:
            raise DuplicateTrackError(f"duplicate track_id {track_id!r}", line)
        seen.add(track_id)
        values, year = _track_numbers(record, line, vector_cols)
        ids.append(track_id)
        years.append(year)
        numbers.append(values)
    width = 1 + N_SCALAR_FEATURES + len(vector_cols)
    return _track_table(
        ids, np.array(years, dtype=np.int64),
        np.array(numbers, dtype=np.float64).reshape(-1, width),
    )


def write_track_csv(tracks: TrackTable, stream: IO[str]) -> None:
    """Write tracks in table order using the canonical column layout."""
    stream.write(",".join(_track_header_columns(tracks.vectors.shape[1])) + "\n")
    for track_id, duration, year, scalars, vector in zip(
        tracks.track_ids, tracks.duration.tolist(), tracks.year.tolist(),
        tracks.scalars.tolist(), tracks.vectors.tolist(),
    ):
        # repr of a Python float round-trips exactly and stays compact
        cells = [csv_cell(track_id), repr(duration), str(year)]
        cells += map(repr, scalars + vector)
        stream.write(",".join(cells) + "\n")


# ---------------------------------------------------------------------------
# Session-log CSV


# the fast log reader splits this many rows into cells at a time, so only
# one block's cells exist at once
_SPLIT_BLOCK = 4096


def parse_session_log(stream: IO[str]) -> SessionLog:
    """Read a session log into a validated SessionLog.

    Rows must arrive grouped by session_id and ordered by position. An
    error's ``line_num`` is its row's, the session's first row's for wrong
    positions or length, or 1 for the header; a row's first bad cell in
    column order is the one reported. A log with no rows raises with no
    line. Track ids are checked where features joins the log with the
    track file. The fast reader reads a valid log; the row reader reads
    any other, to report its first error (see the module notes).
    """
    return _parse(stream, _log_columns, _log_rows)


def _session_log(session_ids, first, index, tracks, values) -> SessionLog:
    """A reader's lists as a SessionLog; `first` holds each session's first row."""
    return SessionLog(
        session_ids=session_ids,
        starts=np.array(first + [len(tracks)]),
        track_ids=list(index),
        tracks=np.array(tracks, dtype=np.intp),
        values=np.asarray(values, dtype=np.int64),
    )


def _log_columns(header: list[str], rows: list[str]) -> SessionLog | None:
    """The fast reader's log, or None to leave the file to the row reader."""
    at = _column_index(header, _LOG_COLUMNS, "session log")
    if not rows:
        return None
    flags = operator.itemgetter(*(at[c] for c, _, kind in SESSION_LOG_LAYOUT if kind is bool))
    sid_at, track_at = at["session_id"], at["track_id"]
    session_ids: list[str] = []
    first: list[int] = []  # each session's first row
    index: dict[str, int] = {}  # track id -> its place in track_ids
    tracks: list[int] = []
    for start in range(0, len(rows), _SPLIT_BLOCK):
        cells = [row.split(",") for row in rows[start : start + _SPLIT_BLOCK]]
        if set(map(len, cells)) != {len(header)} or not {"0", "1"}.issuperset(
            chain.from_iterable(map(flags, cells))
        ):
            return None
        for i, row in enumerate(cells, start):
            if not session_ids or row[sid_at] != session_ids[-1]:
                session_ids.append(row[sid_at])
                first.append(i)
        tracks += [index.setdefault(row[track_at], len(index)) for row in cells]
    try:
        values = np.loadtxt(
            rows, delimiter=",", comments=None, ndmin=2, dtype=np.int64,
            usecols=[at[c] for c, _, kind in SESSION_LOG_LAYOUT if kind is not str],
        )
    except ValueError:
        return None
    log = _session_log(session_ids, first, index, tracks, values)
    return log if _holds_row_checks(log) else None


def _holds_row_checks(log: SessionLog) -> bool:
    """Whether the log passes every check of the row reader, as arrays."""
    n = np.diff(log.starts)
    _, owner, slot = stacked(n)
    skip_1, skip_2, skip_3 = (log.column(f) for f in ("skip_1", "skip_2", "skip_3"))
    return bool(
        len(set(log.session_ids)) == len(log)  # contiguous sessions
        and ((MIN_SESSION_LENGTH <= n) & (n <= MAX_SESSION_LENGTH)).all()
        and (log.column("position") == slot + 1).all()
        and (log.column("session_length") == n[owner]).all()
        and (skip_1 <= skip_2).all()
        and (skip_2 <= skip_3).all()
        and all(
            ((low <= log.column(f)) & (log.column(f) <= high)).all()
            for f, low, high in CONTEXT_RANGES
        )
    )


def _log_rows(stream: IO[str]) -> SessionLog:
    """The row reader: each row's cells in turn, so the first bad one raises,
    and each session's layout once its last row is read, at its first line."""
    rows = csv_rows(stream, "session log")
    _, header = next(rows)
    at = _column_index(header, _LOG_COLUMNS, "session log")
    sid_at, track_at = at["session_id"], at["track_id"]
    value_cells = [(at[c], c, kind) for c, _, kind in SESSION_LOG_LAYOUT if kind is not str]
    session_ids: list[str] = []
    seen: set[str] = set()
    first: list[int] = []  # each session's first row
    first_line = 0
    index: dict[str, int] = {}  # track id -> its place in track_ids
    tracks: list[int] = []
    values: list[tuple[int, ...]] = []  # each row's cells in LOG_VALUE_FIELDS order

    def check_layout() -> None:  # of the last session read
        problem = _layout_problem(session_ids[-1], values[first[-1]:]) if session_ids else None
        if problem:
            raise RowParseError(problem, first_line)

    for line, cells in rows:
        sid = cells[sid_at]
        if not session_ids or sid != session_ids[-1]:
            check_layout()
            if sid in seen:
                raise MalformedSessionError(
                    f"session {sid!r} reappears after other sessions; "
                    "rows must be contiguous",
                    line,
                )
            seen.add(sid)
            session_ids.append(sid)
            first.append(len(values))
            first_line = line
        # only int and flag cells can be bad, so the first bad one is the row's
        row = tuple(parse_cell(kind, cells[i], column, line) for i, column, kind in value_cells)
        problem = _row_problem(sid, row)
        if problem:
            raise RowParseError(problem, line)
        values.append(row)
        tracks.append(index.setdefault(cells[track_at], len(index)))
    check_layout()
    if not session_ids:
        raise DegenerateSampleError("session log holds no sessions")
    return _session_log(session_ids, first, index, tracks, values)


def write_session_csv(sessions: Iterable[Session], stream: IO[str]) -> None:
    """Write sessions in order using the canonical session-log layout.

    Each row is written under its session's id; an id that holds a comma, a
    quote or a line end is quoted.
    """
    stream.write(",".join(_LOG_COLUMNS) + "\n")
    # the cells after the session id: two ints, the track id, then the rest;
    # %d writes a bool as 1 or 0
    rest = operator.attrgetter(*(field for _, field, _ in SESSION_LOG_LAYOUT[1:]))
    tail = "".join(",%s" if kind is str else ",%d" for _, _, kind in SESSION_LOG_LAYOUT[1:])
    track_cells: dict[str, str] = {}  # each track id's cell, quoted once
    for session in sessions:
        line = csv_cell(session.session_id).replace("%", "%%") + tail + "\n"
        for row in session.rows:
            cells = rest(row)
            track = track_cells.get(row.track_id)
            if track is None:
                track = track_cells[row.track_id] = csv_cell(row.track_id)
            if track != row.track_id:
                cells = (*cells[:2], track, *cells[3:])
            stream.write(line % cells)
