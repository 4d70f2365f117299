"""Record validation, CSV round trips, and the history/target split."""

import dataclasses
import hashlib
import io

import numpy as np
import pytest

from skipcast import datamodel
from skipcast.cli import _read
from skipcast.datamodel import (
    MAX_TARGET_POSITIONS,
    SCALAR_FEATURE_NAMES,
    SESSION_LOG_LAYOUT,
    Session,
    SessionLog,
    SessionRow,
    TrackTable,
    parse_session_log,
    parse_track_features,
    split_session,
    write_session_csv,
    write_track_csv,
)
from skipcast.errors import (
    DegenerateSampleError,
    DuplicateTrackError,
    IntegrityError,
    MalformedSessionError,
    RowParseError,
    SchemaError,
    SkipcastError,
    UnknownTrackError,
)
from skipcast.features import assemble_corpus
from skipcast.synthetic import SynthConfig, generate_synthetic_dataset


def make_tracks(*track_ids, popularity=50.0, dim=3):
    """A TrackTable of `track_ids` (t0 alone by default), alike but for
    `popularity`: one value for all, or one per track."""
    track_ids = list(track_ids or ["t0"])
    n = len(track_ids)
    scalars = np.tile(np.linspace(0.1, 0.9, len(SCALAR_FEATURE_NAMES)), (n, 1))
    scalars[:, 0] = popularity
    return TrackTable(
        track_ids=track_ids,
        duration=np.full(n, 200.0),
        year=np.full(n, 2005, dtype=np.int64),
        scalars=scalars,
        vectors=np.tile(np.arange(dim, dtype=np.float64) / 10.0, (n, 1)),
    )


def assert_same_tracks(got, want):
    assert got.track_ids == want.track_ids
    for column in ("duration", "year", "scalars", "vectors"):
        assert getattr(got, column).dtype == getattr(want, column).dtype
        np.testing.assert_array_equal(getattr(got, column), getattr(want, column))


def log_columns(log):
    """A SessionLog's columns, dtypes included, in a comparable form."""
    return (log.session_ids, log.starts.tolist(), log.track_ids, log.tracks.dtype,
            log.tracks.tolist(), log.values.dtype, log.values.tolist())


def make_row(sid="s0", position=1, length=4, track_id="t0", skip_2=False, **kw):
    defaults = dict(
        skip_1=False,
        skip_3=skip_2,
        premium=True,
        shuffle=False,
        hour=14,
        day=11,
        month=6,
    )
    defaults.update(kw)
    return SessionRow(
        session_id=sid,
        position=position,
        session_length=length,
        track_id=track_id,
        skip_2=skip_2,
        **defaults,
    )


def make_session(n=4, sid="s0", skips=None):
    skips = skips or [False] * n
    rows = tuple(
        make_row(sid=sid, position=i + 1, length=n, skip_2=skips[i]) for i in range(n)
    )
    return Session(session_id=sid, rows=rows)


class TestTrackCsv:
    def test_round_trip(self):
        tracks = make_tracks(*(f"t{i}" for i in range(5)), popularity=10.0 * np.arange(5))
        buf = io.StringIO()
        write_track_csv(tracks, buf)
        assert_same_tracks(parse_track_features(io.StringIO(buf.getvalue())), tracks)

    def test_write_is_deterministic(self):
        tracks = make_tracks("a", "b", popularity=[50.0, 3.0])
        first, second = io.StringIO(), io.StringIO()
        write_track_csv(tracks, first)
        write_track_csv(tracks, second)
        assert first.getvalue() == second.getvalue()

    def test_header_only_file_keeps_its_vector_dimension(self):
        text = ",".join(
            ["track_id", "duration", "release_year", *SCALAR_FEATURE_NAMES]
            + [f"acoustic_vector_{k}" for k in range(3)]
        ) + "\n"
        parsed = parse_track_features(io.StringIO(text))
        assert len(parsed) == 0 and parsed.vectors.shape == (0, 3)
        buf = io.StringIO()
        write_track_csv(parsed, buf)
        assert buf.getvalue() == text

    def test_missing_scalar_column(self):
        header = "track_id,duration,release_year," + ",".join(SCALAR_FEATURE_NAMES[:-1])
        header += ",acoustic_vector_0"
        with pytest.raises(
            SchemaError, match=r"^track feature file is missing column 'valence'$"
        ) as exc_info:
            parse_track_features(io.StringIO(header + "\n"))
        assert exc_info.value.line_num == 1

    def test_no_acoustic_columns(self):
        header = "track_id,duration,release_year," + ",".join(SCALAR_FEATURE_NAMES)
        with pytest.raises(SchemaError, match="acoustic"):
            parse_track_features(io.StringIO(header + "\n"))

    def test_gap_in_acoustic_columns(self):
        header = (
            "track_id,duration,release_year,"
            + ",".join(SCALAR_FEATURE_NAMES)
            + ",acoustic_vector_0,acoustic_vector_2"
        )
        with pytest.raises(SchemaError, match="contiguously"):
            parse_track_features(io.StringIO(header + "\n"))

    def test_acoustic_column_with_a_non_integer_index(self):
        header = (
            "track_id,duration,release_year,"
            + ",".join(SCALAR_FEATURE_NAMES)
            + ",acoustic_vector_0,acoustic_vector_x"
        )
        with pytest.raises(
            SchemaError, match=r"^malformed acoustic vector column 'acoustic_vector_x'$"
        ) as exc_info:
            parse_track_features(io.StringIO(header + "\n"))
        assert exc_info.value.line_num == 1

    def test_duplicate_track_id(self):
        buf = io.StringIO()
        write_track_csv(make_tracks("dup"), buf)
        text = buf.getvalue()
        doubled = text + text.splitlines()[1] + "\n"
        with pytest.raises(
            DuplicateTrackError, match=r"^duplicate track_id 'dup'$"
        ) as exc_info:
            parse_track_features(io.StringIO(doubled))
        assert exc_info.value.line_num == 3

    @pytest.mark.parametrize(
        "edit, got",
        [(lambda line: line + ",0.5", 21), (lambda line: line.rsplit(",", 1)[0], 19),
         (lambda line: "", 0)],
        ids=["extra cell", "missing cell", "blank line"],
    )
    def test_row_width_must_match_header(self, edit, got):
        buf = io.StringIO()
        write_track_csv(make_tracks("a", "b", dim=1), buf)
        lines = buf.getvalue().splitlines()
        lines[2] = edit(lines[2])
        with pytest.raises(
            RowParseError, match=rf"^expected 20 cells, got {got}$"
        ) as exc_info:
            parse_track_features(io.StringIO("\n".join(lines) + "\n"))
        assert exc_info.value.line_num == 3

    def test_bad_number_reports_line(self):
        buf = io.StringIO()
        write_track_csv(make_tracks(), buf)
        text = buf.getvalue().replace("200.0", "not-a-number")
        with pytest.raises(RowParseError) as exc_info:
            parse_track_features(io.StringIO(text))
        assert exc_info.value.line_num == 2

    @pytest.mark.parametrize(
        "column,value", [("energy", "nan"), ("acoustic_vector_1", "inf")]
    )
    def test_non_finite_number_reports_line(self, column, value):
        buf = io.StringIO()
        write_track_csv(make_tracks("t0", "t1"), buf)
        lines = buf.getvalue().splitlines()
        cells = lines[2].split(",")
        cells[lines[0].split(",").index(column)] = value
        lines[2] = ",".join(cells)
        with pytest.raises(RowParseError, match=column) as exc_info:
            parse_track_features(io.StringIO("\n".join(lines) + "\n"))
        assert exc_info.value.line_num == 3

    @pytest.mark.parametrize(
        "edits, line, problem",
        [
            ({2: {"valence": "inf"}, 3: {"duration": "abc"}}, 2,
             "valence='inf' is not a finite number"),
            ({3: {"energy": "nan", "acoustic_vector_0": "abc"}}, 3,
             "energy='nan' is not a finite number"),
            ({2: {"release_year": "x", "popularity": "nan"}}, 2,
             "cannot parse release_year='x' as an integer"),
            ({2: {"duration": "0", "energy": "abc"}}, 2, "duration must be positive"),
            ({3: {"release_year": "9223372036854775808", "energy": "nan"}}, 3,
             "release_year 9223372036854775808 outside the 64-bit integer range"),
        ],
        ids=["earlier line", "earlier column", "year before scalars",
             "duration before scalars", "year beyond int64"],
    )
    def test_first_bad_cell_is_reported(self, edits, line, problem):
        buf = io.StringIO()
        write_track_csv(make_tracks("t0", "t1", "t2"), buf)
        lines = buf.getvalue().splitlines()
        header = lines[0].split(",")
        for number, cells in edits.items():
            row = lines[number - 1].split(",")
            for column, value in cells.items():
                row[header.index(column)] = value
            lines[number - 1] = ",".join(row)
        with pytest.raises((RowParseError, IntegrityError)) as exc_info:
            parse_track_features(io.StringIO("\n".join(lines) + "\n"))
        assert str(exc_info.value) == problem
        assert exc_info.value.line_num == line

    def test_repeated_column_is_read_from_its_last_copy(self):
        buf = io.StringIO()
        write_track_csv(make_tracks(), buf)
        header, row = buf.getvalue().splitlines()
        text = f"{header},energy,track_id\n{row},0.25,renamed\n"
        parsed = parse_track_features(io.StringIO(text))
        assert parsed.track_ids == ["renamed"]
        assert parsed.scalars[0, SCALAR_FEATURE_NAMES.index("energy")] == 0.25

    def test_nonpositive_duration_rejected(self):
        buf = io.StringIO()
        write_track_csv(make_tracks(), buf)
        text = buf.getvalue().replace("200.0", "-5.0")
        with pytest.raises(IntegrityError, match="duration"):
            parse_track_features(io.StringIO(text))

    def test_popularity_out_of_range(self):
        buf = io.StringIO()
        write_track_csv(make_tracks(popularity=150.0), buf)
        with pytest.raises(IntegrityError, match="popularity"):
            parse_track_features(io.StringIO(buf.getvalue()))

    def test_extra_columns_ignored(self):
        buf = io.StringIO()
        write_track_csv(make_tracks(), buf)
        lines = buf.getvalue().splitlines()
        lines[0] += ",comment"
        lines[1] += ",hello"
        parsed = parse_track_features(io.StringIO("\n".join(lines) + "\n"))
        assert parsed.track_ids == ["t0"]


class TestSessionValidation:
    """Each session check, on a session the parser reads back from its log."""

    def parse(self, *sessions):
        buf = io.StringIO()
        write_session_csv(sessions, buf)
        return parse_session_log(io.StringIO(buf.getvalue()))

    def test_valid_session_passes(self):
        session = make_session(n=5)
        assert log_columns(self.parse(session)) == log_columns(SessionLog.from_sessions([session]))

    def test_length_bounds(self):
        with pytest.raises(RowParseError, match="length"):
            self.parse(Session(session_id="s0", rows=(make_row(length=1),)))
        with pytest.raises(RowParseError, match="length"):
            self.parse(make_session(n=21))

    def test_position_gap(self):
        rows = (make_row(position=1, length=2), make_row(position=3, length=2))
        with pytest.raises(RowParseError, match="position"):
            self.parse(Session(session_id="s0", rows=rows))

    def test_declared_length_mismatch(self):
        rows = (make_row(position=1, length=9), make_row(position=2, length=9))
        with pytest.raises(RowParseError, match="declared length"):
            self.parse(Session(session_id="s0", rows=rows))

    def test_skip1_requires_skip2(self):
        bad = Session(
            session_id="s0",
            rows=(
                make_row(position=1, length=2, skip_1=True, skip_2=False, skip_3=False),
                make_row(position=2, length=2),
            ),
        )
        with pytest.raises(RowParseError, match="skip_1"):
            self.parse(bad)

    def test_skip2_requires_skip3(self):
        bad = Session(
            session_id="s0",
            rows=(
                make_row(position=1, length=2, skip_2=True, skip_3=False),
                make_row(position=2, length=2),
            ),
        )
        with pytest.raises(RowParseError, match="skip_2"):
            self.parse(bad)

    @pytest.mark.parametrize(
        "field,value",
        [("hour", 24), ("hour", -1), ("day", 0), ("day", 32), ("month", 13)],
    )
    def test_context_ranges(self, field, value):
        bad = Session(
            session_id="s0",
            rows=(
                make_row(position=1, length=2, **{field: value}),
                make_row(position=2, length=2),
            ),
        )
        with pytest.raises(
            RowParseError, match=rf"^session 's0' position 1: {field} {value} outside "
        ):
            self.parse(bad)


class TestSplitSession:
    @pytest.mark.parametrize(
        "n,expected_history", [(2, 1), (3, 2), (4, 2), (5, 3), (19, 10), (20, 10)]
    )
    def test_history_takes_ceiling_half(self, n, expected_history):
        split = split_session(make_session(n=n))
        assert len(split.history) == expected_history
        assert len(split.targets) == n - expected_history

    def test_targets_never_exceed_ten(self):
        for n in range(2, 21):
            split = split_session(make_session(n=n))
            assert 1 <= len(split.targets) <= MAX_TARGET_POSITIONS
            assert split.history + split.targets == make_session(n=n).rows


class TestStacked:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_a_per_group_loop(self, seed):
        counts = np.random.default_rng(seed).integers(0, 6, size=15)
        counts[[0, 7]] = 0  # empty groups, the first one included
        first, owner, slot = [], [], []
        for k, n in enumerate(counts.tolist()):
            first.append(len(owner))
            owner += [k] * n
            slot += range(n)
        for got, want in zip(datamodel.stacked(counts), (first, owner, slot)):
            assert got.dtype == np.intp
            np.testing.assert_array_equal(got, want)

    def test_no_groups(self):
        assert [a.size for a in datamodel.stacked([])] == [0, 0, 0]


class TestSessionLogCsv:
    def roundtrip(self, sessions):
        buf = io.StringIO()
        write_session_csv(sessions, buf)
        return parse_session_log(io.StringIO(buf.getvalue()))

    def test_round_trip(self):
        sessions = [make_session(n=3, sid="a"), make_session(n=7, sid="b")]
        parsed = self.roundtrip(sessions)
        assert parsed.session_ids == ["a", "b"]
        assert log_columns(parsed) == log_columns(SessionLog.from_sessions(sessions))

    def test_unknown_track(self):
        # the log parses on its own; the join with the tracks rejects the id
        buf = io.StringIO()
        write_session_csv([make_session(n=2)], buf)
        text = buf.getvalue().replace("t0", "missing")
        log = parse_session_log(io.StringIO(text))
        assert [log.track_ids[t] for t in log.tracks] == ["missing", "missing"]
        with pytest.raises(
            UnknownTrackError,
            match=r"^session 's0' position 2: unknown track_id 'missing'$",
        ):
            assemble_corpus(log, make_tracks())

    def test_session_reappearing_rejected(self):
        buf = io.StringIO()
        write_session_csv(
            [make_session(n=2, sid="a"), make_session(n=2, sid="b")], buf
        )
        lines = buf.getvalue().splitlines()
        # a, b, then all of a again
        repeated = lines + lines[1:3]
        with pytest.raises(MalformedSessionError, match="contiguous"):
            parse_session_log(io.StringIO("\n".join(repeated) + "\n"))

    def test_bad_flag_cell(self):
        buf = io.StringIO()
        write_session_csv([make_session(n=2)], buf)
        lines = buf.getvalue().splitlines()
        cells = lines[1].split(",")
        cells[4] = "2"  # skip_1
        lines[1] = ",".join(cells)
        with pytest.raises(RowParseError, match="skip_1"):
            parse_session_log(io.StringIO("\n".join(lines) + "\n"))

    @pytest.mark.parametrize(
        "cells,problem,n",
        [
            ({4: "1"}, "session 'b' position 1: skip_1 set without skip_2", 3),
            ({5: "1", 6: "0"}, "session 'b' position 1: skip_2 set without skip_3", 3),
            ({9: "24"}, "session 'b' position 1: hour 24 outside [0, 23]", 3),
            ({9: "-1"}, "session 'b' position 1: hour -1 outside [0, 23]", 3),
            ({10: "0"}, "session 'b' position 1: day 0 outside [1, 31]", 3),
            ({10: "32"}, "session 'b' position 1: day 32 outside [1, 31]", 3),
            ({11: "13"}, "session 'b' position 1: month 13 outside [1, 12]", 3),
            ({2: "9"}, "session 'b': declared length 9 does not match row count 3", 3),
            ({1: "2"}, "session 'b': expected position 1, found 2", 3),
            ({1: "2", 2: "9"}, "session 'b': expected position 1, found 2", 3),
            # the row leaves session b for a session of its own
            ({0: "c"}, "session 'c': length 1 outside [2, 20]", 3),
            ({}, "session 'b': length 21 outside [2, 20]", 21),
            # the first bad cell in column order is the one reported
            ({11: "june", 4: "2", 1: "first"},
             "cannot parse session_position='first' as an integer", 3),
        ],
        ids=[
            "skip_1", "skip_2", "hour 24", "hour -1", "day 0", "day 32", "month 13",
            "session_length", "position gap", "position before declared length",
            "length 1", "length 21", "first bad cell",
        ],
    )
    def test_bad_row_reports_line(self, cells, problem, n):
        # each error is at line 4, the first row of session b, which has n rows
        buf = io.StringIO()
        write_session_csv([make_session(n=2, sid="a"), make_session(n=n, sid="b")], buf)
        lines = buf.getvalue().splitlines()
        row = lines[3].split(",")  # session b, position 1
        for column, cell in cells.items():
            row[column] = cell
        lines[3] = ",".join(row)
        with pytest.raises(RowParseError) as exc_info:
            parse_session_log(io.StringIO("\n".join(lines) + "\n"))
        assert str(exc_info.value) == problem
        assert exc_info.value.line_num == 4

    def test_bad_row_names_the_file(self, tmp_path):
        # the parser gives the line; the CLI's file reader adds the path
        path = tmp_path / "sessions.csv"
        with open(path, "w", encoding="utf-8") as fh:
            write_session_csv([make_session(n=2, sid="a", skips=[False, False])], fh)
        path.write_text(path.read_text().replace(",14,", ",25,", 1))
        with pytest.raises(RowParseError, match=rf"^{path} line 2: session 'a' "
                           r"position 1: hour 25 outside \[0, 23\]$"):
            _read(path, parse_session_log)

    def test_log_without_rows_is_rejected(self):
        buf = io.StringIO()
        write_session_csv([], buf)
        with pytest.raises(
            DegenerateSampleError, match=r"^session log holds no sessions$"
        ) as exc_info:
            parse_session_log(io.StringIO(buf.getvalue()))
        assert exc_info.value.line_num is None

    def test_missing_column(self):
        with pytest.raises(
            SchemaError, match=r"^session log is missing column 'session_position'$"
        ) as exc_info:
            parse_session_log(io.StringIO("session_id,month\n"))
        assert exc_info.value.line_num == 1

    @pytest.mark.parametrize(
        "edit, got",
        [(lambda line: line + ",0", 13), (lambda line: line.rsplit(",", 1)[0], 11),
         (lambda line: "", 0)],
        ids=["extra cell", "missing cell", "blank line"],
    )
    def test_row_width_must_match_header(self, edit, got):
        buf = io.StringIO()
        write_session_csv([make_session(n=2, sid="a"), make_session(n=3, sid="b")], buf)
        lines = buf.getvalue().splitlines()
        lines[3] = edit(lines[3])
        with pytest.raises(
            RowParseError, match=rf"^expected 12 cells, got {got}$"
        ) as exc_info:
            parse_session_log(io.StringIO("\n".join(lines) + "\n"))
        assert exc_info.value.line_num == 4

    def test_layout_lists_session_row_fields_in_order(self):
        assert [field for _, field, _ in SESSION_LOG_LAYOUT] == list(SessionRow._fields)

    def test_written_layout(self):
        # the canonical layout, spelled out cell by cell
        buf = io.StringIO()
        write_session_csv([make_session(n=2, sid="a", skips=[True, False])], buf)
        assert buf.getvalue() == (
            "session_id,session_position,session_length,track_id,skip_1,skip_2,"
            "skip_3,premium,shuffle,hour_of_day,day,month\n"
            "a,1,2,t0,0,1,1,1,0,14,11,6\n"
            "a,2,2,t0,0,0,0,1,0,14,11,6\n"
        )

    def test_synthetic_corpus_round_trips(self):
        config = SynthConfig(n_tracks=40, n_sessions=25)
        tracks, sessions = generate_synthetic_dataset(config, seed=3)
        track_buf = io.StringIO()
        write_track_csv(tracks, track_buf)
        parsed_tracks = parse_track_features(io.StringIO(track_buf.getvalue()))
        session_buf = io.StringIO()
        write_session_csv(sessions, session_buf)
        parsed = parse_session_log(io.StringIO(session_buf.getvalue()))
        assert log_columns(parsed) == log_columns(SessionLog.from_sessions(sessions))
        assert set(parsed.track_ids) <= set(parsed_tracks.track_ids)

    @pytest.mark.parametrize("seed, config, digest", [
        (3, SynthConfig(n_tracks=40, n_sessions=25),
         "2462541ba37fc9d3a2ebf474ca51350a6ba001e44d965c61ca2de845c9842a74"),
        (7, SynthConfig(n_tracks=40, n_sessions=25),
         "5406091d77824f2a5680a93fd042e34adf45d3a524cacd63e3243ffa82f537a8"),
        (7, SynthConfig(n_tracks=40, n_sessions=25, skip_prev_weight=-3.7),
         "16003a363a0c8f6115951d7a07384654c01985d4274d17dde7df9972b0b37dcf"),
    ])
    def test_synthetic_corpus_bytes_are_pinned(self, seed, config, digest):
        # a change to the generator's draws, their order or the skip rule
        # changes these bytes; the digests are of the track file, then the log
        tracks, sessions = generate_synthetic_dataset(config, seed)
        buf = io.StringIO()
        write_track_csv(tracks, buf)
        write_session_csv(sessions, buf)
        assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == digest

    def test_rows_are_immutable(self):
        row = make_row()
        with pytest.raises(AttributeError):
            row.skip_2 = True
        assert row._replace(skip_2=True).skip_2 and not row.skip_2

    def test_synthetic_corpus_of_one_track_still_skips(self):
        # one track has no tempo spread, so its tempo z-score must be 0
        _, sessions = generate_synthetic_dataset(SynthConfig(n_tracks=1, n_sessions=20), seed=3)
        skips = [row.skip_2 for session in sessions for row in session.rows]
        assert any(skips) and not all(skips)

    def test_ids_with_commas_round_trip(self):
        tracks = make_tracks("a,b", "t0")
        sessions = [make_session(n=2, sid="c,d"), make_session(n=3, sid='say "5%"')]
        sessions[0] = dataclasses.replace(sessions[0], rows=tuple(
            row._replace(track_id="a,b") for row in sessions[0].rows
        ))
        track_buf, log_buf = io.StringIO(), io.StringIO()
        write_track_csv(tracks, track_buf)
        write_session_csv(sessions, log_buf)
        assert_same_tracks(parse_track_features(io.StringIO(track_buf.getvalue())), tracks)
        parsed = parse_session_log(io.StringIO(log_buf.getvalue()))
        assert log_columns(parsed) == log_columns(SessionLog.from_sessions(sessions))


# Cells that some readers take and others do not: ints with zeros, spaces,
# signs and underscores, a float, a non-ASCII digit, non-finite numbers, a
# number too large for training, an
# empty cell, a quoted cell, a comment character, a separator that numpy
# strips around a number but int() and float() do not, and characters that
# str.splitlines() would break a line at.
ODD_CELLS = ["1", "0", "-1", "150", "01", " 1", "+1", "1_0", "1.0", "\u0661", "nan",
             "inf", "1e400", "1e308", "", '"1"', "#1", "1\x1c", "1\x85", "1\u2028"]


def _mutations(text, cells):
    """`text` with one cell replaced, for each (line, column) of `cells` and
    each of ODD_CELLS, then with its layout changed."""
    lines = text.splitlines()
    header = lines[0].split(",")
    cases = {"clean": text}
    for line, column in cells:
        for cell in ODD_CELLS:
            row = lines[line - 1].split(",")
            row[header.index(column)] = cell
            edited = lines[: line - 1] + [",".join(row)] + lines[line:]
            cases[f"line {line} {column}={cell!r}"] = "\n".join(edited) + "\n"
    cases.update({
        "crlf": text.replace("\n", "\r\n"),
        "blank line": "\n".join(lines[:3] + [""] + lines[3:]) + "\n",
        "trailing blank line": text + "\n",
        "no final line end": text[:-1],
        "extra cell": "\n".join(lines[:3] + [lines[3] + ",1"] + lines[4:]) + "\n",
        "missing cell": "\n".join(lines[:3] + [lines[3].rsplit(",", 1)[0]] + lines[4:]) + "\n",
        "repeated and extra columns": "\n".join(
            [lines[0] + f",{cells[-1][1]},extra"] + [row + ",1,x" for row in lines[1:]]
        ) + "\n",
        "header only": lines[0] + "\n",
        "empty": "",
    })
    return cases


def _outcome(read, text):
    """What `read` makes of `text`: a comparable result, or the error's
    type, message and line."""
    try:
        result = read(io.StringIO(text))
    except SkipcastError as exc:
        return type(exc), str(exc), exc.line_num
    if isinstance(result, SessionLog):
        return log_columns(result)
    return (result.track_ids, result.duration.tobytes(), result.year.dtype,
            result.year.tolist(), result.scalars.tobytes(), result.vectors.shape,
            result.vectors.tobytes())


def _log_text(*more):
    buf = io.StringIO()
    write_session_csv([make_session(n=3, sid="a"),
                       make_session(n=4, sid="b", skips=[True, False, True, True]),
                       *more], buf)
    return buf.getvalue()


def _track_text():
    buf = io.StringIO()
    write_track_csv(make_tracks("t0", "t1", "t2", popularity=[1.0, 2.0, 3.0]), buf)
    return buf.getvalue()


# line 5 is session b's first row, a skip, and line 6 its second, not one
LOG_CASES = _mutations(_log_text(), [
    (5, "session_position"), (5, "session_length"), (5, "skip_2"), (5, "skip_3"),
    (6, "skip_1"), (5, "hour_of_day"), (5, "track_id"), (6, "day"), (5, "month"),
])
TRACK_CASES = _mutations(_track_text(), [
    (3, "duration"), (3, "release_year"), (3, "popularity"), (3, "acoustic_vector_2"),
    (3, "track_id"), (4, "energy"),
])
_LOG_LINES = _log_text().splitlines(keepends=True)
LOG_CASES.update({
    "session reappears": "".join(_LOG_LINES + _LOG_LINES[1:4]),
    "session of one row": "".join(_LOG_LINES) + "c,1,1,t0,0,0,0,1,0,14,11,6\n",
    "session of 21 rows": _log_text(make_session(n=21, sid="c")),
})
TRACK_CASES["duplicate id"] = _track_text() + _track_text().splitlines(keepends=True)[1]


class TestFastReaderAgainstRowReader:
    """The fast readers return what the row readers return, or raise what
    they raise at the same line, on files that differ by one odd cell or
    one change of layout."""

    @pytest.mark.parametrize("case", LOG_CASES)
    def test_session_log(self, case):
        text = LOG_CASES[case]
        assert _outcome(parse_session_log, text) == _outcome(datamodel._log_rows, text)

    @pytest.mark.parametrize("case", TRACK_CASES)
    def test_track_features(self, case):
        text = TRACK_CASES[case]
        assert _outcome(parse_track_features, text) == _outcome(datamodel._track_rows, text)

    def test_cases_take_both_paths(self, monkeypatch):
        # without a row reader, the clean files and the harmless cells still load,
        # and the cells that only the row reader reads do not
        def refuse(stream):
            raise AssertionError("row reader")

        monkeypatch.setattr(datamodel, "_log_rows", refuse)
        monkeypatch.setattr(datamodel, "_track_rows", refuse)
        for cases, read, fast, slow in [
            (LOG_CASES, parse_session_log, "line 5 hour_of_day=' 1'",
             "line 5 hour_of_day='1_0'"),
            (TRACK_CASES, parse_track_features, "line 4 energy='+1'", "line 4 energy='1_0'"),
        ]:
            for case in ("clean", fast, "repeated and extra columns"):
                read(io.StringIO(cases[case]))
            for case in (slow, "crlf"):
                with pytest.raises(AssertionError, match="row reader"):
                    read(io.StringIO(cases[case]))
