"""Feature extraction against hand-computed and independently coded oracles."""

import io
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, strategies as st

from skipcast.datamodel import (
    SCALAR_FEATURE_NAMES,
    Session,
    SessionRow,
    TrackTable,
    split_session,
)
from skipcast.errors import (
    IntegrityError,
    RowParseError,
    SchemaError,
    SkipcastError,
    UnknownTrackError,
)
from skipcast.features import (
    FEATURE_COUNT,
    FEATURE_NAMES,
    MATRIX_COLUMNS,
    FeatureTable,
    assemble_corpus,
    feature_schema_hash,
)
from skipcast.synthetic import SynthConfig, generate_synthetic_dataset

ENERGY = SCALAR_FEATURE_NAMES.index("energy")


@dataclass(frozen=True)
class Track:
    """One track's values, as the oracles read them."""

    track_id: str
    duration_s: float
    release_year: int
    scalars: np.ndarray
    acoustic_vector: np.ndarray

    @property
    def popularity(self):
        return float(self.scalars[0])


def track(tid, duration, year, scalars, vector):
    return Track(tid, float(duration), year, np.asarray(scalars, dtype=np.float64),
                 np.asarray(vector, dtype=np.float64))


def table_of(tracks):
    """The TrackTable of a {track id: Track} map, in its order."""
    records = list(tracks.values())
    return TrackTable(
        track_ids=[t.track_id for t in records],
        duration=np.array([t.duration_s for t in records]),
        year=np.array([t.release_year for t in records], dtype=np.int64),
        scalars=np.array([t.scalars for t in records]),
        vectors=np.array([t.acoustic_vector for t in records]),
    )


def records_of(table):
    """The {track id: Track} map of a TrackTable's rows."""
    return {
        tid: Track(tid, duration, year, scalars, vector)
        for tid, duration, year, scalars, vector in zip(
            table.track_ids, table.duration.tolist(), table.year.tolist(),
            table.scalars, table.vectors,
        )
    }


def known(track_map, row):
    """The Track of `row`, or the error assemble_corpus raises for its id."""
    if row.track_id not in track_map:
        raise UnknownTrackError(
            f"session {row.session_id!r} position {row.position}: "
            f"unknown track_id {row.track_id!r}"
        )
    return track_map[row.track_id]


def row(tid, position, skip_2, skip_1=False, premium=True, shuffle=False,
        hour=14, day=11, month=6, length=7, sid="s0"):
    return SessionRow(
        session_id=sid,
        position=position,
        session_length=length,
        track_id=tid,
        skip_1=skip_1,
        skip_2=skip_2,
        skip_3=skip_2,
        premium=premium,
        shuffle=shuffle,
        hour=hour,
        day=day,
        month=month,
    )


def spread(base):
    """16 distinct scalars with popularity (index 0) in range."""
    vals = [base + 0.01 * k for k in range(16)]
    vals[0] = 10.0 * base
    return vals


TA = track("ta", 200.0, 2010, spread(1.0), [1.0, 0.0, 2.0])
TB = track("tb", 180.0, 2000, spread(2.0), [0.5, 1.0, 0.0])
TC = track("tc", 240.0, 1990, spread(3.0), [0.0, 1.0, 1.0])
TD = track("td", 300.0, 2020, spread(4.0), [2.0, 2.0, 2.0])
TRACKS = {t.track_id: t for t in (TA, TB, TC, TD)}

# history: tb skipped (hard skip), tc listened, td skipped
HISTORY = (
    row("tb", 1, skip_2=True, skip_1=True),
    row("tc", 2, skip_2=False),
    row("td", 3, skip_2=True, premium=False, shuffle=True, hour=23, day=31, month=12),
)
TARGET = row("ta", 4, skip_2=True)
OTHER_TARGET = row("tb", 5, skip_2=False)


def block(history, *targets, tracks=TRACKS):
    """The feature rows of the session made of `history` then `targets`."""
    rows = tuple(history) + targets
    assert (len(rows) + 1) // 2 == len(history)  # the split keeps this history
    return assemble_corpus([Session(session_id="s0", rows=rows)], table_of(tracks)).x


def reference_block(session, track_map):
    """The per-session assembly that `assemble_corpus` replaced, kept as its oracle.

    Group means are `mean(axis=0)` of each group's stacked scalars. The
    differences and dot products are averaged along the C-contiguous rows
    of an (n_targets, group size) array, and each dot product is a 1-D `@`.
    """
    split = split_session(session)
    out = np.zeros((len(split.targets), FEATURE_COUNT))
    if not split.targets:
        return out
    h = len(split.history)
    for r in split.targets:
        if not 1 <= r.position - h <= 10:
            raise IntegrityError(f"target position {r.position - h} outside")
    targets = [known(track_map, r) for r in split.targets]
    groups = (
        [known(track_map, r) for r in split.history if r.skip_2],
        [known(track_map, r) for r in split.history if not r.skip_2],
    )
    out[:, :16] = np.stack([t.scalars for t in targets])
    last = split.history[-1]
    out[:, 48:53] = [last.premium, last.shuffle, last.hour, last.day, last.month]
    out[:, 53] = sum(1 for r in split.history if r.skip_1) / h
    out[:, 54] = sum(1 for r in split.history if r.skip_2) / h
    for g, group in enumerate(groups):
        if not group:
            continue
        scalars = np.array([m.scalars for m in group], dtype=np.float64)
        out[:, 16 + 16 * g : 32 + 16 * g] = scalars.mean(axis=0)
        for k, attr in enumerate(("duration_s", "release_year", "popularity")):
            t_vals = np.array([float(getattr(t, attr)) for t in targets])
            m_vals = np.array([float(getattr(m, attr)) for m in group])
            out[:, 55 + 3 * g + k] = (t_vals[:, None] - m_vals[None, :]).mean(axis=1)
        dots = [[t.acoustic_vector @ m.acoustic_vector for m in group] for t in targets]
        out[:, 61 + g] = np.array(dots).mean(axis=1)
    return out


def reference_corpus(sessions, track_map):
    return np.concatenate(
        [np.empty((0, FEATURE_COUNT))]
        + [reference_block(s, track_map) for s in sessions]
    )


def naive_vector(target_meta, history, tracks):
    """Second, loop-based computation of all 63 entries for the oracle."""
    skipped = [tracks[r.track_id] for r in history if r.skip_2]
    listened = [tracks[r.track_id] for r in history if not r.skip_2]

    def mean_scalars(group):
        if not group:
            return [0.0] * 16
        return [sum(m.scalars[k] for m in group) / len(group) for k in range(16)]

    def mean_diff(group, attr):
        if not group:
            return 0.0
        return sum(getattr(target_meta, attr) - getattr(m, attr) for m in group) / len(group)

    def mean_dot(group):
        if not group:
            return 0.0
        return sum(
            sum(a * b for a, b in zip(target_meta.acoustic_vector, m.acoustic_vector))
            for m in group
        ) / len(group)

    last = history[-1]
    out = list(target_meta.scalars)
    out += mean_scalars(skipped)
    out += mean_scalars(listened)
    out += [float(last.premium), float(last.shuffle), float(last.hour),
            float(last.day), float(last.month)]
    out += [
        sum(r.skip_1 for r in history) / len(history),
        sum(r.skip_2 for r in history) / len(history),
    ]
    for group in (skipped, listened):
        out += [
            mean_diff(group, "duration_s"),
            mean_diff(group, "release_year"),
            mean_diff(group, "popularity"),
        ]
    out += [mean_dot(skipped), mean_dot(listened)]
    return out


class TestTrackFeatures:
    """Columns 0-15: the target track's own scalars."""

    def test_canonical_order(self):
        out = block((row("tb", 1, skip_2=False),), row("ta", 2, skip_2=True))[0]
        assert out[0] == TA.popularity
        assert out[15] == TA.scalars[15]
        assert FEATURE_NAMES[0] == "track_popularity"
        assert FEATURE_NAMES[15] == "track_valence"

    def test_zeros_pass_through(self):
        zero = track("z", 100.0, 2000, [0.0] * 16, [0.0])
        out = block((row("z", 1, skip_2=False),), row("z", 2, skip_2=True),
                    tracks={"z": zero})
        np.testing.assert_array_equal(out[0, :16], np.zeros(16))

    def test_pure(self):
        first = block(HISTORY, TARGET, OTHER_TARGET)
        second = block(HISTORY, TARGET, OTHER_TARGET)
        np.testing.assert_array_equal(first, second)
        first[0, 0] = -1.0  # the block does not share memory with the tracks
        assert TA.scalars[0] == TA.popularity

    def test_unknown_track(self):
        with pytest.raises(
            UnknownTrackError, match=r"^session 's0' position 2: unknown track_id 'missing'$"
        ):
            block((row("ta", 1, skip_2=False),), row("missing", 2, skip_2=True))


class TestHistoryFeatures:
    """Columns 16-54: group means, last-row context and skip ratios."""

    def test_single_listened_row(self):
        out = block((row("tc", 1, skip_2=False),), row("ta", 2, skip_2=True))[0, 16:55]
        np.testing.assert_array_equal(out[:16], np.zeros(16))
        np.testing.assert_array_equal(out[16:32], TC.scalars)
        assert out[37] == 0.0 and out[38] == 0.0  # both skip ratios

    def test_skip_ratio_half(self):
        history = (
            row("tb", 1, skip_2=True),
            row("tc", 2, skip_2=False),
            row("tb", 3, skip_2=True),
            row("td", 4, skip_2=False),
        )
        targets = [row("ta", p, skip_2=False) for p in (5, 6, 7)]
        out = block(history, *targets)[0, 16:55]
        assert out[38] == 0.5

    def test_skipped_mean_energy(self):
        metas = {"t": track("t", 100.0, 2000, [0.0] * 16, [0.0])}
        hist = []
        for i, energy in enumerate((0.2, 0.4, 0.6)):
            scalars = [0.0] * 16
            scalars[ENERGY] = energy
            tid = f"e{i}"
            metas[tid] = track(tid, 100.0, 2000, scalars, [0.0])
            hist.append(row(tid, i + 1, skip_2=True))
        targets = [row("t", p, skip_2=False) for p in (4, 5)]
        out = block(hist, *targets, tracks=metas)[0, 16:55]
        assert abs(out[ENERGY] - 0.4) < 1e-15

    def test_context_from_last_row(self):
        out = block(HISTORY, TARGET, OTHER_TARGET)[0, 16:55]
        np.testing.assert_array_equal(out[32:37], [0.0, 1.0, 23.0, 31.0, 12.0])


class TestSessionTrackFeatures:
    """Columns 55-62: target-vs-group differences and dot products."""

    def test_self_difference_zero(self):
        out = block((row("ta", 1, skip_2=True),), row("ta", 2, skip_2=True))[0, 55:]
        np.testing.assert_array_equal(out[:3], np.zeros(3))
        # dot with itself is the squared norm (1 + 0 + 4)
        assert out[6] == 5.0
        np.testing.assert_array_equal(out[3:6], np.zeros(3))  # empty listened group
        assert out[7] == 0.0

    def test_orthogonal_vectors(self):
        x = track("x", 100.0, 2000, spread(1.0), [1.0, 0.0])
        y = track("y", 100.0, 2000, spread(2.0), [0.0, 3.0])
        out = block((row("y", 1, skip_2=True),), row("x", 2, skip_2=True),
                    tracks={"x": x, "y": y})[0, 55:]
        assert out[6] == 0.0

    def test_mean_duration_diff_cancels(self):
        a = track("a", 180.0, 2000, spread(1.0), [1.0])
        b = track("b", 220.0, 2000, spread(2.0), [1.0])
        target = track("t", 200.0, 2000, spread(3.0), [1.0])
        history = (row("a", 1, skip_2=True), row("b", 2, skip_2=True))
        out = block(history, row("t", 3, skip_2=True),
                    tracks={"a": a, "b": b, "t": target})[0, 55:]
        assert out[0] == 0.0


class TestAssembleExample:
    """Each target's full 63-column example row, assembled per session."""

    def test_full_fixture_oracle(self):
        out = block(HISTORY, TARGET, OTHER_TARGET)
        assert out.shape == (2, FEATURE_COUNT)
        np.testing.assert_allclose(out[0], naive_vector(TA, HISTORY, TRACKS),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(out[1], naive_vector(TB, HISTORY, TRACKS),
                                   rtol=0, atol=1e-12)
        session = Session(session_id="s0", rows=HISTORY + (TARGET, OTHER_TARGET))
        table = assemble_corpus([session], table_of(TRACKS))
        assert table.labels.tolist() == [1, 0]
        assert table.positions.tolist() == [1, 2]

    def test_hand_values_spot_checks(self):
        vec = block(HISTORY, TARGET, OTHER_TARGET)[0]
        assert vec[53] == pytest.approx(1 / 3)  # skip_1 ratio
        assert vec[54] == pytest.approx(2 / 3)  # skip_2 ratio
        assert vec[55] == -40.0  # duration vs skipped group (180, 300)
        assert vec[56] == 0.0  # year vs skipped group (2000, 2020)
        assert vec[58] == -40.0  # duration vs listened track (240)
        assert vec[59] == 20.0  # year vs listened track (1990)
        assert vec[61] == 3.25  # dots: 0.5 and 6.0
        assert vec[62] == 2.0

    def test_shared_history_block(self):
        first, second = block(HISTORY, TARGET, OTHER_TARGET)
        np.testing.assert_array_equal(first[16:55], second[16:55])
        assert not np.array_equal(first[:16], second[:16])

    def test_position_bounds(self):
        too_far = row("ta", 14, skip_2=True)
        with pytest.raises(IntegrityError, match="position"):
            block(HISTORY, too_far, OTHER_TARGET)
        not_past_history = row("ta", 3, skip_2=True)
        with pytest.raises(IntegrityError, match="position"):
            block(HISTORY, not_past_history, OTHER_TARGET)

    def test_no_targets_gives_empty_block(self):
        session = Session(session_id="s0", rows=(row("ta", 1, skip_2=False),))
        assert assemble_corpus([session], table_of(TRACKS)).x.shape == (0, FEATURE_COUNT)
        # a one-row session is not checked, even beside a valid session
        unchecked = Session(session_id="s1", rows=(row("gone", 1, False, sid="s1", length=1),))
        valid = Session(session_id="s0", rows=HISTORY + (TARGET, OTHER_TARGET))
        table = assemble_corpus([unchecked, valid], table_of(TRACKS))
        assert table.session_ids == ("s0", "s0")
        assert table.x.tobytes() == block(HISTORY, TARGET, OTHER_TARGET).tobytes()

    def test_group_permutation_invariance(self):
        base = block(HISTORY, TARGET, OTHER_TARGET)[0]
        swapped = (HISTORY[2], HISTORY[1], HISTORY[0])
        # fix up positions so only the order of group members changes
        swapped = tuple(
            row(
                r.track_id,
                i + 1,
                r.skip_2,
                skip_1=r.skip_1,
                premium=HISTORY[2].premium,
                shuffle=HISTORY[2].shuffle,
                hour=HISTORY[2].hour,
                day=HISTORY[2].day,
                month=HISTORY[2].month,
            )
            for i, r in enumerate(swapped)
        )
        other = block(swapped, TARGET, OTHER_TARGET)[0]
        np.testing.assert_allclose(other[16:32], base[16:32], atol=1e-12)
        np.testing.assert_allclose(other[53:], base[53:], atol=1e-12)


@given(flags=st.lists(st.sampled_from([0, 1, 2]), min_size=1, max_size=10))
def test_skip1_ratio_never_exceeds_skip2_ratio(flags):
    # 0 = listened, 1 = soft skip (skip_2 only), 2 = hard skip (skip_1 too)
    history = tuple(
        row("ta", i + 1, skip_2=f >= 1, skip_1=f == 2) for i, f in enumerate(flags)
    )
    h = len(history)
    targets = [row("ta", h + i + 1, skip_2=False) for i in range(h)]
    out = block(history, *targets)[0]
    assert out[53] <= out[54] + 1e-15


class TestCorpusAssembly:
    def setup_method(self):
        config = SynthConfig(n_tracks=50, n_sessions=30)
        self.tracks, self.sessions = generate_synthetic_dataset(config, seed=5)

    def test_row_count(self):
        table = assemble_corpus(self.sessions, self.tracks)
        assert len(table) == sum(s.length // 2 for s in self.sessions)
        assert table.x.shape == (len(table), FEATURE_COUNT)

    def test_every_vector_is_63_wide(self):
        for session in self.sessions:
            out = assemble_corpus([session], self.tracks).x
            assert out.shape == (len(split_session(session).targets), FEATURE_COUNT)

    def test_weighted_mean_consistency(self):
        # skipped-count * skipped-mean + listened-count * listened-mean
        # reproduces the plain history sum, feature by feature
        records = records_of(self.tracks)
        for session in self.sessions[:10]:
            h = (session.length + 1) // 2
            history = session.rows[:h]
            out = assemble_corpus([session], self.tracks).x[0, 16:55]
            n_skip = sum(r.skip_2 for r in history)
            n_listen = len(history) - n_skip
            total = np.zeros(16)
            for r in history:
                total += records[r.track_id].scalars
            recombined = n_skip * out[:16] + n_listen * out[16:32]
            np.testing.assert_allclose(recombined, total, rtol=1e-9)

    def test_csv_round_trip_is_exact(self):
        table = assemble_corpus(self.sessions, self.tracks)
        buf = io.StringIO()
        table.write_csv(buf)
        back = FeatureTable.read_csv(io.StringIO(buf.getvalue()))
        np.testing.assert_array_equal(back.x, table.x)
        np.testing.assert_array_equal(back.labels, table.labels)
        np.testing.assert_array_equal(back.positions, table.positions)
        assert back.session_ids == table.session_ids

    def test_csv_short_row_reports_line(self):
        buf = io.StringIO()
        assemble_corpus(self.sessions, self.tracks).write_csv(buf)
        lines = buf.getvalue().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]
        with pytest.raises(
            RowParseError, match=r"^expected 66 cells, got 65$"
        ) as exc_info:
            FeatureTable.read_csv(io.StringIO("\n".join(lines) + "\n"))
        assert exc_info.value.line_num == 3

    def test_csv_label_outside_0_1_reports_line(self):
        buf = io.StringIO()
        assemble_corpus(self.sessions, self.tracks).write_csv(buf)
        lines = buf.getvalue().splitlines()
        cells = lines[2].split(",")
        cells[FEATURE_COUNT] = "7"
        lines[2] = ",".join(cells)
        with pytest.raises(RowParseError, match=r"^label 7 is not 0 or 1$") as exc_info:
            FeatureTable.read_csv(io.StringIO("\n".join(lines) + "\n"))
        assert exc_info.value.line_num == 3

    @pytest.mark.parametrize("position", ["0", "11"])
    def test_csv_position_outside_1_10_reports_line(self, position):
        buf = io.StringIO()
        assemble_corpus(self.sessions, self.tracks).write_csv(buf)
        lines = buf.getvalue().splitlines()
        cells = lines[2].split(",")
        cells[-1] = position
        lines[2] = ",".join(cells)
        with pytest.raises(
            RowParseError, match=rf"^target position {position} outside \[1, 10\]$"
        ) as exc_info:
            FeatureTable.read_csv(io.StringIO("\n".join(lines) + "\n"))
        assert exc_info.value.line_num == 3

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_csv_non_finite_cell_reports_line(self, cell):
        buf = io.StringIO()
        assemble_corpus(self.sessions, self.tracks).write_csv(buf)
        lines = buf.getvalue().splitlines()
        cells = lines[2].split(",")
        cells[5] = cell
        lines[2] = ",".join(cells)
        with pytest.raises(RowParseError) as exc_info:
            FeatureTable.read_csv(io.StringIO("\n".join(lines) + "\n"))
        assert exc_info.value.line_num == 3
        assert str(exc_info.value) == (
            f"{FEATURE_NAMES[5]}={cell!r} is not a finite number"
        )

    @pytest.mark.parametrize("cell", ["1.5e308", repr(-(2.0**1023))], ids=["1.5e308", "-2**1023"])
    def test_csv_cell_of_magnitude_2_1023_reports_line(self, cell):
        # training refuses such a value, so the reader names its cell first
        buf = io.StringIO()
        assemble_corpus(self.sessions, self.tracks).write_csv(buf)
        lines = buf.getvalue().splitlines()
        cells = lines[2].split(",")
        cells[5], cells[7] = cell, "nan"
        lines[2] = ",".join(cells)
        with pytest.raises(RowParseError) as exc_info:
            FeatureTable.read_csv(io.StringIO("\n".join(lines) + "\n"))
        assert exc_info.value.line_num == 3
        assert str(exc_info.value) == (
            f"{FEATURE_NAMES[5]}={cell!r} has a magnitude of 2**1023 or more, "
            "which training refuses"
        )

    def test_csv_largest_magnitude_below_2_1023_loads(self):
        top = float(np.nextafter(2.0**1023, 0.0))
        table = assemble_corpus(self.sessions, self.tracks)
        table.x[1, 5], table.x[2, 6] = top, -top
        buf = io.StringIO()
        table.write_csv(buf)
        back = FeatureTable.read_csv(io.StringIO(buf.getvalue()))
        assert back.x.tobytes() == table.x.tobytes()

    def test_csv_read_spans_blocks_exactly_in_bounded_memory(self, tmp_path):
        # many conversion blocks; tracemalloc counts from the read's start
        rng = np.random.default_rng(3)
        n = 1549
        magnitudes = 10.0 ** rng.integers(-6, 7, (n, FEATURE_COUNT))
        table = FeatureTable(
            x=rng.standard_normal((n, FEATURE_COUNT)) * magnitudes,
            labels=rng.integers(0, 2, n),
            positions=rng.integers(1, 11, n),
            session_ids=tuple(f"s{i // 5:04d}" for i in range(n)),
        )
        path = tmp_path / "features.csv"
        with path.open("w", encoding="utf-8") as stream:
            table.write_csv(stream)
        with path.open(encoding="utf-8") as stream:
            tracemalloc.start()
            try:
                back = FeatureTable.read_csv(stream)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert back.x.tobytes() == table.x.tobytes()
        np.testing.assert_array_equal(back.labels, table.labels)
        np.testing.assert_array_equal(back.positions, table.positions)
        assert back.session_ids == table.session_ids
        assert peak <= 2 * table.x.nbytes + 500_000

        lines = path.read_text(encoding="utf-8").splitlines()
        cells = lines[1400].split(",")
        cells[FEATURE_COUNT] = "7"
        lines[1400] = ",".join(cells)
        with pytest.raises(RowParseError, match=r"^label 7 is not 0 or 1$") as exc_info:
            FeatureTable.read_csv(io.StringIO("\n".join(lines) + "\n"))
        assert exc_info.value.line_num == 1401

    def test_csv_header_is_checked(self):
        with pytest.raises(SchemaError):
            FeatureTable.read_csv(io.StringIO("a,b,c\n1,2,3\n"))

    def test_csv_empty_stream(self):
        with pytest.raises(SchemaError, match="^feature matrix file is empty$"):
            FeatureTable.read_csv(io.StringIO(""))

    @pytest.mark.parametrize(
        "column, cell, kind",
        [(0, "abc", "a number"), (FEATURE_COUNT, "x", "an integer"),
         (FEATURE_COUNT + 2, "1.5", "an integer")],
        ids=["feature", "label", "position"],
    )
    def test_csv_cell_that_does_not_parse_reports_line(self, column, cell, kind):
        buf = io.StringIO()
        assemble_corpus(self.sessions, self.tracks).write_csv(buf)
        lines = buf.getvalue().splitlines()
        cells = lines[4].split(",")
        cells[column] = cell
        lines[4] = ",".join(cells)
        with pytest.raises(RowParseError) as exc_info:
            FeatureTable.read_csv(io.StringIO("\n".join(lines) + "\n"))
        assert exc_info.value.line_num == 5
        assert str(exc_info.value) == f"cannot parse {MATRIX_COLUMNS[column]}={cell!r} as {kind}"

    def test_schema_hash_is_stable(self):
        assert feature_schema_hash() == feature_schema_hash()
        assert len(feature_schema_hash()) == 64


class TestCorpusOracle:
    """Every assembled row against the loop-based oracle and the session split."""

    def test_rows_labels_and_positions(self):
        config = SynthConfig(n_tracks=60, n_sessions=200)
        tracks, sessions = generate_synthetic_dataset(config, seed=11)
        table = assemble_corpus(sessions, tracks)
        records = records_of(tracks)
        i = 0
        empty_skipped = empty_listened = 0
        for session in sessions:
            split = split_session(session)
            n_skipped = sum(r.skip_2 for r in split.history)
            empty_skipped += n_skipped == 0
            empty_listened += n_skipped == len(split.history)
            for target in split.targets:
                expected = naive_vector(records[target.track_id], split.history, records)
                np.testing.assert_allclose(table.x[i], expected, rtol=0, atol=1e-12)
                assert table.labels[i] == int(target.skip_2)
                assert table.positions[i] == target.position - len(split.history)
                assert table.session_ids[i] == session.session_id
                i += 1
        assert i == len(table)
        assert empty_skipped > 0 and empty_listened > 0


def random_track(rng, tid, dim):
    """A track whose values span many magnitudes, so summation order shows."""
    scalars = rng.standard_normal(16) * 10.0 ** rng.integers(-6, 7, 16)
    scalars[0] = rng.uniform(0.0, 100.0)
    vector = rng.standard_normal(dim) * 10.0 ** rng.integers(-4, 5, dim)
    return track(tid, rng.uniform(30.0, 600.0), int(rng.integers(1950, 2025)),
                 scalars, vector)


def session_of(sid, track_ids, skips):
    """A session playing `track_ids` in order, skip_2 set where `skips` is."""
    n = len(track_ids)
    return Session(sid, tuple(
        row(tid, i + 1, skip_2=bool(s), length=n, sid=sid)
        for i, (tid, s) in enumerate(zip(track_ids, skips))
    ))


class TestCorpusMatchesReference:
    """`assemble_corpus` against the per-session reference, byte for byte."""

    def test_every_group_size_and_both_length_extremes(self):
        rng = np.random.default_rng(7)
        tracks = {f"t{i}": random_track(rng, f"t{i}", 7) for i in range(40)}
        ids = list(tracks)
        sessions = []
        for n_skipped in range(11):  # history of 10: groups of 0 to 10 members
            for rep in range(3):
                skips = [1] * n_skipped + [0] * (10 - n_skipped)
                skips = list(rng.permutation(skips)) + list(rng.integers(0, 2, 10))
                tids = list(rng.choice(ids, 20))
                sessions.append(session_of(f"l{n_skipped}_{rep}", tids, skips))
        for k in range(6):
            sessions.append(session_of(f"s{k}", list(rng.choice(ids, 2)), [k % 2, 0]))
        rng.shuffle(sessions)
        table = assemble_corpus(sessions, table_of(tracks))
        assert table.x.tobytes() == reference_corpus(sessions, tracks).tobytes()
        targets = [split_session(s).targets for s in sessions]
        assert table.labels.tolist() == [int(r.skip_2) for t in targets for r in t]
        assert table.session_ids == tuple(r.session_id for t in targets for r in t)
        sizes = {sum(r.skip_2 for r in split_session(s).history) for s in sessions}
        assert sizes == set(range(11))

    def test_synthetic_corpus(self):
        config = SynthConfig(n_tracks=80, n_sessions=300)
        tracks, sessions = generate_synthetic_dataset(config, seed=13)
        table = assemble_corpus(sessions, tracks)
        assert table.x.tobytes() == reference_corpus(sessions, records_of(tracks)).tobytes()


FAR_TARGET = Session("far", (row("ta", 1, False, sid="far", length=2),
                             row("tb", 14, False, sid="far", length=2)))

# sessions in corpus order, the error raised, and its message
PRECEDENCE = {
    "first bad session wins": (
        [session_of("s1", ["tb", "gone", "ta", "tc"], [1, 0, 0, 0]), FAR_TARGET],
        UnknownTrackError, "session 's1' position 2: unknown track_id 'gone'",
    ),
    "position before tracks": (
        [Session("far", (row("gone", 1, False, sid="far", length=2),
                         row("gone", 13, False, sid="far", length=2)))],
        IntegrityError,
        "target position 12 outside [1, 10]; target row position 13 with "
        "history length 1",
    ),
    "target before history": (
        [session_of("s0", ["gone_h", "tb", "ta", "gone_t"], [0, 1, 0, 0])],
        UnknownTrackError, "session 's0' position 4: unknown track_id 'gone_t'",
    ),
    "skipped before listened": (
        [session_of("s0", ["gone_l", "gone_s", "ta", "tb"], [0, 1, 0, 0])],
        UnknownTrackError, "session 's0' position 2: unknown track_id 'gone_s'",
    ),
}


@pytest.mark.parametrize("case", PRECEDENCE)
def test_error_precedence(case):
    sessions, error, message = PRECEDENCE[case]
    with pytest.raises(error) as exc_info:
        assemble_corpus(sessions, table_of(TRACKS))
    assert str(exc_info.value) == message
    with pytest.raises(error):  # the per-session reference agrees
        reference_corpus(sessions, TRACKS)


def reference_first_error(sessions, track_map):
    """The per-session check loop that assemble_corpus's array checks
    replaced: the type and message of the first error, or None."""
    for session in sessions:
        split = split_session(session)
        if not split.targets:
            continue
        h = len(split.history)
        for r in split.targets:
            if not 1 <= r.position - h <= 10:
                return IntegrityError, (
                    f"target position {r.position - h} outside [1, 10]; target "
                    f"row position {r.position} with history length {h}"
                )
        skipped = [r for r in split.history if r.skip_2]
        listened = [r for r in split.history if not r.skip_2]
        try:
            for r in [*split.targets, *skipped, *listened]:
                known(track_map, r)
        except SkipcastError as exc:
            return type(exc), str(exc)
    return None


def test_first_error_matches_per_session_loop():
    # random corpora with a few unknown tracks, shifted positions, one-row
    # sessions and sessions of unknown tracks only
    rng = np.random.default_rng(21)
    tracks = {f"t{i}": random_track(rng, f"t{i}", 3) for i in range(12)}
    table = table_of(tracks)
    ids = list(tracks)
    outcomes = set()
    for _ in range(400):
        sessions = []
        for k in range(int(rng.integers(1, 6))):
            n = int(rng.integers(1, 9))
            unknown = rng.random(n) < 0.02  # per row
            tids = ["gone" if u else str(rng.choice(ids)) for u in unknown]
            if rng.random() < 0.03:  # no track of the session is known
                tids = ["gone"] * n
            positions = np.arange(1, n + 1) + (rng.random(n) < 0.03) * int(rng.integers(-3, 12))
            sessions.append(Session(f"s{k}", tuple(
                row(t, int(p), skip_2=bool(rng.random() < 0.5), sid=f"s{k}", length=n)
                for t, p in zip(tids, positions)
            )))
        want = reference_first_error(sessions, tracks)
        try:
            assemble_corpus(sessions, table)
            got = None
        except SkipcastError as exc:
            got = type(exc), str(exc)
        assert got == want
        outcomes.add(want[0] if want else None)
    assert outcomes == {None, UnknownTrackError, IntegrityError}
