"""Feature extraction against hand-computed and independently coded oracles."""

import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from skipcast.datamodel import (
    SCALAR_FEATURE_NAMES,
    Session,
    SessionRow,
    TrackMetadata,
    split_session,
)
from skipcast.errors import (
    DimensionError,
    IntegrityError,
    RowParseError,
    SchemaError,
    UnknownTrackError,
)
from skipcast.features import (
    FEATURE_COUNT,
    FEATURE_NAMES,
    FeatureTable,
    assemble_corpus,
    feature_schema_hash,
    session_features,
)
from skipcast.synthetic import SynthConfig, generate_synthetic_dataset

ENERGY = SCALAR_FEATURE_NAMES.index("energy")


def track(tid, duration, year, scalars, vector):
    scalars = np.asarray(scalars, dtype=np.float64)
    return TrackMetadata(
        track_id=tid,
        duration_s=float(duration),
        release_year=year,
        scalars=scalars,
        acoustic_vector=np.asarray(vector, dtype=np.float64),
    )


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
    """session_features of the session made of `history` then `targets`."""
    rows = tuple(history) + targets
    assert (len(rows) + 1) // 2 == len(history)  # the split keeps this history
    return session_features(Session(session_id="s0", rows=rows), tracks)


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

    def test_wrong_scalar_count(self):
        narrow = track("n", 100.0, 2000, [0.0] * 15, [0.0])
        with pytest.raises(DimensionError, match="scalar"):
            block((row("n", 1, skip_2=False),), row("n", 2, skip_2=True),
                  tracks={"n": narrow})

    def test_unknown_track(self):
        with pytest.raises(UnknownTrackError, match="missing"):
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

    def test_dimension_mismatch(self):
        short = track("short", 100.0, 2000, spread(1.0), [1.0, 2.0])
        with pytest.raises(IntegrityError, match="dimension"):
            block((row("short", 1, skip_2=True),), row("ta", 2, skip_2=True),
                  tracks={"short": short, "ta": TA})


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
        table = assemble_corpus([session], TRACKS)
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
        assert session_features(session, TRACKS).shape == (0, FEATURE_COUNT)

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
        self.track_map, self.sessions = generate_synthetic_dataset(config, seed=5)

    def test_row_count(self):
        table = assemble_corpus(self.sessions, self.track_map)
        assert len(table) == sum(s.length // 2 for s in self.sessions)
        assert table.x.shape == (len(table), FEATURE_COUNT)

    def test_every_vector_is_63_wide(self):
        for session in self.sessions:
            out = session_features(session, self.track_map)
            assert out.shape == (len(split_session(session).targets), FEATURE_COUNT)

    def test_weighted_mean_consistency(self):
        # skipped-count * skipped-mean + listened-count * listened-mean
        # reproduces the plain history sum, feature by feature
        for session in self.sessions[:10]:
            h = (session.length + 1) // 2
            history = session.rows[:h]
            out = session_features(session, self.track_map)[0, 16:55]
            n_skip = sum(r.skip_2 for r in history)
            n_listen = len(history) - n_skip
            total = np.zeros(16)
            for r in history:
                total += self.track_map[r.track_id].scalars
            recombined = n_skip * out[:16] + n_listen * out[16:32]
            np.testing.assert_allclose(recombined, total, rtol=1e-9)

    def test_csv_round_trip_is_exact(self):
        table = assemble_corpus(self.sessions, self.track_map)
        buf = io.StringIO()
        table.write_csv(buf)
        back = FeatureTable.read_csv(io.StringIO(buf.getvalue()))
        np.testing.assert_array_equal(back.x, table.x)
        np.testing.assert_array_equal(back.labels, table.labels)
        np.testing.assert_array_equal(back.positions, table.positions)
        assert back.session_ids == table.session_ids

    def test_csv_short_row_reports_line(self):
        buf = io.StringIO()
        assemble_corpus(self.sessions, self.track_map).write_csv(buf)
        lines = buf.getvalue().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]
        with pytest.raises(RowParseError, match="line 3") as exc_info:
            FeatureTable.read_csv(io.StringIO("\n".join(lines) + "\n"))
        assert exc_info.value.line_num == 3

    def test_csv_label_outside_0_1_reports_line(self):
        buf = io.StringIO()
        assemble_corpus(self.sessions, self.track_map).write_csv(buf)
        lines = buf.getvalue().splitlines()
        cells = lines[2].split(",")
        cells[FEATURE_COUNT] = "7"
        lines[2] = ",".join(cells)
        with pytest.raises(RowParseError, match="line 3") as exc_info:
            FeatureTable.read_csv(io.StringIO("\n".join(lines) + "\n"))
        assert exc_info.value.line_num == 3

    def test_csv_header_is_checked(self):
        with pytest.raises(SchemaError):
            FeatureTable.read_csv(io.StringIO("a,b,c\n1,2,3\n"))

    def test_schema_hash_is_stable(self):
        assert feature_schema_hash() == feature_schema_hash()
        assert len(feature_schema_hash()) == 64


class TestCorpusOracle:
    """Every assembled row against the loop-based oracle and the session split."""

    def test_rows_labels_and_positions(self):
        config = SynthConfig(n_tracks=60, n_sessions=200)
        track_map, sessions = generate_synthetic_dataset(config, seed=11)
        table = assemble_corpus(sessions, track_map)
        i = 0
        empty_skipped = empty_listened = 0
        for session in sessions:
            split = split_session(session)
            n_skipped = sum(r.skip_2 for r in split.history)
            empty_skipped += n_skipped == 0
            empty_listened += n_skipped == len(split.history)
            for target in split.targets:
                expected = naive_vector(
                    track_map[target.track_id], split.history, track_map
                )
                np.testing.assert_allclose(table.x[i], expected, rtol=0, atol=1e-12)
                assert table.labels[i] == int(target.skip_2)
                assert table.positions[i] == target.position - len(split.history)
                assert table.session_ids[i] == session.session_id
                i += 1
        assert i == len(table)
        assert empty_skipped > 0 and empty_listened > 0
