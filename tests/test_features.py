"""Feature extraction against hand-computed and independently coded oracles."""

import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from skipcast.datamodel import SCALAR_FEATURE_NAMES, Session, SessionRow, TrackMetadata
from skipcast.errors import IntegrityError, RowParseError, SchemaError
from skipcast.features import (
    FEATURE_COUNT,
    FEATURE_NAMES,
    FeatureTable,
    assemble_corpus,
    assemble_example,
    assemble_session_examples,
    feature_schema_hash,
    session_history_features,
    session_track_features,
    track_features,
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
    def test_canonical_order(self):
        out = track_features(TA)
        assert out[0] == TA.popularity
        assert out[15] == TA.scalars[15]
        assert FEATURE_NAMES[0] == "track_popularity"
        assert FEATURE_NAMES[15] == "track_valence"

    def test_zeros_pass_through(self):
        zero = track("z", 100.0, 2000, [0.0] * 16, [0.0])
        np.testing.assert_array_equal(track_features(zero), np.zeros(16))

    def test_pure(self):
        first = track_features(TA)
        second = track_features(TA)
        np.testing.assert_array_equal(first, second)
        first[0] = -1.0  # returned arrays are copies
        assert TA.scalars[0] == TA.popularity


class TestHistoryFeatures:
    def test_single_listened_row(self):
        history = (row("tc", 1, skip_2=False),)
        out = session_history_features(history, TRACKS)
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
        out = session_history_features(history, TRACKS)
        assert out[38] == 0.5

    def test_skipped_mean_energy(self):
        metas = {}
        hist = []
        for i, energy in enumerate((0.2, 0.4, 0.6)):
            scalars = [0.0] * 16
            scalars[ENERGY] = energy
            tid = f"e{i}"
            metas[tid] = track(tid, 100.0, 2000, scalars, [0.0])
            hist.append(row(tid, i + 1, skip_2=True))
        out = session_history_features(tuple(hist), metas)
        assert abs(out[ENERGY] - 0.4) < 1e-15

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            session_history_features((), TRACKS)

    def test_context_from_last_row(self):
        out = session_history_features(HISTORY, TRACKS)
        np.testing.assert_array_equal(out[32:37], [0.0, 1.0, 23.0, 31.0, 12.0])


class TestSessionTrackFeatures:
    def test_self_difference_zero(self):
        history = (row("ta", 1, skip_2=True),)
        out = session_track_features(TA, history, TRACKS)
        np.testing.assert_array_equal(out[:3], np.zeros(3))
        # dot with itself is the squared norm (1 + 0 + 4)
        assert out[6] == 5.0
        np.testing.assert_array_equal(out[3:6], np.zeros(3))  # empty listened group
        assert out[7] == 0.0

    def test_orthogonal_vectors(self):
        x = track("x", 100.0, 2000, spread(1.0), [1.0, 0.0])
        y = track("y", 100.0, 2000, spread(2.0), [0.0, 3.0])
        out = session_track_features(x, (row("y", 1, skip_2=True),), {"y": y})
        assert out[6] == 0.0

    def test_mean_duration_diff_cancels(self):
        a = track("a", 180.0, 2000, spread(1.0), [1.0])
        b = track("b", 220.0, 2000, spread(2.0), [1.0])
        target = track("t", 200.0, 2000, spread(3.0), [1.0])
        history = (row("a", 1, skip_2=True), row("b", 2, skip_2=True))
        out = session_track_features(target, history, {"a": a, "b": b})
        assert out[0] == 0.0

    def test_dimension_mismatch(self):
        short = track("short", 100.0, 2000, spread(1.0), [1.0, 2.0])
        with pytest.raises(IntegrityError, match="dimension"):
            session_track_features(TA, (row("short", 1, skip_2=True),), {"short": short})


class TestAssembleExample:
    def test_full_fixture_oracle(self):
        example = assemble_example(TARGET, HISTORY, TRACKS)
        expected = naive_vector(TA, HISTORY, TRACKS)
        assert example.features.shape == (FEATURE_COUNT,)
        np.testing.assert_allclose(example.features, expected, rtol=0, atol=1e-12)
        assert example.label is True
        assert example.target_position == 1

    def test_hand_values_spot_checks(self):
        vec = assemble_example(TARGET, HISTORY, TRACKS).features
        assert vec[53] == pytest.approx(1 / 3)  # skip_1 ratio
        assert vec[54] == pytest.approx(2 / 3)  # skip_2 ratio
        assert vec[55] == -40.0  # duration vs skipped group (180, 300)
        assert vec[56] == 0.0  # year vs skipped group (2000, 2020)
        assert vec[58] == -40.0  # duration vs listened track (240)
        assert vec[59] == 20.0  # year vs listened track (1990)
        assert vec[61] == 3.25  # dots: 0.5 and 6.0
        assert vec[62] == 2.0

    def test_shared_history_block(self):
        other_target = row("tb", 5, skip_2=False)
        first = assemble_example(TARGET, HISTORY, TRACKS).features
        second = assemble_example(other_target, HISTORY, TRACKS).features
        np.testing.assert_array_equal(first[16:55], second[16:55])
        assert not np.array_equal(first[:16], second[:16])

    def test_position_bounds(self):
        too_far = row("ta", 14, skip_2=True)
        with pytest.raises(IntegrityError, match="position"):
            assemble_example(too_far, HISTORY, TRACKS)
        not_past_history = row("ta", 3, skip_2=True)
        with pytest.raises(IntegrityError, match="position"):
            assemble_example(not_past_history, HISTORY, TRACKS)

    def test_group_permutation_invariance(self):
        base = assemble_example(TARGET, HISTORY, TRACKS).features
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
        other = assemble_example(TARGET, swapped, TRACKS).features
        np.testing.assert_allclose(other[16:32], base[16:32], atol=1e-12)
        np.testing.assert_allclose(other[53:], base[53:], atol=1e-12)


@given(flags=st.lists(st.sampled_from([0, 1, 2]), min_size=1, max_size=10))
def test_skip1_ratio_never_exceeds_skip2_ratio(flags):
    # 0 = listened, 1 = soft skip (skip_2 only), 2 = hard skip (skip_1 too)
    history = tuple(
        row("ta", i + 1, skip_2=f >= 1, skip_1=f == 2) for i, f in enumerate(flags)
    )
    out = session_history_features(history, TRACKS)
    assert out[37] <= out[38] + 1e-15


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
            for example in assemble_session_examples(session, self.track_map):
                assert example.features.shape == (FEATURE_COUNT,)

    def test_weighted_mean_consistency(self):
        # skipped-count * skipped-mean + listened-count * listened-mean
        # reproduces the plain history sum, feature by feature
        for session in self.sessions[:10]:
            h = (session.length + 1) // 2
            history = session.rows[:h]
            out = session_history_features(history, self.track_map)
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

    def test_csv_header_is_checked(self):
        with pytest.raises(SchemaError):
            FeatureTable.read_csv(io.StringIO("a,b,c\n1,2,3\n"))

    def test_schema_hash_is_stable(self):
        assert feature_schema_hash() == feature_schema_hash()
        assert len(feature_schema_hash()) == 64
