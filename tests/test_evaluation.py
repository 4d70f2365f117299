"""Tests for average accuracy, corpus aggregation, and the solution report."""

import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skipcast.datamodel import Session, SessionRow
from skipcast.errors import DimensionError
from skipcast.evaluation import (
    SolutionRow,
    average_accuracy,
    compare,
    corpus_scores,
    CorpusScore,
    format_report_text,
    session_truth,
    solutions_report,
    write_report_csv,
)


def aa_direct(decisions, truth):
    """O(n^2) restatement of the metric: A(i) recomputed from scratch."""
    hits = [1 if d == t else 0 for d, t in zip(decisions, truth)]
    n = len(hits)
    return sum(hits[i] * sum(hits[: i + 1]) / (i + 1) for i in range(n)) / n


def loop_average_accuracy(decisions, truth):
    """The running-accuracy loop as it stood before corpus scoring: the oracle."""
    total = 0.0
    correct = 0
    for i in range(decisions.size):
        if decisions[i] == truth[i]:
            correct += 1
            total += correct / (i + 1)
    return total / decisions.size


def report(truths, decisions, solutions):
    """solutions_report of per-session truths and decisions, stacked."""
    return solutions_report(
        np.array([t.size for t in truths]),
        np.concatenate(truths),
        [np.concatenate(stored) for stored in decisions],
        solutions=solutions,
    )


def all_bit_vectors(n):
    return list(itertools.product([False, True], repeat=n))


class TestAverageAccuracy:
    def test_hand_worked_case(self):
        # L = (1, 0, 1): contributions 1/1 and 2/3, averaged over 3
        got = average_accuracy([True, False, True], [True, True, True])
        assert got == pytest.approx(5.0 / 9.0, abs=1e-12)

    def test_all_correct(self):
        assert average_accuracy([True, False], [True, False]) == 1.0

    def test_all_wrong(self):
        assert average_accuracy([True, True], [False, False]) == 0.0

    def test_single_prediction(self):
        assert average_accuracy([True], [True]) == 1.0
        assert average_accuracy([True], [False]) == 0.0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_exhaustive_against_direct_formula(self, n):
        for decisions in all_bit_vectors(n):
            for truth in all_bit_vectors(n):
                got = average_accuracy(decisions, truth)
                assert got == pytest.approx(aa_direct(decisions, truth), abs=1e-12)

    def test_random_long_sequences_match_direct_formula(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(1, 300))
            decisions = rng.integers(0, 2, n).astype(bool)
            truth = rng.integers(0, 2, n).astype(bool)
            got = average_accuracy(decisions, truth)
            assert got == pytest.approx(aa_direct(decisions, truth), abs=1e-12)

    def test_complement_invariance(self):
        # flipping both vectors preserves every match indicator
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            d = rng.integers(0, 2, n).astype(bool)
            t = rng.integers(0, 2, n).astype(bool)
            assert average_accuracy(d, t) == average_accuracy(~d, ~t)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_zero_iff_nothing_correct(self, n):
        for decisions in all_bit_vectors(n):
            for truth in all_bit_vectors(n):
                aa = average_accuracy(decisions, truth)
                any_correct = any(d == t for d, t in zip(decisions, truth))
                assert (aa == 0.0) == (not any_correct)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            average_accuracy([True, False], [True])

    def test_empty_sequences(self):
        with pytest.raises(ValueError, match="zero predictions"):
            average_accuracy([], [])


class TestCorpusScores:
    def test_means_over_sessions(self):
        pairs = [
            ([True], [True]),  # aa 1, first hit
            ([True, True], [False, False]),  # aa 0, first miss
        ]
        got = corpus_scores(pairs)
        assert got.maa == pytest.approx(0.5, abs=1e-15)
        assert got.fpa == pytest.approx(0.5, abs=1e-15)
        assert got.n_sessions == 2

    def test_matches_naive_reimplementation(self):
        rng = np.random.default_rng(31)
        pairs = []
        for _ in range(60):
            n = int(rng.integers(1, 11))
            pairs.append(
                (rng.integers(0, 2, n).astype(bool), rng.integers(0, 2, n).astype(bool))
            )
        got = corpus_scores(pairs)
        naive_maa = sum(aa_direct(d, t) for d, t in pairs) / len(pairs)
        naive_fpa = sum(1 for d, t in pairs if d[0] == t[0]) / len(pairs)
        assert got.maa == pytest.approx(naive_maa, abs=1e-12)
        assert got.fpa == pytest.approx(naive_fpa, abs=1e-12)

    def test_session_order_is_irrelevant(self):
        rng = np.random.default_rng(37)
        pairs = [
            (rng.integers(0, 2, 5).astype(bool), rng.integers(0, 2, 5).astype(bool))
            for _ in range(20)
        ]
        a = corpus_scores(pairs)
        b = corpus_scores(list(reversed(pairs)))
        assert a.maa == pytest.approx(b.maa, abs=1e-12)
        assert a.fpa == pytest.approx(b.fpa, abs=1e-12)

    def test_fpa_reads_only_the_first_slot(self):
        assert corpus_scores([([True, False], [True, True])]).fpa == 1.0
        assert corpus_scores([([False, True], [True, True])]).fpa == 0.0

    def test_empty_corpus(self):
        with pytest.raises(ValueError, match="at least one session"):
            corpus_scores([])


class TestCompare:
    def test_higher_maa_wins(self):
        lhs = CorpusScore(maa=0.554, fpa=0.735, n_sessions=10)
        rhs = CorpusScore(maa=0.551, fpa=0.735, n_sessions=10)
        assert compare(lhs, rhs) == 1
        assert compare(rhs, lhs) == -1

    def test_fpa_breaks_exact_maa_tie(self):
        lhs = CorpusScore(maa=0.550, fpa=0.742, n_sessions=10)
        rhs = CorpusScore(maa=0.550, fpa=0.741, n_sessions=10)
        assert compare(lhs, rhs) == 1
        assert compare(rhs, lhs) == -1

    def test_full_tie(self):
        score = CorpusScore(maa=0.5, fpa=0.5, n_sessions=3)
        assert compare(score, score) == 0


def make_session(sid, flags):
    n = len(flags)
    rows = tuple(
        SessionRow(
            session_id=sid,
            position=i + 1,
            session_length=n,
            track_id=f"t{i}",
            skip_1=False,
            skip_2=flag,
            skip_3=flag,
            premium=True,
            shuffle=False,
            hour=10,
            day=5,
            month=6,
        )
        for i, flag in enumerate(flags)
    )
    return Session(session_id=sid, rows=rows)


class TestSolutionsReport:
    def sessions(self):
        return [
            make_session("s1", [True, False, True, False]),
            make_session("s2", [False, False, True, True, False, True]),
            make_session("s3", [True, True]),
        ]

    def test_session_truth_reads_target_half(self):
        truth = session_truth(make_session("s1", [True, False, True, False]))
        assert truth.tolist() == [True, False]  # ceiling half is history

    def test_perfect_predictor_scores_one(self):
        truths = [session_truth(s) for s in self.sessions()]
        rows = report(truths, [truths] * 3, solutions=[1, 2, 3])
        assert [r.solution for r in rows] == [1, 2, 3]
        assert all(r.maa == 1.0 and r.fpa == 1.0 for r in rows)

    def test_rows_sorted_by_maa_ascending(self):
        truths = [session_truth(s) for s in self.sessions()]

        def last_flipped(truth):
            flipped = truth.copy()
            flipped[-1] = ~flipped[-1]
            return flipped  # right except the last slot

        decisions = [
            truths,  # solution 2: always right
            [~t for t in truths],  # solution 1: always wrong
            [last_flipped(t) for t in truths],  # solution 3
        ]
        rows = report(truths, decisions, solutions=[2, 1, 3])
        assert [r.solution for r in rows] == [1, 3, 2]
        maas = [r.maa for r in rows]
        assert maas == sorted(maas)

    def test_exact_maa_tie_ranks_by_fpa(self):
        sessions = [
            make_session("s1", [True, False, True, False]),
            make_session("s2", [False, True, False, True]),
        ]
        truths = [session_truth(s) for s in sessions]
        # solution 1: AA 1.0 on s1, 0.0 on s2: MAA 0.5, FPA 0.5
        first = [truths[0], ~truths[1]]
        # solution 2: AA 0.5 on both: MAA 0.5, FPA 1.0
        second = [t.copy() for t in truths]
        for flipped in second:
            flipped[1] = ~flipped[1]
        rows = report(truths, [second, first], solutions=[2, 1])
        assert [(r.solution, r.maa, r.fpa) for r in rows] == [
            (1, 0.5, 0.5),
            (2, 0.5, 1.0),
        ]

    @pytest.mark.parametrize(
        "truth, stored, match",
        [
            (np.zeros(4, dtype=bool), np.zeros(5, dtype=bool), r"truth shape \(4,\) for 5 slots"),
            (np.zeros(5, dtype=bool), np.zeros(4, dtype=bool), r"decisions shape \(4,\) !="),
            (np.zeros(5, dtype=bool), np.zeros((5, 1), dtype=bool), r"decisions shape \(5, 1\) !="),
        ],
        ids=["truth short", "decisions short", "decisions 2-D"],
    )
    def test_shapes_rejected(self, truth, stored, match):
        with pytest.raises(DimensionError, match=match):
            solutions_report(np.array([2, 3]), truth, [stored], [1])

    def test_equal_scores_keep_request_order(self):
        truths = [session_truth(s) for s in self.sessions()]
        rows = report(truths, [truths, truths], solutions=[7, 4])
        assert [r.solution for r in rows] == [7, 4]  # stable sort

    def test_report_csv_bytes(self):
        rows = [
            SolutionRow(solution=9, maa=0.625, fpa=0.75),
            SolutionRow(solution=1, maa=1.0, fpa=1.0),
        ]
        buf = io.StringIO()
        write_report_csv(rows, buf)
        assert buf.getvalue() == (
            "solution,maa,first_prediction_accuracy\n"
            "9,0.625,0.75\n"
            "1,1.0,1.0\n"
        )

    def test_report_text_layout(self):
        rows = [SolutionRow(solution=9, maa=0.625, fpa=0.75)]
        text = format_report_text(rows)
        lines = text.splitlines()
        assert lines[0].startswith("Solution")
        assert "Solution 9" in lines[1]
        assert "0.6250" in lines[1] and "0.7500" in lines[1]


@st.composite
def scored_corpora(draw, max_targets=10):
    """(decisions, truth) bool pairs of 1..max_targets slots, one per session."""
    counts = draw(st.lists(st.integers(1, max_targets), min_size=1, max_size=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    accuracy = draw(st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0]))
    pairs = []
    for n in counts:
        truth = rng.random(n) < 0.5
        pairs.append((truth ^ (rng.random(n) >= accuracy), truth))
    return pairs


class TestLoopOracle:
    """AA, MAA and FPA against the original per-session loop, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(pairs=scored_corpora(max_targets=40))
    def test_average_accuracy_equals_loop(self, pairs):
        for decisions, truth in pairs:
            got = average_accuracy(decisions, truth)
            assert got == loop_average_accuracy(decisions, truth)

    @settings(max_examples=150, deadline=None)
    @given(pairs=scored_corpora())
    def test_corpus_scores_equal_loop(self, pairs):
        got = corpus_scores(pairs)
        assert got.maa == float(np.mean([loop_average_accuracy(d, t) for d, t in pairs]))
        assert got.fpa == float(np.mean([d[0] == t[0] for d, t in pairs]))
        assert got.n_sessions == len(pairs)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_solutions_report_equals_loop(self, data):
        pairs = data.draw(scored_corpora())
        odd = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        solutions = [4, 7, 2]
        sessions, stored = [], {4: [], 7: [], 2: []}
        for k, ((decisions, truth), extra) in enumerate(zip(pairs, odd)):
            # the truth is the target half; the history half is all 0
            history = [False] * (truth.size + extra)
            sessions.append(make_session(f"s{k}", history + truth.tolist()))
            stored[4].append(decisions)
            stored[7].append(truth ^ (rng.random(truth.size) < 0.3))
            stored[2].append(rng.random(truth.size) < 0.5)
        rows = report(
            [session_truth(s) for s in sessions],
            [stored[k] for k in solutions],
            solutions=solutions,
        )
        want = {}
        for solution in solutions:
            scored = [(d, t) for d, (_, t) in zip(stored[solution], pairs)]
            want[solution] = (
                float(np.mean([loop_average_accuracy(d, t) for d, t in scored])),
                float(np.mean([d[0] == t[0] for d, t in scored])),
            )
        assert [(r.solution, r.maa, r.fpa) for r in rows] == sorted(
            ((k, *want[k]) for k in solutions), key=lambda r: (r[1], r[2])
        )
