"""Tests for the twelve score-combination strategies.

Every strategy is checked against an independent scalar reimplementation of
its formula, plus hand-worked examples with known outputs.
"""

import io
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from skipcast.ensemble import (
    DEFAULT_WEIGHTS,
    SOLUTION_IDS,
    CorpusPrediction,
    EnsembleWeights,
    binarize,
    combine,
    combine_corpus,
    exponential_weights,
    linear_weights,
    soften,
    write_scores,
    write_submission,
)
from skipcast.errors import ConfigError, DimensionError, DomainError


def ref_scores(solution, m, s0_hard, weights=DEFAULT_WEIGHTS):
    """Scalar re-derivation of every strategy, kept free of numpy on purpose."""
    n = len(m)
    if solution in (3, 5):
        s0 = 0.6 if s0_hard >= 0.5 else 0.4
    else:
        s0 = float(s0_hard)
    out = []
    prev = s0
    for i in range(1, n + 1):
        row = m[i - 1]
        if solution == 1:
            s = row[i - 1]
        elif solution in (2, 3):
            s = 0.5 * row[i - 1] + 0.5 * s0
        elif solution in (4, 5):
            s = 0.5 * (sum(row[:i]) / i) + 0.5 * s0
        elif solution in (6, 7):
            q = sum(row[:5]) / 5.0
            w = sum(row[5:]) / 5.0
            if i <= 5:
                s = 0.4 * s0 + 0.4 * q + 0.2 * w
            elif solution == 6:
                s = 0.2 * s0 + 0.5 * q + 0.3 * w
            else:
                s = 0.4 * s0 + 0.3 * q + 0.3 * w
        elif solution in (8, 11):
            mix = 0.5 if solution == 8 else 0.4
            row_mean = sum(row[:n]) / n
            prev = (1.0 - mix) * row_mean + mix * prev
            s = prev
        else:
            if solution == 12:
                raw = [weights.exp_base ** -abs(i - j) for j in range(1, 11)]
            else:
                raw = [weights.linear_offset - abs(i - j) for j in range(1, 11)]
            total = sum(raw)
            blended = sum(r / total * row[j] for j, r in enumerate(raw))
            if solution == 10:
                alpha = weights.fixed_prior
            else:
                alpha = weights.alpha_scale * (11 - i) / 10.0
            s = alpha * s0 + (1.0 - alpha) * blended
        out.append(min(1.0, max(0.0, s)))
    return out


def per_session_combine(solution, matrix, s0_hard, weights=DEFAULT_WEIGHTS):
    """The per-session strategy code as it stood before corpus scoring.

    Kept here verbatim as the bit-exact oracle: every sum, mean and dot
    product runs in the order and shape of the original numpy calls.
    """
    n = matrix.shape[0]
    if solution in (3, 5):
        s0 = 0.6 if s0_hard >= 0.5 else 0.4
    else:
        s0 = float(s0_hard)
    diag = np.array([matrix[i - 1, i - 1] for i in range(1, n + 1)])
    j = np.arange(1, 11, dtype=np.float64)
    if solution == 1:
        scores = diag
    elif solution in (2, 3):
        scores = 0.5 * diag + 0.5 * s0
    elif solution in (4, 5):
        q = np.array([matrix[i - 1, :i].mean() for i in range(1, n + 1)])
        scores = 0.5 * q + 0.5 * s0
    elif solution in (6, 7):
        q = matrix[:, :5].mean(axis=1)
        w = matrix[:, 5:].mean(axis=1)
        early = 0.4 * s0 + 0.4 * q + 0.2 * w
        if solution == 6:
            late = 0.2 * s0 + 0.5 * q + 0.3 * w
        else:
            late = 0.4 * s0 + 0.3 * q + 0.3 * w
        scores = np.where(np.arange(1, n + 1) <= 5, early, late)
    elif solution in (8, 11):
        row_mean = matrix[:, :n].mean(axis=1)
        mix = 0.5 if solution == 8 else 0.4
        scores = np.empty(n)
        prev = s0
        for i in range(n):
            prev = (1.0 - mix) * row_mean[i] + mix * prev
            scores[i] = prev
    else:
        scores = np.empty(n)
        for i in range(1, n + 1):
            if solution == 12:
                raw = weights.exp_base ** (-np.abs(i - j))
            else:
                raw = weights.linear_offset - np.abs(i - j)
            w = raw / raw.sum()
            blended = float(w @ matrix[i - 1])
            if solution == 10:
                alpha = weights.fixed_prior
            else:
                alpha = weights.alpha_scale * (11 - i) / 10.0
            scores[i - 1] = alpha * s0 + (1.0 - alpha) * blended
    return np.clip(scores, 0.0, 1.0)


@st.composite
def corpora(draw):
    """Sessions of 1..10 targets, both last actions, default or drawn weights."""
    counts = draw(st.lists(st.integers(1, 10), min_size=1, max_size=8))
    s0s = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=len(counts),
                        max_size=len(counts)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = rng.random((sum(counts), 10))
    if draw(st.booleans()):
        matrix = np.round(matrix, 1)  # exact ties and the 0.5 boundary
    weights = draw(st.one_of(
        st.just(DEFAULT_WEIGHTS),
        st.builds(
            EnsembleWeights,
            linear_offset=st.floats(9.5, 40.0),
            alpha_scale=st.floats(0.0, 1.0),
            fixed_prior=st.floats(0.0, 1.0),
            exp_base=st.floats(1.01, 8.0),
        ),
    ))
    return counts, s0s, matrix, weights


class TestCorpusOracle:
    """Corpus scoring against the per-session code, bit for bit.

    Each drawn corpus mixes session lengths and is scored in one call.
    """

    @settings(max_examples=150, deadline=None)
    @given(corpus=corpora())
    @example(corpus=(list(range(1, 11)), [0.0, 1.0] * 5,
                     np.random.default_rng(5).random((55, 10)), DEFAULT_WEIGHTS))
    def test_every_strategy_matches_per_session_copy(self, corpus):
        counts, s0s, matrix, weights = corpus
        stops = np.cumsum(counts)
        for solution in SOLUTION_IDS:
            want = np.concatenate([
                per_session_combine(solution, matrix[stop - n:stop], s0, weights)
                for stop, n, s0 in zip(stops, counts, s0s)
            ])
            got = combine_corpus(solution, matrix, counts, s0s, weights)
            assert got.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), solution


def random_matrix(rng, n=None):
    if n is None:
        n = int(rng.integers(1, 11))
    return rng.random((n, 10))


class TestAgainstReference:
    @pytest.mark.parametrize("solution", SOLUTION_IDS)
    def test_matches_scalar_formula(self, solution):
        rng = np.random.default_rng(solution)
        for _ in range(60):
            m = random_matrix(rng)
            s0 = float(rng.integers(0, 2))
            got = combine(solution, m, s0)
            want = ref_scores(solution, m.tolist(), s0)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("solution", SOLUTION_IDS)
    def test_scores_stay_in_unit_interval(self, solution):
        rng = np.random.default_rng(100 + solution)
        for _ in range(40):
            m = random_matrix(rng)
            s0 = float(rng.integers(0, 2))
            scores = combine(solution, m, s0)
            assert np.all(scores >= 0.0) and np.all(scores <= 1.0)

    def test_constant_inputs_are_a_fixed_point(self):
        # Convex combinations of equal values reproduce the value; the
        # softened strategies swap in 0.4 for a sub-threshold prior instead.
        c = 0.3
        m = np.full((4, 10), c)
        for solution in SOLUTION_IDS:
            scores = combine(solution, m, c)
            if solution in (3, 5):
                expected = 0.5 * c + 0.5 * 0.4
            else:
                expected = c
            np.testing.assert_allclose(scores, expected, rtol=0, atol=1e-12)


class TestHandExamples:
    def test_solution_1_reads_the_diagonal(self):
        m = np.full((3, 10), 0.9)
        m[0, 0], m[1, 1], m[2, 2] = 0.1, 0.2, 0.3
        np.testing.assert_allclose(combine(1, m, 1.0), [0.1, 0.2, 0.3], atol=1e-15)

    def test_solution_2_half_and_half(self):
        m = np.full((1, 10), 0.8)
        assert combine(2, m, 1.0)[0] == 0.9

    def test_solution_3_softens_the_prior(self):
        m = np.full((1, 10), 0.8)
        assert combine(3, m, 1.0)[0] == pytest.approx(0.5 * 0.8 + 0.5 * 0.6, abs=1e-15)
        assert combine(3, m, 0.0)[0] == pytest.approx(0.5 * 0.8 + 0.5 * 0.4, abs=1e-15)

    def test_solution_4_averages_first_models(self):
        m = np.full((3, 10), 0.9)
        m[2, 0], m[2, 1], m[2, 2] = 0.2, 0.4, 0.6
        # Q_3 = mean(0.2, 0.4, 0.6) = 0.4; score = 0.5*0.4 + 0.5*0
        assert combine(4, m, 0.0)[2] == pytest.approx(0.2, abs=1e-15)

    def test_solution_6_early_branch(self):
        row = [0.6] * 5 + [0.2] * 5
        m = np.array([row] * 3)
        scores = combine(6, m, 1.0)
        assert scores[2] == pytest.approx(0.68, abs=1e-12)

    def test_solutions_6_7_late_branch(self):
        row = [0.6] * 5 + [0.2] * 5
        m = np.array([row] * 6)
        assert combine(6, m, 1.0)[5] == pytest.approx(0.56, abs=1e-12)
        assert combine(7, m, 1.0)[5] == pytest.approx(0.64, abs=1e-12)
        # positions 1..5 use the shared early blend in both
        np.testing.assert_allclose(
            combine(6, m, 1.0)[:5], combine(7, m, 1.0)[:5], atol=1e-15
        )

    def test_solution_8_chains_previous_scores(self):
        m = np.full((2, 10), 0.9)
        m[0, :2] = [0.4, 0.4]
        m[1, :2] = [0.7, 0.5]
        scores = combine(8, m, 1.0)
        np.testing.assert_allclose(scores, [0.7, 0.65], atol=1e-12)

    def test_solution_11_uses_lighter_mix(self):
        m = np.full((2, 10), 0.9)
        m[0, :2] = [0.4, 0.4]
        m[1, :2] = [0.7, 0.5]
        scores = combine(11, m, 1.0)
        # S1 = 0.6*0.4 + 0.4*1 = 0.64; S2 = 0.6*0.6 + 0.4*0.64 = 0.616
        np.testing.assert_allclose(scores, [0.64, 0.616], atol=1e-12)

    def test_solution_9_alpha_decays_with_position(self):
        # zero matrix leaves only the prior term, exposing alpha directly
        m = np.zeros((10, 10))
        scores = combine(9, m, 1.0)
        expected = [0.5 * (11 - i) / 10.0 for i in range(1, 11)]
        np.testing.assert_allclose(scores, expected, atol=1e-15)

    def test_solution_10_alpha_is_constant(self):
        m = np.zeros((10, 10))
        np.testing.assert_allclose(combine(10, m, 1.0), 0.2, atol=1e-15)

    def test_solution_12_alpha_matches_solution_9(self):
        m = np.zeros((10, 10))
        np.testing.assert_allclose(
            combine(12, m, 1.0), combine(9, m, 1.0), atol=1e-15
        )

    def test_custom_weights_are_honored(self):
        weights = EnsembleWeights(fixed_prior=0.5)
        m = np.zeros((1, 10))
        assert combine(10, m, 1.0, weights)[0] == pytest.approx(0.5, abs=1e-15)

    def test_single_target_collapses_strategies(self):
        # with one target, Q_1 and the row mean both equal M[1][1]
        m = np.full((1, 10), 0.9)
        m[0, 0] = 0.3
        for solution in (4, 8):
            assert combine(solution, m, 1.0)[0] == combine(2, m, 1.0)[0]

    def test_out_of_range_scores_are_clipped(self):
        m = np.full((1, 10), 1.2)
        assert combine(1, m, 0.0)[0] == 1.0


class TestRowLocality:
    LOCAL = (1, 2, 3, 4, 5, 6, 7, 9, 10, 12)

    @pytest.mark.parametrize("solution", LOCAL)
    def test_row_local_strategies_ignore_other_rows(self, solution):
        rng = np.random.default_rng(7)
        a = random_matrix(rng, n=6)
        b = random_matrix(rng, n=6)
        b[2] = a[2]
        sa = combine(solution, a, 1.0)
        sb = combine(solution, b, 1.0)
        assert sa[2] == sb[2]

    @pytest.mark.parametrize("solution", (8, 11))
    def test_chained_strategies_propagate_forward(self, solution):
        rng = np.random.default_rng(8)
        a = random_matrix(rng, n=4)
        b = a.copy()
        b[0] = 1.0 - b[0]  # perturb only the first target
        sa = combine(solution, a, 1.0)
        sb = combine(solution, b, 1.0)
        assert sa[1] != sb[1] and sa[3] != sb[3]


class TestWeights:
    @pytest.mark.parametrize("kernel", [linear_weights, exponential_weights])
    @pytest.mark.parametrize("i", range(1, 11))
    def test_normalized_positive_and_peaked(self, kernel, i):
        w = kernel(i)
        assert w.shape == (10,)
        assert np.all(w > 0)
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.argmax(w) == i - 1

    def test_linear_weights_position_1(self):
        w = linear_weights(1)
        expected = [(11 - abs(1 - j)) / 65.0 for j in range(1, 11)]
        np.testing.assert_allclose(w, expected, atol=1e-15)

    def test_exponential_weights_position_3(self):
        raw = [Fraction(1, 2 ** abs(3 - j)) for j in range(1, 11)]
        expected = [float(r / sum(raw)) for r in raw]
        np.testing.assert_allclose(exponential_weights(3), expected, atol=1e-15)

    @pytest.mark.parametrize("kernel", [linear_weights, exponential_weights])
    def test_symmetric_about_the_peak(self, kernel):
        w = kernel(5)
        for k in (1, 2, 3, 4):
            assert w[4 - k] == pytest.approx(w[4 + k], abs=1e-15)


class TestValidation:
    @pytest.mark.parametrize("bad", [0, 13, -1, 99])
    def test_unknown_solution_id(self, bad):
        with pytest.raises(DomainError, match="solution id"):
            combine(bad, np.full((1, 10), 0.5), 0.0)

    def test_wrong_width(self):
        with pytest.raises(DimensionError, match="model matrix"):
            combine(1, np.full((2, 9), 0.5), 0.0)

    def test_empty_matrix(self):
        with pytest.raises(DimensionError, match="targets"):
            combine(1, np.empty((0, 10)), 0.0)

    def test_too_many_targets(self):
        with pytest.raises(DimensionError, match="targets"):
            combine(1, np.full((11, 10), 0.5), 0.0)

    def test_corpus_counts_must_cover_the_rows(self):
        with pytest.raises(DimensionError, match="hold 5 targets, model matrix has 4"):
            combine_corpus(1, np.full((4, 10), 0.5), [2, 3], [0.0, 1.0])

    def test_corpus_needs_one_last_action_per_session(self):
        with pytest.raises(DimensionError, match="1 last actions for 2 sessions"):
            combine_corpus(1, np.full((4, 10), 0.5), [2, 2], [0.0])

    def test_corpus_session_without_targets(self):
        with pytest.raises(DimensionError, match="got 0"):
            combine_corpus(1, np.full((4, 10), 0.5), [4, 0], [0.0, 1.0])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"linear_offset": 8.99},
            {"linear_offset": float("inf")},
            {"linear_offset": float("nan")},
            {"alpha_scale": -0.01},
            {"alpha_scale": 1.01},
            {"alpha_scale": float("nan")},
            {"fixed_prior": -0.01},
            {"fixed_prior": 1.01},
            {"fixed_prior": float("nan")},
            {"exp_base": 0.0},
            {"exp_base": float("inf")},
            {"exp_base": float("nan")},
        ],
    )
    def test_weights_outside_their_bounds_are_rejected(self, kwargs):
        with pytest.raises(ConfigError, match=next(iter(kwargs))):
            EnsembleWeights(**kwargs)

    def test_weights_at_their_bounds_blend_convexly(self):
        m = np.random.default_rng(0).uniform(0.0, 1.0, (10, 10))
        for weights in (
            EnsembleWeights(linear_offset=9.0, alpha_scale=0.0, fixed_prior=0.0, exp_base=1e-3),
            EnsembleWeights(alpha_scale=1.0, fixed_prior=1.0, exp_base=1e3),
        ):
            for solution in (9, 10, 12):
                scores = combine_corpus(solution, m, [10], [1.0], weights)
                assert np.isfinite(scores).all(), solution


class TestLastAction:
    def test_soften(self):
        assert soften(1.0) == 0.6
        assert soften(0.0) == 0.4
        assert soften(0.5) == 0.6  # threshold is inclusive


class TestBinarize:
    def test_threshold_is_inclusive(self):
        got = binarize(np.array([0.5, 0.4999999, 0.50001, 0.0, 1.0]))
        assert got.tolist() == [True, False, True, False, True]

    def test_custom_threshold(self):
        got = binarize(np.array([0.3, 0.29]), threshold=0.3)
        assert got.tolist() == [True, False]


class TestPredictAndSerialize:
    def test_corpus_prediction_decisions(self):
        scores = np.array([0.2, 0.8, 0.5])
        pred = CorpusPrediction(("a", "b"), np.array([2, 1]), scores)
        assert pred.decisions.tolist() == [False, True, True]

    def test_submission_format(self):
        m = np.full((3, 10), 0.9)
        m[0, 0], m[1, 1], m[2, 2] = 0.2, 0.8, 0.5
        pred = CorpusPrediction(("sess01",), np.array([3]), combine(1, m, 0.0))
        buf = io.StringIO()
        write_submission(pred, buf)
        assert buf.getvalue() == "sess01 011\n"

    def test_scores_format(self):
        m = np.full((2, 10), 0.9)
        m[0, 0], m[1, 1] = 0.25, 0.75
        pred = CorpusPrediction(("sess01",), np.array([2]), combine(1, m, 0.0))
        buf = io.StringIO()
        write_scores(pred, buf)
        assert buf.getvalue() == (
            "session_id,target_position,score,decision\n"
            "sess01,1,0.25,0\n"
            "sess01,2,0.75,1\n"
        )

    def test_corpus_files_match_per_session_lines(self):
        rng = np.random.default_rng(9)
        counts = np.array([3, 1, 10, 2])
        ids = ("a", "bb", "c", "d")
        pred = CorpusPrediction(ids, counts, rng.random(counts.sum()))
        submission, scores = io.StringIO(), io.StringIO()
        write_submission(pred, submission)
        write_scores(pred, scores)
        want_submission, want_scores = [], ["session_id,target_position,score,decision"]
        stop = 0
        for sid, n in zip(ids, counts):
            block = pred.scores[stop:stop + n]
            stop += n
            want_submission.append(
                sid + " " + "".join("1" if v >= 0.5 else "0" for v in block)
            )
            want_scores += [
                f"{sid},{i},{repr(float(v))},{int(v >= 0.5)}"
                for i, v in enumerate(block, start=1)
            ]
        assert submission.getvalue() == "\n".join(want_submission) + "\n"
        assert scores.getvalue() == "\n".join(want_scores) + "\n"
