"""Boosted-tree learner against finite-difference and brute-force oracles."""

import json
import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf

from skipcast.errors import (
    ConfigError,
    DegenerateLabelsError,
    DimensionError,
    IntegrityError,
    SchemaError,
    UndefinedMetricError,
)
from skipcast.gbdt import (
    GBDTModel,
    Split,
    TrainParams,
    _boundaries,
    auc,
    best_split,
    logistic_grad_hess,
    logistic_loss,
    sigmoid,
    train,
    tree_values,
)


def finite_diff_grad_hess(margin, label, eps="1e-6"):
    """High-precision central differences of the logistic NLL."""
    with mp.workdps(60):
        m = mpf(margin)
        y = mpf(label)
        step = mpf(eps)

        def loss(z):
            p = 1 / (1 + mp.exp(-z))
            return -(y * mp.log(p) + (1 - y) * mp.log(1 - p))

        g = (loss(m + step) - loss(m - step)) / (2 * step)
        h = (loss(m + step) - 2 * loss(m) + loss(m - step)) / (step * step)
        return float(g), float(h)


def brute_force_candidates(x, g, h, params, feature_indices=None):
    """O(rows^2 * features) reference: every valid midpoint by partitioning."""
    n, d = x.shape
    feats = range(d) if feature_indices is None else feature_indices
    total_g = float(sum(g))
    total_h = float(sum(h))
    parent = total_g * total_g / (total_h + params.lambda_)
    candidates = []
    for f in feats:
        values = sorted(set(float(v) for v in x[:, f]))
        for lo, hi in zip(values, values[1:]):
            t = (lo + hi) / 2.0
            if not lo < t:
                continue
            left = [i for i in range(n) if x[i, f] < t]
            right = [i for i in range(n) if x[i, f] >= t]
            gl = float(sum(g[i] for i in left))
            hl = float(sum(h[i] for i in left))
            gr = float(sum(g[i] for i in right))
            hr = float(sum(h[i] for i in right))
            if hl < params.min_child_weight or hr < params.min_child_weight:
                continue
            gain = (
                0.5
                * (
                    gl * gl / (hl + params.lambda_)
                    + gr * gr / (hr + params.lambda_)
                    - parent
                )
                - params.gamma
            )
            candidates.append((f, t, gain))
    return candidates


def brute_force_best(candidates):
    best = None
    for cand in candidates:
        if best is None or cand[2] > best[2]:
            best = cand
    if best is None or best[2] <= 0.0:
        return None
    return best


def assert_agrees_with_brute_force(mine, candidates, tol=1e-9):
    """mine must achieve the reference max gain; exact identity is only
    well-defined when the argmax is unique beyond the gain tolerance, since
    mathematically tied candidates can be ordered either way by float dust."""
    ref = brute_force_best(candidates)
    if mine is None:
        assert ref is None or ref[2] <= tol
        return
    exact = [c for c in candidates if c[0] == mine.feature and c[1] == mine.threshold]
    assert len(exact) == 1  # the chosen split must be a real candidate
    if ref is None:
        assert mine.gain <= tol
        return
    assert abs(exact[0][2] - ref[2]) <= tol
    assert abs(mine.gain - ref[2]) <= tol
    others = [c[2] for c in candidates if (c[0], c[1]) != (ref[0], ref[1])]
    if not others or max(others) < ref[2] - tol:
        assert (mine.feature, mine.threshold) == (ref[0], ref[1])


def masked_sigmoid(z):
    """The logistic function as it was once computed, with boolean-mask
    gathers of each branch; an oracle for the branch-free one."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


SIGMOID_EDGES = [0.0, -0.0, 5e-324, -5e-324, 36.7, -36.7, 709.8, -709.8, 745.0,
                 -745.0, 746.0, -746.0, 1e308, -1e308, math.inf, -math.inf]


class TestSigmoid:
    @settings(max_examples=300, deadline=None)
    @given(z=st.lists(st.floats(allow_nan=False), max_size=40))
    @example(z=SIGMOID_EDGES)
    def test_bit_identical_to_masked_gathers(self, z):
        assert sigmoid(z).tobytes() == masked_sigmoid(z).tobytes()

    def test_dense_sweep_and_shape(self):
        z = np.concatenate([np.linspace(-800.0, 800.0, 200_001), SIGMOID_EDGES])
        assert sigmoid(z).tobytes() == masked_sigmoid(z).tobytes()
        grid = z[:200_000].reshape(400, 500)
        assert sigmoid(grid).shape == grid.shape
        assert sigmoid(grid).tobytes() == masked_sigmoid(grid).tobytes()

    def test_nan_stays_nan(self):
        assert np.isnan(sigmoid([math.nan, 0.0])).tolist() == [True, False]


class TestGradHess:
    def test_margin_zero(self):
        g, h = logistic_grad_hess(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
        np.testing.assert_allclose(g, [-0.5, 0.5])
        np.testing.assert_allclose(h, [0.25, 0.25])

    def test_against_finite_differences(self):
        rng = np.random.default_rng(17)
        margins = rng.uniform(-10.0, 10.0, 60)
        labels = rng.integers(0, 2, 60).astype(float)
        g, h = logistic_grad_hess(margins, labels)
        for i in range(60):
            g_ref, h_ref = finite_diff_grad_hess(margins[i], labels[i])
            assert abs(g[i] - g_ref) < 1e-7
            assert abs(h[i] - h_ref) < 1e-7

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            logistic_grad_hess(np.zeros(3), np.zeros(4))


class TestBestSplit:
    @pytest.mark.parametrize(
        "x, g, h, match",
        [
            (np.zeros(4), np.zeros(4), np.zeros(4), "x must be 2-dimensional"),
            (np.zeros((4, 2)), np.zeros(3), np.zeros(4), r"g/h must have shape \(4,\)"),
            (np.zeros((4, 2)), np.zeros(4), np.zeros((4, 1)), r"g/h must have shape \(4,\)"),
        ],
        ids=["x 1-D", "g short", "h 2-D"],
    )
    def test_shapes_rejected(self, x, g, h, match):
        with pytest.raises(DimensionError, match=match):
            best_split(x, g, h, TrainParams())

    def test_toy_four_rows(self):
        # gradients of labels [0,0,1,1] at margin 0; hand gain:
        # GL=1, HL=0.5 -> 1/1.5 per side, parent 0 => 0.5*(2/1.5) = 2/3
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        g = np.array([0.5, 0.5, -0.5, -0.5])
        h = np.full(4, 0.25)
        params = TrainParams(min_child_weight=0.0)
        split = best_split(x, g, h, params)
        assert split is not None
        assert split.feature == 0
        assert split.threshold == 1.5
        assert abs(split.gain - 2.0 / 3.0) < 1e-12

    def test_min_child_weight_blocks_toy(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        g = np.array([0.5, 0.5, -0.5, -0.5])
        h = np.full(4, 0.25)
        assert best_split(x, g, h, TrainParams(min_child_weight=1.0)) is None

    def test_identical_labels_give_none(self):
        x = np.arange(6, dtype=float).reshape(-1, 1)
        g = np.full(6, -0.5)
        h = np.full(6, 0.25)
        assert best_split(x, g, h, TrainParams(min_child_weight=0.0)) is None

    def test_constant_feature_gives_none(self):
        x = np.ones((5, 2))
        g = np.array([0.5, -0.5, 0.5, -0.5, 0.5])
        h = np.full(5, 0.25)
        assert best_split(x, g, h, TrainParams(min_child_weight=0.0)) is None

    def test_tie_prefers_lowest_feature(self):
        # two identical columns: the same best gain exists in both
        col = np.array([0.0, 1.0, 2.0, 3.0])
        x = np.column_stack([col, col])
        g = np.array([0.5, 0.5, -0.5, -0.5])
        h = np.full(4, 0.25)
        split = best_split(x, g, h, TrainParams(min_child_weight=0.0))
        assert split.feature == 0

    def test_feature_subset_respected(self):
        col = np.array([0.0, 1.0, 2.0, 3.0])
        x = np.column_stack([col, col])
        g = np.array([0.5, 0.5, -0.5, -0.5])
        h = np.full(4, 0.25)
        split = best_split(x, g, h, TrainParams(min_child_weight=0.0), [1])
        assert split.feature == 1

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 65))
        d = int(rng.integers(1, 9))
        x = rng.uniform(-2.0, 2.0, (n, d))
        if d > 1:
            # quantize one column so duplicate values get exercised
            x[:, 0] = np.round(x[:, 0])
        g = rng.normal(size=n)
        h = rng.uniform(0.01, 1.0, n)
        params = TrainParams(
            min_child_weight=float(rng.choice([0.0, 0.5])),
            gamma=float(rng.choice([0.0, 0.1])),
        )
        mine = best_split(x, g, h, params)
        assert_agrees_with_brute_force(mine, brute_force_candidates(x, g, h, params))


def reference_best_split(x, g, h, params, feature_indices=None):
    """best_split's arithmetic one feature at a time: sort, prefix sums,
    masked argmax, and a strict '>' across features in the order given."""
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    feats = range(d) if feature_indices is None else feature_indices
    lam = params.lambda_
    total_g = float(g.sum())
    total_h = float(h.sum())
    parent_score = total_g * total_g / (total_h + lam)
    best = None
    for f in feats:
        col = x[:, f]
        order = np.argsort(col, kind="stable")
        sv = col[order]
        cg = np.cumsum(g[order])
        ch = np.cumsum(h[order])
        boundary = np.nonzero(sv[:-1] < sv[1:])[0]
        if boundary.size == 0:
            continue
        thresholds = (sv[boundary] + sv[boundary + 1]) / 2.0
        gl = cg[boundary]
        hl = ch[boundary]
        gr = total_g - gl
        hr = total_h - hl
        gains = 0.5 * (
            gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent_score
        ) - params.gamma
        valid = (hl >= params.min_child_weight) & (hr >= params.min_child_weight)
        valid &= sv[boundary] < thresholds
        if not valid.any():
            continue
        gains = np.where(valid, gains, -np.inf)
        k = int(np.argmax(gains))
        if best is None or gains[k] > best.gain:
            best = Split(int(f), float(thresholds[k]), float(gains[k]))
    if best is None or best.gain <= 0.0:
        return None
    return best


ZERO_HESSIAN = (
    "lambda_ = 0 and a node's hessian sum is 0: its score divides by zero; "
    "set lambda_ > 0"
)


def zero_hessian_or(run):
    """run(), or ZERO_HESSIAN where it divides by a zero hessian sum: a
    reference's float division raises ZeroDivisionError there and skipcast
    raises ConfigError with that message."""
    try:
        return run()
    except ZeroDivisionError:
        return ZERO_HESSIAN
    except ConfigError as exc:
        if str(exc) != ZERO_HESSIAN:
            raise
        return ZERO_HESSIAN


def split_outcome(search, problem):
    """The Split (or None) a search returns, or ZERO_HESSIAN."""
    return zero_hessian_or(lambda: search(*problem))


def same_split(a, b):
    if not isinstance(a, Split) or not isinstance(b, Split):
        return a == b
    same_gain = a.gain == b.gain or (math.isnan(a.gain) and math.isnan(b.gain))
    return a.feature == b.feature and a.threshold == b.threshold and same_gain


def split_problem(x, margins, labels, lambda_=1.0, min_child_weight=0.0,
                  gamma=0.0, features=None):
    g, h = logistic_grad_hess(np.asarray(margins, float), np.asarray(labels, float))
    params = TrainParams(
        lambda_=lambda_, min_child_weight=min_child_weight, gamma=gamma
    )
    return np.asarray(x, float), g, h, params, features


@st.composite
def split_problems(draw):
    n = draw(st.integers(0, 12))
    d = draw(st.integers(1, 4))
    cell = st.sampled_from([-1.0, 0.0, 0.5, 2.0]) | st.floats(-3.0, 3.0)
    x = draw(st.lists(cell, min_size=n * d, max_size=n * d))
    margin = st.sampled_from([-40.0, 40.0]) | st.floats(-5.0, 5.0)
    margins = draw(st.lists(margin, min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    features = draw(
        st.none() | st.lists(st.integers(0, d - 1), min_size=1, max_size=d, unique=True)
    )
    return split_problem(
        np.reshape(x, (n, d)),
        margins,
        labels,
        lambda_=draw(st.sampled_from([0.0, 1.0])),
        min_child_weight=draw(st.sampled_from([0.0, 0.5, 1.0])),
        gamma=draw(st.sampled_from([0.0, 0.1])),
        features=features,
    )


DUPLICATED = [[0.0, 1.0], [0.0, 2.0], [1.0, 0.0], [1.0, 3.0], [1.0, 1.0], [2.0, 2.0]]
PLUS_MINUS_40 = [40.0, 40.0, -40.0, 0.3, -40.0, 40.0]
NAN_AFTER_FINITE = [[2.0, 0.0], [0.0, 1.0], [1.0, 2.0], [3.0, 3.0], [4.0, 4.0]]
ABOVE_ONE = float(np.nextafter(1.0, 2.0))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(problem=split_problems())
@example(problem=split_problem(np.empty((0, 3)), [], []))
@example(problem=split_problem(np.empty((0, 3)), [], [], lambda_=0.0))
@example(problem=split_problem([[1.0, 2.0]], [0.4], [1]))
@example(problem=split_problem([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]], [0.1, -0.2, 0.3], [0, 1, 1]))
@example(problem=split_problem(DUPLICATED, [0.2, -0.1, 0.5, 0.0, -0.3, 0.1], [0, 0, 1, 1, 1, 0]))
@example(problem=split_problem(
    np.column_stack([DUPLICATED, DUPLICATED]), [0.2, -0.1, 0.5, 0.0, -0.3, 0.1],
    [1, 0, 1, 1, 0, 0], features=[3, 0, 2]))
@example(problem=split_problem(
    DUPLICATED, [0.2, -0.1, 0.5, 0.0, -0.3, 0.1], [1, 0, 1, 1, 0, 0], features=[]))
@example(problem=split_problem(
    DUPLICATED, PLUS_MINUS_40, [0, 1, 1, 0, 0, 1], lambda_=0.0, min_child_weight=0.0))
# feature 1's zero-hessian prefix gives a NaN gain: it loses when searched
# after feature 0's finite gain, and wins when searched first
@example(problem=split_problem(
    NAN_AFTER_FINITE, [40.0, 0.3, -0.5, 1.0, -1.0], [1, 0, 1, 1, 0],
    lambda_=0.0, min_child_weight=0.0))
@example(problem=split_problem(
    NAN_AFTER_FINITE, [40.0, 0.3, -0.5, 1.0, -1.0], [1, 0, 1, 1, 0],
    lambda_=0.0, min_child_weight=0.0, features=[1, 0]))
# the midpoint of two adjacent doubles rounds down to the left one, so
# there is no threshold between them
@example(problem=split_problem(
    [[1.0, 0.0], [1.0, 0.0], [ABOVE_ONE, 0.0], [ABOVE_ONE, 0.0]], [0.0] * 4, [0, 0, 1, 1]))
# hessians 0.25 sum to exactly 2 * min_child_weight: only the middle split
# is valid, so a node at that total must still be searched
@example(problem=split_problem(
    [[0.0], [1.0], [2.0], [3.0]], [0.0] * 4, [0, 0, 1, 1], min_child_weight=0.5))
def test_best_split_matches_per_feature_reference(problem):
    want = split_outcome(reference_best_split, problem)
    got = split_outcome(best_split, problem)
    assert same_split(got, want), (got, want)


def reference_tree(x, g, h, rows, depth, params, features):
    """One tree grown by calling best_split on each node's own rows."""
    if depth < params.max_depth and rows.size >= 2:
        split = best_split(x[rows], g[rows], h[rows], params, features)
        if split is not None:
            left = x[rows, split.feature] < split.threshold
            return {
                "feature": split.feature,
                "threshold": split.threshold,
                "left": reference_tree(x, g, h, rows[left], depth + 1, params, features),
                "right": reference_tree(x, g, h, rows[~left], depth + 1, params, features),
            }
    return {"value": -float(g[rows].sum()) / (float(h[rows].sum()) + params.lambda_)}


def reference_trees(x, y, params, seed):
    """train()'s boosting rounds and rng draws, each tree from reference_tree."""
    n, d = x.shape
    rng = np.random.default_rng(seed)
    prevalence = float(y.mean())
    margins = np.full(n, math.log(prevalence / (1.0 - prevalence)))
    trees = []
    for _ in range(params.num_boost_round):
        g, h = logistic_grad_hess(margins, y)
        rows, features = np.arange(n), np.arange(d)
        if params.subsample < 1.0:
            m = max(1, int(params.subsample * n))
            rows = np.sort(rng.choice(n, size=m, replace=False))
        if params.colsample < 1.0:
            k = max(1, int(params.colsample * d))
            features = np.sort(rng.choice(d, size=k, replace=False))
        trees.append(reference_tree(x, g, h, rows, 0, params, features))
        margins += params.eta * tree_values(trees[-1], x)
    return trees


def trees_json(grow):
    """The grown trees as exact JSON text, or ZERO_HESSIAN."""
    return zero_hessian_or(lambda: json.dumps(grow()))


@st.composite
def train_problems(draw):
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 5))
    cell = st.sampled_from([-1.0, 0.0, 0.5, 2.0]) | st.floats(-3.0, 3.0)
    x = draw(st.lists(cell, min_size=n * d, max_size=n * d))
    y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    y[0], y[1] = 0, 1
    params = TrainParams(
        num_boost_round=draw(st.integers(1, 4)),
        eta=draw(st.sampled_from([0.1, 0.3, 1.0])),
        max_depth=draw(st.integers(1, 8)),
        min_child_weight=draw(st.sampled_from([0.0, 0.5, 1.0])),
        lambda_=draw(st.sampled_from([0.0, 1.0])),
        gamma=draw(st.sampled_from([0.0, 0.1])),
        subsample=draw(st.sampled_from([1.0, 0.8, 0.5])),
        colsample=draw(st.sampled_from([1.0, 0.7, 0.4])),
    )
    return np.reshape(x, (n, d)), np.asarray(y, float), params, draw(st.integers(0, 99))


def large_train_problem():
    rng = np.random.default_rng(8)
    x = np.round(rng.normal(size=(300, 6)), 1)  # many repeated values
    y = (rng.uniform(size=300) < 0.3 + 0.4 * (x[:, 2] > 0)).astype(float)
    params = TrainParams(num_boost_round=3, max_depth=8, min_child_weight=0.5,
                         subsample=0.8, colsample=0.5)
    return x, y, params, 5


def wide_train_problem():
    """The workloads' shape: 63 columns, about 200 rows, many tied values."""
    rng = np.random.default_rng(9)
    x = np.round(rng.normal(size=(200, 63)), 1)
    x[:, 48:55] = rng.integers(0, 3, (200, 7))  # low-cardinality columns
    y = (rng.uniform(size=200) < 0.3 + 0.4 * (x[:, 2] > 0)).astype(float)
    params = TrainParams(num_boost_round=2, max_depth=15, min_child_weight=1.0,
                         subsample=0.9, colsample=0.8)
    return x, y, params, 3


SUBNORMAL = 5e-324
BELOW_TOP = float(np.nextafter(2.0**1023, 0.0))  # the largest |x| train() takes
# chain starts: 1.0, both zeros, the least normals, subnormals, and large
# magnitudes, where lo + hi is the nearest to overflowing
CHAIN_ANCHORS = [1.0, 0.0, -0.0, 2.0**-1022, -(2.0**-1022), 3 * SUBNORMAL,
                 -3 * SUBNORMAL, 2.0**1022, -(2.0**1022), BELOW_TOP, -BELOW_TOP]


def double_chain(anchor, steps, toward):
    """`anchor` and the `steps` doubles after it toward `toward`, each the
    next double of the one before, kept below 2**1023 in magnitude."""
    chain = [anchor]
    for _ in range(steps):
        chain.append(float(np.nextafter(chain[-1], toward)))
    return [v for v in chain if abs(v) < 2.0**1023]


@st.composite
def chain_columns(draw):
    """A sorted column of adjacent-double chains, some values repeated, and
    masks that pick node subsets of it."""
    values = []
    for _ in range(draw(st.integers(1, 3))):
        values += double_chain(
            draw(st.sampled_from(CHAIN_ANCHORS)),
            draw(st.integers(0, 12)),
            draw(st.sampled_from([-math.inf, math.inf])),
        )
    values += draw(st.lists(st.sampled_from(values), max_size=6))
    column = np.sort(np.asarray(values), kind="stable")
    mask = st.lists(st.booleans(), min_size=column.size, max_size=column.size)
    return column, draw(st.lists(mask.map(np.asarray), min_size=1, max_size=6))


ONE_CHAIN = np.asarray(double_chain(1.0, 6, math.inf))


@settings(max_examples=500, deadline=None)
@given(problem=chain_columns())
@example(problem=(ONE_CHAIN, [np.ones(7, bool), np.arange(7) % 2 == 0, np.arange(7) < 2]))
def test_boundary_codes_mark_each_nodes_valid_boundaries(problem):
    """train() codes a column once; a node's boundary between two of its
    sorted values is valid exactly where their codes differ, which must
    equal the per-node midpoint rule on the node's own values."""
    column, masks = problem
    with np.errstate(over="raise"):
        codes = _boundaries(column[None, :])[0]
        for keep in masks:
            node, node_codes = column[keep], codes[keep]
            lo, hi = node[:-1], node[1:]
            want = (lo < hi) & (lo < (lo + hi) / 2.0)
            assert np.array_equal(node_codes[1:] != node_codes[:-1], want), (node, keep)


def chain_train_problem():
    """Columns drawn from adjacent-double chains, where some midpoints round
    down; row subsampling leaves nodes holding every kind of subset."""
    rng = np.random.default_rng(10)
    chains = [double_chain(1.0, 7, math.inf), double_chain(-3 * SUBNORMAL, 7, math.inf),
              double_chain(2.0**-1022, 7, -math.inf), double_chain(BELOW_TOP, 7, 0.0)]
    x = np.column_stack([rng.choice(c, size=60) for c in chains])
    y = (rng.uniform(size=60) < 0.3 + 0.4 * (x[:, 0] > 1.0 + 3 * 2.0**-52)).astype(float)
    params = TrainParams(num_boost_round=3, max_depth=8, min_child_weight=0.0,
                         subsample=0.7)
    return x, y, params, 11


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(problem=train_problems())
@example(problem=large_train_problem())
@example(problem=wide_train_problem())
@example(problem=chain_train_problem())
def test_train_trees_match_per_node_best_split(problem):
    x, y, params, seed = problem
    want = trees_json(lambda: reference_trees(x, y, params, seed))
    got = trees_json(lambda: train(x, y, params, seed).trees)
    assert got == want


def test_best_split_transient_memory():
    """A 2,000-row x 63 node peaks at no more than 6.25 (features, rows)
    float arrays, counted by tracemalloc from the call's start."""
    rng = np.random.default_rng(4)
    n, d = 2000, 63
    x = np.round(rng.normal(size=(n, d)), 1)
    g, h = logistic_grad_hess(rng.normal(size=n), rng.integers(0, 2, n).astype(float))
    params = TrainParams()
    tracemalloc.start()
    try:
        split = best_split(x, g, h, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert split is not None
    assert peak <= 6.25 * n * d * 8


class TestTrainParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_boost_round": 0},
            {"eta": 0.0},
            {"eta": 1.5},
            {"max_depth": 0},
            {"min_child_weight": -1.0},
            {"lambda_": -0.5},
            {"gamma": -0.1},
            {"subsample": 0.0},
            {"subsample": 1.2},
            {"colsample": 0.0},
            {"min_child_weight": float("nan")},
            {"lambda_": float("nan")},
            {"gamma": float("nan")},
            {"max_depth": 65},
            {"num_boost_round": 2.5},
            {"num_boost_round": True},
            {"num_boost_round": "3"},
            {"max_depth": 6.5},
            {"max_depth": False},
            {"max_depth": np.float64(6.0)},
            {"eta": True},
            {"eta": "0.1"},
            {"min_child_weight": np.True_},
            {"lambda_": None},
            {"gamma": True},
            {"subsample": 0.5j},
            {"colsample": np.True_},
        ],
    )
    def test_bounds(self, kwargs):
        with pytest.raises(ConfigError):
            TrainParams(**kwargs)

    def test_numpy_integers_accepted(self):
        params = TrainParams(num_boost_round=np.int64(3), max_depth=np.int32(4))
        assert (params.num_boost_round, params.max_depth) == (3, 4)
        assert type(params.num_boost_round) is int and type(params.max_depth) is int

    def test_real_fields_store_numpy_scalars_as_floats(self):
        names = ("eta", "min_child_weight", "lambda_", "gamma", "subsample", "colsample")
        params = TrainParams(**dict(zip(names, (np.float32(0.5), np.int64(2), np.float64(1.5),
                                                np.int8(0), np.float16(0.5), np.uint8(1)))))
        got = [getattr(params, name) for name in names]
        assert got == [0.5, 2.0, 1.5, 0.0, 0.5, 1.0]
        assert all(type(value) is float for value in got)
        # Python numbers are kept as given, so a saved model's bytes are too
        params = TrainParams(eta=1, lambda_=2, gamma=0.25)
        assert [(type(v), v) for v in (params.eta, params.lambda_, params.gamma)] == [
            (int, 1), (int, 2), (float, 0.25)
        ]


def separable_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, (n, 5))
    y = (x[:, 2] > 0.5).astype(np.int64)
    return x, y


class TestTrain:
    def test_single_class_rejected(self):
        x = np.random.default_rng(0).uniform(size=(10, 3))
        with pytest.raises(DegenerateLabelsError):
            train(x, np.zeros(10), TrainParams(num_boost_round=1))

    @pytest.mark.parametrize(
        "x, y, match",
        [
            (np.zeros(4), np.array([0.0, 1.0, 0.0, 1.0]), "x must be 2-dimensional"),
            (np.zeros((4, 2)), np.array([0.0, 1.0, 0.0]), r"y must have shape \(4,\)"),
            (np.zeros((4, 2)), np.zeros((4, 1)), r"y must have shape \(4,\)"),
        ],
        ids=["x 1-D", "y short", "y 2-D"],
    )
    def test_shapes_rejected(self, x, y, match):
        with pytest.raises(DimensionError, match=match):
            train(x, y, TrainParams(num_boost_round=1))

    def test_too_few_rows_rejected(self):
        with pytest.raises(DegenerateLabelsError):
            train(np.zeros((1, 3)), np.array([1.0]), TrainParams(num_boost_round=1))

    def test_nan_rejected(self):
        x, y = separable_data(20)
        x[3, 1] = np.nan
        with pytest.raises(IntegrityError, match="NaN"):
            train(x, y, TrainParams(num_boost_round=1))

    @pytest.mark.parametrize(
        "search, column",
        [pytest.param(search, column, id=prefix + name)
         for prefix, search in (("", False), ("best_split-", True))
         for name, column in {
             "inf": [0.0, 1.0, 2.0, math.inf], "-inf": [-math.inf, 0.0, 1.0, 2.0],
             "1.5e308": [0.0, 1.0, 1.5e308, 1.7e308], "-2**1023": [-(2.0**1023), 0.0, 1.0, 2.0],
             "2**1023": [0.0, 1.0, 2.0, 2.0**1023], "nan": [0.0, 1.0, 2.0, math.nan],
         }.items()],
    )
    def test_magnitudes_from_2_1023_rejected(self, search, column):
        # from 2**1023 up, lo + hi can overflow: a threshold of inf, which no
        # model file may hold; a NaN row has no side of any threshold
        x = np.column_stack([np.zeros(4), column])
        with pytest.raises(IntegrityError, match=r"NaN, inf or a value of magnitude 2\*\*1023"):
            if search:  # only the last row positive: a split would set it apart
                g = np.array([0.5, 0.5, 0.5, -0.5])
                best_split(x, g, np.full(4, 0.25), TrainParams(min_child_weight=0.0))
            else:
                train(x, np.array([0.0, 1.0, 0.0, 1.0]), TrainParams(num_boost_round=1))

    @pytest.mark.filterwarnings("error")
    def test_largest_magnitudes_give_a_loadable_model(self, tmp_path):
        x = np.array([[-BELOW_TOP], [-BELOW_TOP / 2], [BELOW_TOP / 2], [BELOW_TOP]])
        params = TrainParams(num_boost_round=2, max_depth=2, min_child_weight=0.0)
        model = train(x, np.array([1.0, 0.0, 0.0, 1.0]), params, seed=0)
        assert model.trees[0]["threshold"] == -0.75 * BELOW_TOP
        model.save(tmp_path / "m.json")
        assert GBDTModel.load(tmp_path / "m.json").trees == model.trees

    def test_stump_beats_prior(self):
        x, y = separable_data(100, seed=4)
        model = train(x, y, TrainParams(num_boost_round=1, max_depth=1), seed=1)
        acc = float(((model.predict_proba(x) >= 0.5) == y).mean())
        assert acc > max(y.mean(), 1.0 - y.mean())

    def test_same_seed_same_model(self):
        x, y = separable_data(150, seed=9)
        params = TrainParams(num_boost_round=5, max_depth=3, subsample=0.7, colsample=0.6)
        a = train(x, y, params, seed=42)
        b = train(x, y, params, seed=42)
        assert a.to_dict() == b.to_dict()

    def test_different_seed_different_model(self):
        x, y = separable_data(150, seed=9)
        params = TrainParams(num_boost_round=5, max_depth=3, subsample=0.7, colsample=0.6)
        a = train(x, y, params, seed=1)
        b = train(x, y, params, seed=2)
        assert a.to_dict() != b.to_dict()

    def test_training_loss_non_increasing(self):
        rng = np.random.default_rng(23)
        x = rng.uniform(size=(250, 8))
        logits = 2.0 * (x[:, 1] - 0.5) + x[:, 4]
        y = (rng.uniform(size=250) < sigmoid(logits)).astype(np.int64)
        params = TrainParams(num_boost_round=25, eta=0.3, max_depth=3)
        model = train(x, y, params, seed=3)
        margins = np.full(x.shape[0], model.base_score)
        losses = [logistic_loss(margins, y)]
        for tree in model.trees:
            margins = margins + params.eta * tree_values(tree, x)
            losses.append(logistic_loss(margins, y))
        diffs = np.diff(losses)
        assert (diffs <= 1e-12).all()

    def test_deepest_allowed_tree(self):
        # alternating labels on one sorted column grow one long chain
        x = np.arange(1500, dtype=float)[:, None]
        y = np.arange(1500) % 2
        params = TrainParams(num_boost_round=1, max_depth=64, min_child_weight=0.0)
        model = train(x, y, params, seed=0)
        depth, node = 0, model.trees[0]
        while "value" not in node:
            depth += 1
            node = max(node["left"], node["right"], key=lambda c: "value" not in c)
        assert depth == 64
        assert GBDTModel.from_dict(json.loads(json.dumps(model.to_dict()))).trees == model.trees

    def test_learns_noiseless_rule(self):
        x, y = separable_data(400, seed=12)
        model = train(x, y, TrainParams(num_boost_round=10, max_depth=3), seed=0)
        assert auc(model.predict_proba(x), y) >= 0.99


class TestPredict:
    def make_fixture_model(self):
        tree1 = {
            "feature": 0,
            "threshold": 0.5,
            "left": {"value": -0.4},
            "right": {"value": 0.6},
        }
        tree2 = {
            "feature": 1,
            "threshold": 1.0,
            "left": {"value": 0.25},
            "right": {
                "feature": 0,
                "threshold": 2.0,
                "left": {"value": -0.1},
                "right": {"value": 0.3},
            },
        }
        return GBDTModel(
            params=TrainParams(eta=0.3),
            base_score=0.2,
            n_features=3,
            seed=0,
            trees=[tree1, tree2],
        )

    def test_hand_traced_walk(self):
        model = self.make_fixture_model()
        vec = np.array([1.5, 0.0, 9.9])
        # tree1: 1.5 >= 0.5 -> 0.6; tree2: 0.0 < 1.0 -> 0.25
        expected_margin = 0.2 + 0.3 * 0.6 + 0.3 * 0.25
        assert model.predict_margin(vec)[0] == expected_margin
        assert model.predict_proba(vec)[0] == pytest.approx(
            1.0 / (1.0 + np.exp(-expected_margin)), abs=1e-15
        )

    def test_zero_trees_balanced_prior(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 1, 0, 1])
        model = train(x, y, TrainParams(num_boost_round=1, gamma=100.0), seed=0)
        pruned = GBDTModel(
            params=model.params,
            base_score=model.base_score,
            n_features=1,
            seed=0,
            trees=[],
        )
        np.testing.assert_allclose(pruned.predict_proba(x), 0.5)

    def test_all_positive_leaf_increases_output(self):
        model = self.make_fixture_model()
        vec = np.array([[1.5, 0.0, 9.9]])
        before = model.predict_proba(vec)[0]
        model.trees.append({"value": 1.0})
        after = model.predict_proba(vec)[0]
        assert after > before

    def test_output_is_open_interval(self):
        model = self.make_fixture_model()
        model.base_score = 1e6
        assert 0.0 < model.predict_proba(np.array([9.0, 9.0, 9.0]))[0] < 1.0
        model.base_score = -1e6
        assert 0.0 < model.predict_proba(np.array([9.0, 9.0, 9.0]))[0] < 1.0

    def test_wrong_width_rejected(self):
        model = self.make_fixture_model()
        with pytest.raises(DimensionError):
            model.predict_proba(np.zeros((2, 4)))

    def test_nan_rejected(self):
        model = self.make_fixture_model()
        with pytest.raises(IntegrityError, match="NaN"):
            model.predict_proba(np.array([np.nan, 0.0, 0.0]))


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        x, y = separable_data(120, seed=8)
        params = TrainParams(num_boost_round=6, max_depth=4, subsample=0.8, colsample=0.6)
        model = train(x, y, params, seed=5)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = GBDTModel.load(path)
        assert loaded.to_dict() == model.to_dict()
        np.testing.assert_array_equal(
            loaded.predict_margin(x), model.predict_margin(x)
        )

    def test_numpy_integer_params_round_trip(self, tmp_path):
        x, y = separable_data(60, seed=2)
        params = TrainParams(num_boost_round=np.int64(2), max_depth=np.int64(3))
        model = train(x, y, params, seed=1)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = GBDTModel.load(path)
        assert loaded.params == TrainParams(num_boost_round=2, max_depth=3)
        assert loaded.to_dict() == model.to_dict()

    def test_numpy_float_params_round_trip(self, tmp_path):
        x, y = separable_data(60, seed=2)
        params = TrainParams(num_boost_round=2, max_depth=3, eta=np.float32(0.1),
                             lambda_=np.float64(2.0), subsample=np.int64(1))
        model = train(x, y, params, seed=1)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = GBDTModel.load(path)
        assert loaded.params == params
        assert loaded.params.eta == float(np.float32(0.1))
        assert loaded.to_dict() == model.to_dict()
        np.testing.assert_array_equal(loaded.predict_margin(x), model.predict_margin(x))

    def test_save_is_byte_stable(self, tmp_path):
        x, y = separable_data(60, seed=2)
        model = train(x, y, TrainParams(num_boost_round=2, max_depth=2), seed=1)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        model.save(a)
        model.save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_foreign_payload(self):
        with pytest.raises(SchemaError):
            GBDTModel.from_dict({"format": "something-else"})

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("version", 2, "version"),
            ("feature", 5, "feature 5"),
            ("feature", -1, "feature -1"),
            ("threshold", float("inf"), "threshold"),
            ("leaf", float("nan"), "leaf"),
            ("base_score", float("nan"), "base score"),
            ("feature", 2.7, "feature 2.7 is not an integer"),
            ("feature", "2", "feature '2' is not an integer"),
            ("feature", True, "feature True is not an integer"),
            ("n_features", 5.5, "n_features 5.5 is not an integer"),
            ("seed", "1", "seed '1' is not an integer"),
        ],
    )
    def test_rejects_corrupt_content(self, field, value, match):
        x, y = separable_data(60, seed=2)
        model = train(x, y, TrainParams(num_boost_round=1, max_depth=1), seed=1)
        payload = model.to_dict()
        assert payload["n_features"] == 5 and "feature" in payload["trees"][0]
        if field in ("feature", "threshold"):
            payload["trees"][0][field] = value
        elif field == "leaf":
            payload["trees"][0]["left"]["value"] = value
        else:
            payload[field] = value
        with pytest.raises(SchemaError, match=match):
            GBDTModel.from_dict(payload)


def walk_payload(tree, row):
    """One row down a model-file tree: x[feature] < threshold goes left."""
    while "value" not in tree:
        tree = tree["left"] if row[tree["feature"]] < tree["threshold"] else tree["right"]
    return tree["value"]


CELLS = (
    st.sampled_from([-1.0, 0.0, 0.5, 2.0])
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.integers(-3, 3)
)


def tree_payloads(n_features, depth):
    leaf = st.builds(lambda value: {"value": value}, CELLS)
    if depth == 0:
        return leaf
    child = tree_payloads(n_features, depth - 1)
    split = st.fixed_dictionaries({
        "feature": st.integers(0, n_features - 1),
        "threshold": CELLS,
        "left": child,
        "right": child,
    })
    return leaf | split


@st.composite
def model_payloads(draw):
    n_features = draw(st.integers(1, 4))
    eta = draw(st.sampled_from([0.1, 0.3, 1.0]) | st.floats(0.01, 1.0))
    return {
        "format": "skipcast-gbdt",
        "version": 1,
        "params": asdict(TrainParams(num_boost_round=4, eta=eta)),
        "base_score": draw(CELLS),
        "n_features": n_features,
        "seed": draw(st.integers(0, 2**31 - 1)),
        "trees": draw(st.lists(tree_payloads(n_features, 6), max_size=4)),
    }


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("round_trip")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(payload=model_payloads(), data=st.data())
def test_model_file_round_trip(payload, data, model_dir):
    model = GBDTModel.from_dict(payload)
    n = payload["n_features"]
    row = st.lists(CELLS, min_size=n, max_size=n)
    x = np.array(data.draw(st.lists(row, min_size=1, max_size=6)), dtype=np.float64)
    want = []
    for cells in x.tolist():
        margin = payload["base_score"]
        for tree in payload["trees"]:
            margin += payload["params"]["eta"] * walk_payload(tree, cells)
        want.append(margin)
    np.testing.assert_array_equal(model.predict_margin(x), want)

    saved, resaved, reloaded = (model_dir / name for name in ("a", "b", "c"))
    model.save(saved)
    GBDTModel.from_dict(model.to_dict()).save(resaved)
    GBDTModel.load(saved).save(reloaded)
    assert json.loads(saved.read_text()) == payload
    assert resaved.read_bytes() == saved.read_bytes()
    assert reloaded.read_bytes() == saved.read_bytes()


def naive_auc(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def tie_loop_auc(scores, labels):
    """auc with its ranks from a Python loop over runs of equal sorted scores."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(labels).astype(bool)
    n_pos = int(pos.sum())
    n_neg = int(pos.size - n_pos)
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    ranks = np.empty(scores.size, dtype=np.float64)
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    pos_rank_sum = float(ranks[pos].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@st.composite
def tied_auc_inputs(draw):
    """Scores on a few rounded levels, some NaN, with both label classes."""
    n = draw(st.integers(2, 150))
    levels = draw(st.lists(
        st.floats(-3.0, 3.0).map(lambda v: round(v, 2)), min_size=1, max_size=5
    ))
    cells = st.one_of(st.sampled_from(levels), st.just(math.nan))
    scores = draw(st.lists(cells, min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    labels[0], labels[1] = 0, 1
    return np.array(scores), np.array(labels)


class TestAuc:
    def test_hand_case(self):
        scores = np.array([0.1, 0.4, 0.35, 0.8])
        labels = np.array([0, 0, 1, 1])
        # pairs: (0.35,0.1)+ (0.35,0.4)- (0.8,0.1)+ (0.8,0.4)+ => 3/4
        assert auc(scores, labels) == 0.75

    def test_perfect_and_reversed(self):
        labels = np.array([0, 0, 1, 1])
        assert auc(np.array([0.1, 0.2, 0.7, 0.9]), labels) == 1.0
        assert auc(np.array([0.9, 0.7, 0.2, 0.1]), labels) == 0.0

    def test_all_ties(self):
        assert auc(np.ones(6), np.array([0, 1, 0, 1, 0, 1])) == 0.5

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError, match="equal-length vectors"):
            auc(np.array([0.1, 0.2, 0.3]), np.array([0, 1, 0, 1]))

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            auc(np.array([0.1, 0.2]), np.array([1, 1]))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_pairwise_count(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(5, 80))
        scores = np.round(rng.uniform(size=n), 1)  # ties likely
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert auc(scores, labels) == pytest.approx(
            naive_auc(scores, labels), abs=1e-12
        )

    # each NaN score is a run of its own, as NaN != NaN in the loop
    @settings(max_examples=300, deadline=None)
    @given(inputs=tied_auc_inputs())
    @example(inputs=(np.array([math.nan, math.nan, 0.5]), np.array([0, 1, 1])))
    @example(inputs=(np.array([0.0, -0.0, 0.0, 1.0]), np.array([1, 0, 0, 1])))
    def test_equals_tie_loop_exactly(self, inputs):
        scores, labels = inputs
        got, want = auc(scores, labels), tie_loop_auc(scores, labels)
        assert got == want or (math.isnan(got) and math.isnan(want))

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(77)
        scores = rng.normal(size=200)
        labels = rng.integers(0, 2, 200)
        labels[0], labels[1] = 0, 1
        base = auc(scores, labels)
        for transform in (np.exp, np.tanh, lambda s: 3.0 * s - 10.0):
            assert auc(transform(scores), labels) == pytest.approx(base, abs=1e-12)
