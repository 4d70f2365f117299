"""Acceptance checks for the whole package, one test per criterion.

Each test prints a single `[criterion NN] PASS|FAIL` line (bypassing pytest's
capture so the lines always reach the terminal) and then asserts the same
condition, so a failure is visible both ways. Oracles here are coded
independently of the library: the metric check uses a matrix formulation,
the derivative check uses high-precision finite differences, and the split
check uses a plain exhaustive search.
"""

import itertools
import shutil
import time
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from skipcast.cli import main
from skipcast.config import load_config
from skipcast.datamodel import split_session
from skipcast.ensemble import (
    combine,
    exponential_weights,
    linear_weights,
)
from skipcast.evaluation import (
    CorpusScore,
    average_accuracy,
    compare,
    corpus_scores,
)
from skipcast.features import FEATURE_COUNT, assemble_corpus
from skipcast.gbdt import (
    TrainParams,
    auc,
    best_split,
    logistic_grad_hess,
    train,
)
from skipcast.synthetic import SynthConfig, generate_synthetic_dataset


@pytest.fixture
def announce(request):
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def _announce(criterion: int, passed: bool, detail: str = "") -> None:
        line = f"[criterion {criterion:02d}] {'PASS' if passed else 'FAIL'} {detail}".rstrip()
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print(line, flush=True)
        else:
            print(line, flush=True)

    return _announce


# --- criterion 1: metric vs an independent direct-formula implementation ---

_TRI = np.tril(np.ones((128, 128)))


def aa_matrix_form(decisions, truth):
    """Running accuracies via a triangular matrix product, not a stream."""
    hits = (np.asarray(decisions, bool) == np.asarray(truth, bool)).astype(float)
    n = hits.size
    running = (_TRI[:n, :n] @ hits) / np.arange(1, n + 1)
    return float((running * hits).sum() / n)


def test_criterion_01_average_accuracy_matches_direct_formula(announce):
    start = time.monotonic()
    worst = 0.0
    for n in range(1, 7):
        for decisions in itertools.product([False, True], repeat=n):
            for truth in itertools.product([False, True], repeat=n):
                diff = abs(
                    average_accuracy(decisions, truth)
                    - aa_matrix_form(decisions, truth)
                )
                worst = max(worst, diff)
    rng = np.random.default_rng(2026)
    for _ in range(10_000):
        n = int(rng.integers(7, 121))
        decisions = rng.integers(0, 2, n).astype(bool)
        truth = rng.integers(0, 2, n).astype(bool)
        diff = abs(
            average_accuracy(decisions, truth) - aa_matrix_form(decisions, truth)
        )
        worst = max(worst, diff)
    elapsed = time.monotonic() - start
    passed = worst <= 1e-12 and elapsed < 10.0
    announce(1, passed, f"max|diff|={worst:.2e} elapsed={elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed < 10.0


def test_criterion_02_hand_worked_average_accuracy(announce):
    got = average_accuracy([True, False, True], [True, True, True])
    passed = abs(got - 5.0 / 9.0) <= 1e-12
    announce(2, passed, f"aa={got!r}")
    assert passed


# --- criterion 3: gradients/hessians vs high-precision finite differences ---


def nll(margin, label):
    m = mp.mpf(margin)
    return mp.log(1 + mp.exp(m)) - label * m


def finite_diff(margin, label, eps="1e-10"):
    with mp.workdps(50):
        e = mp.mpf(eps)
        up, mid, down = (nll(margin + e, label), nll(margin, label), nll(margin - e, label))
        g = (up - down) / (2 * e)
        h = (up - 2 * mid + down) / (e * e)
    return float(g), float(h)


def test_criterion_03_logistic_derivatives_match_finite_differences(announce):
    rng = np.random.default_rng(13)
    margins = rng.uniform(-8.0, 8.0, 100)
    labels = rng.integers(0, 2, 100).astype(np.float64)
    g, h = logistic_grad_hess(margins, labels)
    worst = 0.0
    for i in range(100):
        g_fd, h_fd = finite_diff(margins[i], labels[i])
        worst = max(worst, abs(g[i] - g_fd), abs(h[i] - h_fd))
    passed = worst <= 1e-5
    announce(3, passed, f"max|diff|={worst:.2e}")
    assert passed


# --- criterion 4: split search vs exhaustive brute force ---


def brute_force_candidates(x, g, h, params):
    """Plain loops over every feature and midpoint, no cumulative sums."""
    n, n_features = x.shape
    lam = params.lambda_
    total_g, total_h = float(g.sum()), float(h.sum())
    parent = total_g * total_g / (total_h + lam)
    candidates = []
    for f in range(n_features):
        values = sorted(set(x[:, f].tolist()))
        for lo, hi in zip(values, values[1:]):
            t = (lo + hi) / 2.0
            if not lo < t:  # midpoint collapsed onto the left value
                continue
            left = x[:, f] < t
            hl, hr = float(h[left].sum()), float(h[~left].sum())
            if hl < params.min_child_weight or hr < params.min_child_weight:
                continue
            gl, gr = float(g[left].sum()), float(g[~left].sum())
            gain = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent)
            gain -= params.gamma
            candidates.append((f, t, gain))
    return candidates


def splits_agree(got, candidates, tol=1e-9):
    """got must achieve the brute-force max gain; identities must match
    exactly whenever the argmax is unique beyond the gain tolerance.
    Mathematical ties can be ordered either way by summation-order dust."""
    want = None
    for cand in candidates:
        if want is None or cand[2] > want[2]:
            want = cand
    if want is not None and want[2] <= 0.0:
        want = None
    if got is None:
        return want is None or want[2] <= tol
    exact = [c for c in candidates if c[0] == got.feature and c[1] == got.threshold]
    if len(exact) != 1:
        return False
    if want is None:
        return got.gain <= tol
    if abs(exact[0][2] - want[2]) > tol or abs(got.gain - want[2]) > tol:
        return False
    others = [c[2] for c in candidates if (c[0], c[1]) != (want[0], want[1])]
    if not others or max(others) < want[2] - tol:
        return (got.feature, got.threshold) == (want[0], want[1])
    return True


def test_criterion_04_split_search_matches_brute_force(announce):
    rng = np.random.default_rng(41)
    mismatches = 0
    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 65))
        d = int(rng.integers(1, 9))
        x = rng.normal(size=(n, d))
        x[:, 0] = np.round(x[:, 0], 1)  # force duplicate values and ties
        margins = rng.normal(size=n)
        y = rng.integers(0, 2, n).astype(np.float64)
        g, h = logistic_grad_hess(margins, y)
        params = TrainParams(
            num_boost_round=1,
            eta=0.1,
            max_depth=3,
            min_child_weight=float(rng.choice([0.0, 0.5])),
            gamma=float(rng.choice([0.0, 0.1])),
        )
        got = best_split(x, g, h, params)
        checked += 1
        if not splits_agree(got, brute_force_candidates(x, g, h, params)):
            mismatches += 1
    passed = mismatches == 0
    announce(4, passed, f"datasets={checked} mismatches={mismatches}")
    assert passed


# --- criterion 5: a noiseless threshold rule is learnable quickly ---


def test_criterion_05_noiseless_rule_is_learnable(announce):
    rng = np.random.default_rng(5)
    x = rng.random((2000, 8))
    y = (x[:, 3] > 0.5).astype(np.int64)
    params = TrainParams(
        num_boost_round=50, eta=0.3, max_depth=15, subsample=1.0, colsample=1.0
    )
    start = time.monotonic()
    model = train(x, y, params, seed=1)
    train_auc = auc(model.predict_proba(x), y)
    elapsed = time.monotonic() - start
    passed = train_auc >= 0.99 and elapsed < 60.0
    announce(5, passed, f"train_auc={train_auc:.4f} elapsed={elapsed:.1f}s")
    assert train_auc >= 0.99
    assert elapsed < 60.0


# --- criterion 6: strategy algebra on random instances and hand fixtures ---


def test_criterion_06_strategy_algebra(announce):
    rng = np.random.default_rng(6)
    in_bounds = True
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        matrix = rng.random((n, 10))
        s0 = float(rng.integers(0, 2))
        for solution in range(1, 13):
            scores = combine(solution, matrix, s0)
            if not (np.all(scores >= 0.0) and np.all(scores <= 1.0)):
                in_bounds = False

    weight_sum_err = 0.0
    for i in range(1, 11):
        for kernel in (linear_weights, exponential_weights):
            weight_sum_err = max(weight_sum_err, abs(kernel(i).sum() - 1.0))

    half_blend = combine(2, np.full((1, 10), 0.8), 1.0)[0]

    chain = np.full((2, 10), 0.9)
    chain[0, :2] = [0.4, 0.4]
    chain[1, :2] = [0.7, 0.5]
    chained = combine(8, chain, 1.0)
    chain_err = max(abs(chained[0] - 0.7), abs(chained[1] - 0.65))

    passed = (
        in_bounds
        and weight_sum_err <= 1e-12
        and half_blend == 0.9
        and chain_err <= 1e-12
    )
    announce(
        6,
        passed,
        f"bounds={in_bounds} weight_err={weight_sum_err:.1e} "
        f"blend={float(half_blend)!r} chain_err={chain_err:.1e}",
    )
    assert in_bounds
    assert weight_sum_err <= 1e-12
    assert half_blend == 0.9
    assert chain_err <= 1e-12


# --- criterion 7: held-out lift of the distance-weighted strategy ---

TRAIN_CONF = """\
seed = 101
n_tracks = 800
n_sessions = 5000
num_boost_round = 40
eta = 0.1
max_depth = 6
solutions = 9
"""

EVAL_CONF = """\
seed = 202
n_tracks = 800
n_sessions = 1200
solutions = 1,9
"""


def read_report(path):
    rows = {}
    for line in Path(path).read_text().splitlines()[1:]:
        solution, maa, fpa = line.split(",")
        rows[int(solution)] = float(maa)
    return rows


def test_criterion_07_pipeline_beats_baselines_held_out(announce, tmp_path):
    start = time.monotonic()
    train_conf = tmp_path / "train.conf"
    train_conf.write_text(TRAIN_CONF, encoding="utf-8")
    train_dir = tmp_path / "train"
    for stage in ("synth", "extract", "train"):
        assert main([stage, "--config", str(train_conf), "--workdir", str(train_dir)]) == 0

    eval_conf = tmp_path / "eval.conf"
    eval_conf.write_text(EVAL_CONF, encoding="utf-8")
    eval_dir = tmp_path / "eval"
    assert main(["synth", "--config", str(eval_conf), "--workdir", str(eval_dir)]) == 0
    shutil.copytree(train_dir / "bank", eval_dir / "bank")
    for stage in ("predict", "evaluate"):
        assert main([stage, "--config", str(eval_conf), "--workdir", str(eval_dir)]) == 0

    maa = read_report(eval_dir / "report.csv")

    eval_cfg = load_config(str(eval_conf), {})
    _, sessions = generate_synthetic_dataset(eval_cfg.synth, eval_cfg.seed)  # synth's draw
    truths = [np.array([r.skip_2 for r in split_session(s).targets]) for s in sessions]
    all_skip = corpus_scores([(np.ones_like(t), t) for t in truths]).maa
    all_listen = corpus_scores([(np.zeros_like(t), t) for t in truths]).maa
    majority = max(all_skip, all_listen)

    elapsed = time.monotonic() - start
    passed = maa[9] > majority and maa[9] > maa[1] and elapsed < 300.0
    announce(
        7,
        passed,
        f"maa9={maa[9]:.4f} maa1={maa[1]:.4f} majority={majority:.4f} "
        f"elapsed={elapsed:.0f}s",
    )
    assert maa[9] > majority
    assert maa[9] > maa[1]
    assert elapsed < 300.0


# --- criterion 8: reruns with one seed are byte-identical ---

RERUN_CONF = """\
n_tracks = 40
n_sessions = 150
num_boost_round = 8
max_depth = 3
tune_rounds = 2
sample = 0.5
"""


def test_criterion_08_reruns_are_byte_identical(announce, tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(RERUN_CONF, encoding="utf-8")
    dirs = [tmp_path / "first", tmp_path / "second"]
    for workdir in dirs:
        assert main(["run-all", "--config", str(conf), "--workdir", str(workdir)]) == 0
    names = sorted(
        str(p.relative_to(dirs[0])) for p in dirs[0].rglob("*") if p.is_file()
    )
    differing = [
        name
        for name in names
        if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes()
    ]
    passed = not differing and len(names) >= 30
    announce(8, passed, f"files={len(names)} differing={differing or 'none'}")
    assert differing == []
    assert len(names) >= 30  # bank, 12 submissions + scores, reports, corpus


# --- criterion 9: every assembled feature vector is exactly 63 wide ---


def test_criterion_09_every_feature_vector_is_63_wide(announce):
    config = SynthConfig(n_tracks=100, n_sessions=400)
    track_map, sessions = generate_synthetic_dataset(config, seed=9)
    shapes = [assemble_corpus([s], track_map).x.shape for s in sessions]
    expected = [(len(split_session(s).targets), 63) for s in sessions]
    checked = sum(n for n, _width in shapes)
    passed = shapes == expected and FEATURE_COUNT == 63 and checked > 0
    announce(9, passed, f"vectors={checked} blocks={len(shapes)}")
    assert FEATURE_COUNT == 63
    assert shapes == expected


# --- criterion 10: ranking prefers MAA, then first-prediction accuracy ---


def test_criterion_10_ranking_tiebreak(announce):
    a = CorpusScore(maa=0.554, fpa=0.735, n_sessions=100)
    b = CorpusScore(maa=0.551, fpa=0.735, n_sessions=100)
    c = CorpusScore(maa=0.550, fpa=0.742, n_sessions=100)
    d = CorpusScore(maa=0.550, fpa=0.741, n_sessions=100)
    passed = compare(a, b) == 1 and compare(c, d) == 1
    announce(10, passed, f"maa_rule={compare(a, b)} fpa_rule={compare(c, d)}")
    assert compare(a, b) == 1
    assert compare(c, d) == 1
