"""Gradient-boosted regression trees for binary classification.

Second-order boosting on the logistic loss. Each round fits one regression
tree to the per-row gradients and hessians, using exact greedy split search
with the standard regularized gain

    1/2 * (GL^2/(HL+lambda) + GR^2/(HR+lambda) - G^2/(H+lambda)) - gamma

and leaf values -G/(H+lambda). The learning rate is applied when a tree's
output is accumulated into the margin, not baked into the leaves.

Each train() call sorts x.T once into a (features, rows) block of row
indices, kept as argsort's intp, the index type numpy gathers with, so no
gather converts it. Beside it, it keeps an int32 block of boundary codes
(_boundaries): runs[f, j] counts the valid boundaries of feature f's whole
sorted column before slot j. A boundary is valid when the midpoint of its
two values lies above the lower one; between adjacent doubles it can round
down onto it. A node carries both blocks restricted to its rows, and a
split cuts them into the children's blocks with the same stable masks, so
no node sorts; the result equals sorting each node's own values. A scan
reads a node's boundary as valid where its two codes differ, without
gathering a feature value: a midpoint rounds down only between adjacent
doubles whose lower value has an even mantissa, and two such pairs never
follow each other, so between two distinct values of a node the column
holds either that one invalid boundary alone or a valid one. This needs
lo + hi to be finite; train() and best_split() ensure it by refusing a
matrix with NaN or any |x| >= MAGNITUDE_BOUND = 2**1023 (IntegrityError),
which also keeps every threshold, and so every model file, finite.

Tree growth decides whether a child is scanned before it cuts the parent's
block, and gathers a block only for a child that will be: one below
max_depth with at least 2 rows, at least one feature and a hessian sum of
at least 2 * min_child_weight (below that, no boundary can leave
min_child_weight on both sides).

A scan takes both prefix sums from one gather and one cumsum of the packed
complex array g + 1j*h. Complex addition adds the real parts and the
imaginary parts separately, in the same order, so each prefix sum is
bit-identical to a float cumsum of g or h alone. A node's own totals stay
two float sums: numpy groups a complex sum's terms differently, and the
result can differ in the last bit. With lambda_ = 0, a node whose hessians
are all 0 has no finite score or leaf value, which raises ConfigError.

A tree is the nested dict the model file stores: a leaf is {"value": v},
a split is {"feature", "threshold", "left", "right"}, and rows with
x[feature] < threshold go left.

Determinism: row and column subsampling draw from one np.random.default_rng
seeded at train() time, rows before columns each round, and both index sets
are sorted before use. Training twice with the same inputs and seed yields
bitwise-identical models.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DegenerateLabelsError,
    DimensionError,
    IntegrityError,
    SchemaError,
    SkipcastError,
    UndefinedMetricError,
)

_P_EPS = 1e-15
#: Every value that training reads has a magnitude below this: from it up,
#: the sum of two values can overflow into an infinite midpoint threshold.
MAGNITUDE_BOUND = 2.0**1023


@dataclass(frozen=True)
class TrainParams:
    num_boost_round: int = 200
    eta: float = 0.3
    max_depth: int = 6
    min_child_weight: float = 1.0
    lambda_: float = 1.0
    gamma: float = 0.0
    subsample: float = 1.0
    colsample: float = 1.0

    def __post_init__(self) -> None:
        for name in ("num_boost_round", "max_depth"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            # a Python int, which a saved model's JSON can hold
            object.__setattr__(self, name, int(value))
        if self.num_boost_round < 1:
            raise ConfigError(f"num_boost_round must be >= 1, got {self.num_boost_round}")
        if not 0.0 < self.eta <= 1.0:
            raise ConfigError(f"eta must be in (0, 1], got {self.eta}")
        # tree growth, inference and the model loader recurse once per level
        if not 1 <= self.max_depth <= 64:
            raise ConfigError(f"max_depth must be in [1, 64], got {self.max_depth}")
        if not self.min_child_weight >= 0.0:
            raise ConfigError(
                f"min_child_weight must be >= 0, got {self.min_child_weight}"
            )
        if not self.lambda_ >= 0.0:
            raise ConfigError(f"lambda_ must be >= 0, got {self.lambda_}")
        if not self.gamma >= 0.0:
            raise ConfigError(f"gamma must be >= 0, got {self.gamma}")
        if not 0.0 < self.subsample <= 1.0:
            raise ConfigError(f"subsample must be in (0, 1], got {self.subsample}")
        if not 0.0 < self.colsample <= 1.0:
            raise ConfigError(f"colsample must be in (0, 1], got {self.colsample}")


@dataclass(frozen=True)
class Split:
    feature: int
    threshold: float
    gain: float


def _finite(raw, what: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise SchemaError(f"{what} {value} is not finite")
    return value


def _check_magnitudes(x: np.ndarray) -> None:
    """Raise IntegrityError unless every |value| in `x` is below MAGNITUDE_BOUND."""
    # max and min propagate NaN, and the comparisons then fail
    if not (x.max(initial=-np.inf) < MAGNITUDE_BOUND and x.min(initial=np.inf) > -MAGNITUDE_BOUND):
        raise IntegrityError(
            "training matrix contains NaN, inf or a value of magnitude 2**1023 "
            "or more; a midpoint threshold needs |x| < 2**1023"
        )


def _integer(raw, what: str) -> int:
    if type(raw) is not int:  # a JSON integer: not 6.7, "6" or true
        raise SchemaError(f"{what} {raw!r} is not an integer")
    return raw


def _checked_tree(node: dict, n_features: int) -> dict:
    """A model-file tree rebuilt with int/float cells, every cell checked."""
    if "value" in node:
        return {"value": _finite(node["value"], "leaf value")}
    feature = _integer(node["feature"], "split feature")
    if not 0 <= feature < n_features:
        raise SchemaError(f"split on feature {feature} outside [0, {n_features})")
    return {
        "feature": feature,
        "threshold": _finite(node["threshold"], "split threshold"),
        "left": _checked_tree(node["left"], n_features),
        "right": _checked_tree(node["right"], n_features),
    }


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function: 1 / (1 + e^-z) for z >= 0 and
    e^z / (1 + e^z) below, both from e = exp(-|z|), which cannot overflow."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def logistic_grad_hess(
    margins: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivatives of the logistic loss wrt the margin."""
    margins = np.asarray(margins, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if margins.shape != labels.shape:
        raise DimensionError(
            f"margins shape {margins.shape} != labels shape {labels.shape}"
        )
    p = sigmoid(margins)
    return p - labels, p * (1.0 - p)


def logistic_loss(margins: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood; the quantity boosting drives down."""
    p = np.clip(sigmoid(margins), _P_EPS, 1.0 - _P_EPS)
    labels = np.asarray(labels, dtype=np.float64)
    return float(-np.mean(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)))


def best_split(
    x: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    params: TrainParams,
    feature_indices: Optional[Sequence[int]] = None,
) -> Optional[Split]:
    """Exact greedy search over midpoint thresholds of every candidate feature.

    Returns the split with the highest gain, or None when no candidate has
    strictly positive gain while satisfying min_child_weight on both sides.
    Ties go to the feature listed first, then the lowest threshold. Rows
    with value < threshold fall left. As in train(), NaN or |x| >=
    MAGNITUDE_BOUND raises IntegrityError, and with lambda_ = 0 a zero
    hessian sum, which the node's score divides by, raises ConfigError.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(f"x must be 2-dimensional, got ndim={x.ndim}")
    n, n_features = x.shape
    if g.shape != (n,) or h.shape != (n,):
        raise DimensionError(
            f"g/h must have shape ({n},), got {g.shape} and {h.shape}"
        )
    _check_magnitudes(x)
    if feature_indices is None:
        feature_indices = range(n_features)
    cols = np.asarray(feature_indices, dtype=np.intp)
    total_g, total_h = float(g.sum()), float(h.sum())
    if not _scanned(n, cols.size, total_h, params.min_child_weight):
        _over(total_g * total_g, total_h, params.lambda_)  # raises as a scan would
        return None
    block = np.argsort(x.T[cols], axis=1, kind="stable")
    rb = _boundaries(x[block, cols[:, None]])
    return _scan(x, _packed(g, h), block, rb, cols, total_g, total_h, params)


def _boundaries(sv: np.ndarray) -> np.ndarray:
    """The int32 boundary codes of the sorted rows of `sv`: entry j counts
    the valid boundaries before slot j. A boundary is valid where a
    midpoint threshold separates its neighbours; one that rounds down to
    the left value would send the left value's rows right."""
    lo, hi = sv[:, :-1], sv[:, 1:]
    runs = np.zeros(sv.shape, dtype=np.int32)
    np.cumsum((lo < hi) & (lo < (lo + hi) / 2.0), axis=1, dtype=np.int32, out=runs[:, 1:])
    return runs


def _over(numerator: float, total_h: float, lambda_: float) -> float:
    """numerator / (total_h + lambda_): a node's score or leaf-value division."""
    if total_h + lambda_ == 0.0:
        raise ConfigError(
            "lambda_ = 0 and a node's hessian sum is 0: its score divides by "
            "zero; set lambda_ > 0"
        )
    return numerator / (total_h + lambda_)


def _packed(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """g + 1j * h, built from the two parts so each is copied exactly."""
    gh = np.empty(g.shape, dtype=np.complex128)
    gh.real, gh.imag = g, h
    return gh


def _scanned(n_rows: int, n_features: int, total_h: float, min_child_weight: float) -> bool:
    """Whether a node can hold a valid boundary, so that it is worth scanning.

    Below 2 * min_child_weight no boundary leaves enough hessian on both
    sides, exactly: for a prefix with hl >= min_child_weight, total_h - hl
    is exact (Sterbenz) or negative, so it is below min_child_weight.
    """
    return n_rows >= 2 and n_features > 0 and not total_h < 2.0 * min_child_weight


def _scan(
    x: np.ndarray,
    gh: np.ndarray,
    block: np.ndarray,
    rb: np.ndarray,
    cols: np.ndarray,
    total_g: float,
    total_h: float,
    params: TrainParams,
) -> Optional[Split]:
    """best_split's search over one node's sorted row-index block.

    Row i of `block` lists the node's rows in stable order of x[:, cols[i]],
    and the same row of `rb` their boundary codes (_boundaries); gh is
    _packed(g, h) over all rows; total_g and total_h are the node's
    gradient and hessian sums. The caller checks _scanned first.
    """
    lam = params.lambda_
    parent_score = _over(total_g * total_g, total_h, lam)
    k, n = block.shape

    valid = rb[:, 1:] != rb[:, :-1]
    # one row per candidate feature keeps each prefix sum contiguous;
    # complex addition sums the real and imaginary parts separately, in
    # the same order, so both prefix sums equal their own cumsum bit for bit
    ghl = gh[block]
    np.cumsum(ghl, axis=1, out=ghl)
    gl = ghl.real[:, :-1].copy()
    hl = ghl.imag[:, :-1].copy()
    del ghl
    valid &= hl >= params.min_child_weight
    hr, gr = total_h - hl, total_g - gl
    valid &= hr >= params.min_child_weight
    # the gain in place, so a node holds at most four (features, n) float arrays
    hl += lam
    hr += lam
    gl *= gl
    gr *= gr
    gl /= hl
    gr /= hr
    gains = np.add(gl, gr, out=gr)
    del gl, hl, hr
    gains -= parent_score
    gains *= 0.5
    gains -= params.gamma
    gains = np.where(valid, gains, -np.inf)
    # row-major order: ties go to the first feature, then the lowest threshold
    i, at = divmod(int(np.argmax(gains)), n - 1)
    if np.isnan(gains[i, at]):
        # a NaN gain (lambda_ = 0) wins only on the first feature with a
        # valid boundary, as a strict '>' scan over the features would
        ats = np.argmax(gains, axis=1)
        top = gains[np.arange(k), ats]
        first = int(np.argmax(valid.any(axis=1)))
        nan = np.isnan(top)
        i = first if nan[first] else int(np.argmax(np.where(nan, -np.inf, top)))
        at = int(ats[i])
    gain = float(gains[i, at])
    if gain <= 0.0:
        return None
    lo, hi = x[block[i, at : at + 2], cols[i]]
    return Split(int(cols[i]), float((lo + hi) / 2.0), gain)


def _cut(blocks: tuple, keep: np.ndarray) -> tuple:
    """The entries of each block of `blocks` where the same-shaped mask
    `keep` holds, which picks as many in every row; each row keeps its
    order, so a sorted block stays sorted. np.compress is several times
    faster than block[keep] from about 48 rows up."""
    keep = keep.ravel()
    return tuple(np.compress(keep, b).reshape(b.shape[0], -1) for b in blocks)


def _tree_predict(node: dict, x: np.ndarray, rows: np.ndarray, out: np.ndarray) -> None:
    if "value" in node:
        out[rows] = node["value"]
        return
    mask = x[rows, node["feature"]] < node["threshold"]
    _tree_predict(node["left"], x, rows[mask], out)
    _tree_predict(node["right"], x, rows[~mask], out)


def tree_values(node: dict, x: np.ndarray) -> np.ndarray:
    out = np.empty(x.shape[0], dtype=np.float64)
    _tree_predict(node, x, np.arange(x.shape[0]), out)
    return out


@dataclass(eq=False)
class GBDTModel:
    params: TrainParams
    base_score: float
    n_features: int
    seed: int
    trees: list[dict] = field(default_factory=list)

    def _check_features(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise DimensionError(
                f"model expects {self.n_features} features per row, "
                f"got array of shape {x.shape}"
            )
        if np.isnan(x).any():
            raise IntegrityError("feature matrix contains NaN")
        return x

    def predict_margin(self, x: np.ndarray) -> np.ndarray:
        x = self._check_features(x)
        margins = np.full(x.shape[0], self.base_score, dtype=np.float64)
        for tree in self.trees:
            margins += self.params.eta * tree_values(tree, x)
        return margins

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Skip probabilities, clipped into the open interval (0, 1)."""
        p = sigmoid(self.predict_margin(x))
        return np.clip(p, _P_EPS, 1.0 - _P_EPS)

    def to_dict(self) -> dict:
        return {
            "format": "skipcast-gbdt",
            "version": 1,
            "params": asdict(self.params),
            "base_score": self.base_score,
            "n_features": self.n_features,
            "seed": self.seed,
            "trees": self.trees,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "GBDTModel":
        if payload.get("format") != "skipcast-gbdt":
            raise SchemaError("not a serialized gradient-boosted tree model")
        if payload.get("version") != 1:
            raise SchemaError(f"unsupported model version {payload.get('version')!r}")
        n_features = _integer(payload["n_features"], "n_features")
        return cls(
            params=TrainParams(**payload["params"]),
            base_score=_finite(payload["base_score"], "base score"),
            n_features=n_features,
            seed=_integer(payload["seed"], "seed"),
            trees=[_checked_tree(t, n_features) for t in payload["trees"]],
        )

    def save(self, path: Path | str) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), sort_keys=True, indent=None) + "\n",
            encoding="utf-8",
        )

    @classmethod
    def load(cls, path: Path | str) -> "GBDTModel":
        try:
            return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
        except (
            SkipcastError, ValueError, KeyError, TypeError, AttributeError, RecursionError
        ) as exc:
            raise SchemaError(f"corrupt model file {path}: {exc!r}") from exc


# with lambda_ = 0 a gain may divide by a zero hessian sum: _scan handles
# the NaN or inf that gives, and a leaf's score raises in _over
@np.errstate(divide="ignore", invalid="ignore")
def train(
    x: np.ndarray,
    y: np.ndarray,
    params: TrainParams = TrainParams(),
    seed: int = 0,
) -> GBDTModel:
    """Fit a boosted-tree classifier. Requires both label classes present."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(f"x must be 2-dimensional, got ndim={x.ndim}")
    n, n_features = x.shape
    if y.shape != (n,):
        raise DimensionError(f"y must have shape ({n},), got {y.shape}")
    if n < 2:
        raise DegenerateLabelsError(f"need at least 2 training rows, got {n}")
    _check_magnitudes(x)
    prevalence = float(y.mean())
    if prevalence <= 0.0 or prevalence >= 1.0:
        raise DegenerateLabelsError(
            "training labels contain a single class; cannot fit a classifier"
        )

    base_score = math.log(prevalence / (1.0 - prevalence))
    model = GBDTModel(
        params=params, base_score=base_score, n_features=n_features, seed=seed
    )
    rng = np.random.default_rng(seed)
    margins = np.full(n, base_score, dtype=np.float64)
    all_rows = np.arange(n)
    all_features = np.arange(n_features)
    # a node's rows stay in ascending index order, so this stable order
    # restricted to them is the stable order of the node's own values
    order = np.argsort(x.T, axis=1, kind="stable")
    runs = _boundaries(np.take_along_axis(x.T, order, axis=1))

    def totals(rows: np.ndarray, depth: int) -> tuple[float, float, bool]:
        """The gradient and hessian sums of a node and whether to scan it."""
        total_g, total_h = float(g[rows].sum()), float(h[rows].sum())
        scan = depth < params.max_depth and _scanned(
            rows.size, features.size, total_h, params.min_child_weight
        )
        return total_g, total_h, scan

    def grow(rows, total_g, total_h, blocks, depth: int) -> dict:
        """The subtree of the node holding `rows` (ascending), from totals().

        `blocks` is the node's sorted block and its codes if totals() chose
        to scan it, else None. It reads the g, h and features of the round
        being grown. The caller hands `blocks` over: once this node has cut
        them into its children's blocks it drops them, so only pending
        siblings' blocks, which cover disjoint rows, stay alive down the
        recursion.
        """
        if blocks is not None:
            block, rb = blocks
            split = _scan(x, gh, block, rb, features, total_g, total_h, params)
            if split is not None:
                goes_left = x[:, split.feature] < split.threshold
                mask = goes_left[rows]
                left, right = rows[mask], rows[~mask]
                left_g, left_h, scan_left = totals(left, depth + 1)
                right_g, right_h, scan_right = totals(right, depth + 1)
                side = goes_left[block] if scan_left or scan_right else None
                pending = [_cut(blocks, ~side) if scan_right else None,
                           _cut(blocks, side) if scan_left else None]
                del blocks, block, rb, side
                return {
                    "feature": split.feature,
                    "threshold": split.threshold,
                    "left": grow(left, left_g, left_h, pending.pop(), depth + 1),
                    "right": grow(right, right_g, right_h, pending.pop(), depth + 1),
                }
        return {"value": _over(-total_g, total_h, params.lambda_)}

    for _ in range(params.num_boost_round):
        g, h = logistic_grad_hess(margins, y)
        gh = _packed(g, h)
        if params.subsample < 1.0:
            m = max(1, int(params.subsample * n))
            rows = np.sort(rng.choice(n, size=m, replace=False))
        else:
            rows = all_rows
        if params.colsample < 1.0:
            k = max(1, int(params.colsample * n_features))
            features = np.sort(rng.choice(n_features, size=k, replace=False))
            blocks = (order[features], runs[features])
        else:
            features, blocks = all_features, (order, runs)
        total_g, total_h, scan = totals(rows, 0)
        if not scan:
            blocks = None
        elif rows.size < n:
            kept = np.zeros(n, dtype=bool)
            kept[rows] = True
            blocks = _cut(blocks, kept[blocks[0]])
        tree = grow(rows, total_g, total_h, blocks, 0)
        model.trees.append(tree)
        margins += params.eta * tree_values(tree, x)
    return model


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve via the rank statistic; ties count half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise DimensionError(
            f"scores and labels must be equal-length vectors, got "
            f"{scores.shape} and {labels.shape}"
        )
    pos = labels.astype(bool)
    n_pos = int(pos.sum())
    n_neg = int(labels.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            "auc needs both a positive and a negative example"
        )
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    # runs of equal scores; NaN != NaN, so each NaN score is a run of its own
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    ends = np.append(starts[1:], scores.size) - 1
    ranks = np.empty(scores.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    pos_rank_sum = float(ranks[pos].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
