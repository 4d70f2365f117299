"""Gradient-boosted regression trees for binary classification.

Second-order boosting on the logistic loss. Each round fits one regression
tree to the per-row gradients and hessians, using exact greedy split search
with the standard regularized gain

    1/2 * (GL^2/(HL+lambda) + GR^2/(HR+lambda) - G^2/(H+lambda)) - gamma

and leaf values -G/(H+lambda). The learning rate is applied when a tree's
output is accumulated into the margin, not baked into the leaves.

Each train() call sorts x.T once into an int32 (features, rows) block of
row indices. A node carries that block restricted to its rows, and a split
cuts it into the children's blocks with one stable boolean gather, so no
node sorts; the result equals sorting each node's own values. A node whose
hessian sum is below 2 * min_child_weight is not scanned: no boundary of it
can leave min_child_weight on both sides.

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
    """Numerically stable logistic function, evaluated branch-wise."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


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
    with value < threshold fall left.
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
    if feature_indices is None:
        feature_indices = range(n_features)
    cols = np.asarray(feature_indices, dtype=np.intp)
    block = np.argsort(x.T[cols], axis=1, kind="stable")
    return _scan(x, g, h, block, cols, float(g.sum()), float(h.sum()), params)


def _scan(
    x: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    block: np.ndarray,
    cols: np.ndarray,
    total_g: float,
    total_h: float,
    params: TrainParams,
) -> Optional[Split]:
    """best_split's search over one node's sorted row-index block.

    Row i of `block` lists the node's rows in stable order of x[:, cols[i]];
    total_g and total_h are the node's gradient and hessian sums.
    """
    lam = params.lambda_
    parent_score = total_g * total_g / (total_h + lam)
    k, n = block.shape
    # Below 2 * min_child_weight no boundary leaves enough hessian on both
    # sides, exactly: for a prefix with hl >= min_child_weight, total_h - hl
    # is exact (Sterbenz) or negative, so it is below min_child_weight.
    if n < 2 or k == 0 or total_h < 2.0 * params.min_child_weight:
        return None

    # one row per candidate feature keeps each prefix sum contiguous
    sv = x[block, cols[:, None]]
    gl, hl = g[block], h[block]
    np.cumsum(gl, axis=1, out=gl)
    np.cumsum(hl, axis=1, out=hl)
    lo, hi, gl, hl = sv[:, :-1], sv[:, 1:], gl[:, :-1], hl[:, :-1]
    # a midpoint that rounds down to the left value would misroute rows
    mid = (lo + hi) / 2.0
    valid = (lo < hi) & (lo < mid) & (hl >= params.min_child_weight)
    del sv, lo, hi  # the chosen threshold is read back from x
    hr, gr = np.subtract(total_h, hl, out=mid), total_g - gl
    valid &= hr >= params.min_child_weight
    # the gain in place, so a node holds at most four (features, n) float arrays
    hl += lam
    hr += lam
    gl *= gl
    gr *= gr
    gl /= hl
    gr /= hr
    gains = np.add(gl, gr, out=gr)
    gains -= parent_score
    gains *= 0.5
    gains -= params.gamma
    gains[~valid] = -np.inf
    at = np.argmax(gains, axis=1)
    top = gains[np.arange(k), at]
    # ties go to the first feature; a NaN gain (lambda_ = 0) wins only on
    # the first feature with a valid boundary, as a strict '>' scan would
    first = int(np.argmax(valid.any(axis=1)))
    nan = np.isnan(top)
    i = first if nan[first] else int(np.argmax(np.where(nan, -np.inf, top)))
    if top[i] <= 0.0:
        return None
    lo, hi = x[block[i, at[i] : at[i] + 2], cols[i]]
    return Split(int(cols[i]), float((lo + hi) / 2.0), float(top[i]))


def _build_tree(
    x: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    rows: np.ndarray,
    block: np.ndarray,
    depth: int,
    params: TrainParams,
    cols: np.ndarray,
) -> dict:
    """Grow the subtree of the node holding `rows` (ascending) from its block.

    The caller hands `block` over: once this node has cut it into its
    children's blocks it drops it, so only pending siblings' blocks, which
    cover disjoint rows, stay alive down the recursion.
    """
    total_g, total_h = float(g[rows].sum()), float(h[rows].sum())
    if depth < params.max_depth:
        split = _scan(x, g, h, block, cols, total_g, total_h, params)
        if split is not None:
            goes_left = x[:, split.feature] < split.threshold
            # a stable gather keeps each child's block sorted
            side = goes_left[block]
            pending = [block[~side].reshape(block.shape[0], -1),
                       block[side].reshape(block.shape[0], -1)]
            del block, side
            mask = goes_left[rows]
            return {
                "feature": split.feature,
                "threshold": split.threshold,
                "left": _build_tree(
                    x, g, h, rows[mask], pending.pop(), depth + 1, params, cols
                ),
                "right": _build_tree(
                    x, g, h, rows[~mask], pending.pop(), depth + 1, params, cols
                ),
            }
    return {"value": -total_g / (total_h + params.lambda_)}


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
    if np.isnan(x).any():
        raise IntegrityError("training matrix contains NaN")
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
    order = np.argsort(x.T, axis=1, kind="stable").astype(np.int32)

    for _ in range(params.num_boost_round):
        g, h = logistic_grad_hess(margins, y)
        if params.subsample < 1.0:
            m = max(1, int(params.subsample * n))
            rows = np.sort(rng.choice(n, size=m, replace=False))
        else:
            rows = all_rows
        if params.colsample < 1.0:
            k = max(1, int(params.colsample * n_features))
            features = np.sort(rng.choice(n_features, size=k, replace=False))
            block = order[features]
        else:
            features, block = all_features, order
        if rows.size < n:
            kept = np.zeros(n, dtype=bool)
            kept[rows] = True
            block = block[kept[block]].reshape(block.shape[0], rows.size)
        tree = _build_tree(x, g, h, rows, block, 0, params, features)
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
