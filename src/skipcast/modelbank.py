"""A bank of ten boosted-tree models, one per target position.

Targets sit 1..10 positions past the observed history. Each position gets
its own classifier trained on the rows whose target landed there; scoring
produces an (n_rows, 10) matrix with every model's probability for every
target row, which the combination strategies consume session by session.

Positions whose training rows are missing or single-class get a constant
fallback model (zero trees, smoothed-prevalence base score) and a warning;
bank training never aborts because one position is starved.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import IO

import numpy as np

from .datamodel import MAX_TARGET_POSITIONS
from .errors import (
    ConfigError,
    DegenerateSampleError,
    IntegrityError,
    RowParseError,
    SchemaError,
)
from .features import FeatureTable, feature_schema_hash
from .gbdt import GBDTModel, TrainParams, auc, train

MANIFEST_NAME = "manifest.json"

ETA_GRID = (0.1, 0.2, 0.3)
MAX_DEPTH_GRID = (6, 10, 15)
COLSAMPLE_GRID = (0.8, 1.0)
SUBSAMPLE_GRID = (0.8, 0.9, 1.0)


def partition_by_position(positions: np.ndarray) -> list[np.ndarray]:
    """Row indices per target position, as a 10-element list."""
    positions = np.asarray(positions)
    if positions.size and (
        positions.min() < 1 or positions.max() > MAX_TARGET_POSITIONS
    ):
        bad = positions[(positions < 1) | (positions > MAX_TARGET_POSITIONS)][0]
        raise IntegrityError(
            f"target position {int(bad)} outside [1, {MAX_TARGET_POSITIONS}]"
        )
    return [
        np.nonzero(positions == j)[0] for j in range(1, MAX_TARGET_POSITIONS + 1)
    ]


def _smoothed_logit(n_pos: int, n: int) -> float:
    p = (n_pos + 1.0) / (n + 2.0)
    return math.log(p / (1.0 - p))


def _constant_model(
    params: TrainParams, n_features: int, seed: int, n_pos: int, n: int
) -> GBDTModel:
    return GBDTModel(
        params=params,
        base_score=_smoothed_logit(n_pos, n),
        n_features=n_features,
        seed=seed,
        trees=[],
    )


@dataclass(eq=False)
class ModelBank:
    models: list[GBDTModel]
    params: TrainParams
    seed: int
    fallback_positions: tuple[int, ...]

    def predict_matrix(self, x: np.ndarray) -> np.ndarray:
        """(n_rows, 10) matrix of every position model's probability."""
        x = np.asarray(x, dtype=np.float64)
        return np.column_stack([m.predict_proba(x) for m in self.models])

    def save(self, bank_dir: Path | str) -> None:
        bank_dir = Path(bank_dir)
        bank_dir.mkdir(parents=True, exist_ok=True)
        names = []
        for j, model in enumerate(self.models, start=1):
            name = f"model_{j:02d}.json"
            model.save(bank_dir / name)
            names.append(name)
        manifest = {
            "format": "skipcast-bank",
            "version": 1,
            "feature_schema_hash": feature_schema_hash(),
            "params": asdict(self.params),
            "seed": self.seed,
            "models": names,
            "fallback_positions": list(self.fallback_positions),
        }
        (bank_dir / MANIFEST_NAME).write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )

    @classmethod
    def load(cls, bank_dir: Path | str) -> "ModelBank":
        bank_dir = Path(bank_dir)
        manifest_path = bank_dir / MANIFEST_NAME
        if not manifest_path.exists():
            raise SchemaError(f"no bank manifest at {manifest_path}")
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            if manifest.get("format") != "skipcast-bank":
                raise SchemaError(f"{manifest_path} is not a model bank manifest")
            if manifest["feature_schema_hash"] != feature_schema_hash():
                raise SchemaError(
                    "bank was trained with a different feature schema; re-train it"
                )
            models = [GBDTModel.load(bank_dir / name) for name in manifest["models"]]
            return cls(
                models=models,
                params=TrainParams(**manifest["params"]),
                seed=int(manifest["seed"]),
                fallback_positions=tuple(manifest["fallback_positions"]),
            )
        except (
            ConfigError, ValueError, KeyError, TypeError, AttributeError, RecursionError
        ) as exc:
            raise SchemaError(f"corrupt bank manifest {manifest_path}: {exc!r}") from exc


def train_bank(table: FeatureTable, params: TrainParams, seed: int) -> ModelBank:
    """Train the 10 position models; starved positions fall back to constants."""
    if len(table) == 0:
        raise DegenerateSampleError("cannot train a bank on an empty table")
    n_features = table.x.shape[1]
    global_pos = int(table.labels.sum())
    models: list[GBDTModel] = []
    fallbacks: list[int] = []
    for j, rows in enumerate(partition_by_position(table.positions), start=1):
        model_seed = seed + j
        y = table.labels[rows]
        n = int(rows.size)
        n_pos = int(y.sum())
        if n < 2 or n_pos == 0 or n_pos == n:
            warnings.warn(
                f"position {j}: {n} rows with {n_pos} positives; "
                "using a constant fallback model",
                RuntimeWarning,
                stacklevel=2,
            )
            if n == 0:
                n_pos, n = global_pos, len(table)
            models.append(_constant_model(params, n_features, model_seed, n_pos, n))
            fallbacks.append(j)
            continue
        models.append(train(table.x[rows], y, params, seed=model_seed))
    return ModelBank(
        models=models, params=params, seed=seed, fallback_positions=tuple(fallbacks)
    )


@dataclass(frozen=True)
class GridRow:
    eta: float
    max_depth: int
    colsample: float
    subsample: float
    val_auc: float

    @property
    def params(self) -> dict:
        return {
            "eta": self.eta,
            "max_depth": self.max_depth,
            "colsample": self.colsample,
            "subsample": self.subsample,
        }


GRID_REPORT_HEADER = "eta,max_depth,colsample,subsample,val_auc,best"


@dataclass(eq=False)
class GridReport:
    rows: list[GridRow]
    best_index: int

    @property
    def best_params(self) -> dict:
        return self.rows[self.best_index].params

    def write_csv(self, stream: IO[str]) -> None:
        stream.write(GRID_REPORT_HEADER + "\n")
        for i, row in enumerate(self.rows):
            stream.write(
                ",".join(
                    [
                        repr(float(row.eta)),
                        str(row.max_depth),
                        repr(float(row.colsample)),
                        repr(float(row.subsample)),
                        repr(float(row.val_auc)),
                        "1" if i == self.best_index else "0",
                    ]
                )
                + "\n"
            )

    @classmethod
    def read_csv(cls, stream: IO[str]) -> "GridReport":
        lines = stream.read().splitlines()
        if not lines or lines[0] != GRID_REPORT_HEADER:
            raise SchemaError("not a grid report file")
        n_cells = len(GRID_REPORT_HEADER.split(","))
        rows, best = [], 0
        for line_num, line in enumerate(lines[1:], start=2):
            cells = line.split(",")
            try:
                if len(cells) != n_cells or cells[5] not in ("0", "1"):
                    raise ValueError(
                        f"expected {n_cells} cells ending in a 0/1 best marker, "
                        f"got {line!r}"
                    )
                rows.append(
                    GridRow(
                        eta=float(cells[0]),
                        max_depth=int(cells[1]),
                        colsample=float(cells[2]),
                        subsample=float(cells[3]),
                        val_auc=float(cells[4]),
                    )
                )
                TrainParams(**rows[-1].params)
            except (ValueError, ConfigError) as exc:
                raise RowParseError(f"grid report line {line_num}: {exc}", line_num)
            if cells[5] == "1":
                best = len(rows) - 1
        if not rows:
            raise SchemaError("grid report has no rows")
        return cls(rows=rows, best_index=best)


def sample_sessions(table: FeatureTable, fraction: float, seed: int) -> FeatureTable:
    """Restrict a table to a random fraction of its sessions, keeping row order."""
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"sample fraction must be in (0, 1], got {fraction}")
    unique = list(dict.fromkeys(table.session_ids))
    n_sessions = int(round(fraction * len(unique)))
    if n_sessions >= len(unique):
        return table
    n_sessions = max(2, n_sessions)
    rng = np.random.default_rng([seed, 2])
    chosen = set(
        unique[i] for i in rng.choice(len(unique), size=n_sessions, replace=False)
    )
    keep = np.array([sid in chosen for sid in table.session_ids], dtype=bool)
    idx = np.nonzero(keep)[0]
    return FeatureTable(
        x=table.x[idx],
        labels=table.labels[idx],
        positions=table.positions[idx],
        session_ids=tuple(table.session_ids[i] for i in idx),
    )


def grid_search(
    table: FeatureTable, seed: int, num_boost_round: int = 20
) -> GridReport:
    """Sweep the 54-point hyperparameter grid on a pooled 80/20 session split.

    One model is trained per grid point on all positions pooled together and
    scored by held-out AUC. Grid order is eta, then max_depth, then
    colsample, then subsample, slowest to fastest; ties keep the earlier row.
    """
    unique = list(dict.fromkeys(table.session_ids))
    if len(unique) < 2:
        raise DegenerateSampleError(
            f"grid search needs at least 2 sessions, got {len(unique)}"
        )
    rng = np.random.default_rng([seed, 1])
    perm = rng.permutation(len(unique))
    n_train = max(1, int(round(0.8 * len(unique))))
    if n_train == len(unique):
        n_train -= 1
    train_sids = set(unique[i] for i in perm[:n_train])
    in_train = np.array([sid in train_sids for sid in table.session_ids], dtype=bool)
    x_train, y_train = table.x[in_train], table.labels[in_train]
    x_val, y_val = table.x[~in_train], table.labels[~in_train]

    rows: list[GridRow] = []
    best_index = 0
    for eta in ETA_GRID:
        for max_depth in MAX_DEPTH_GRID:
            for colsample in COLSAMPLE_GRID:
                for subsample in SUBSAMPLE_GRID:
                    params = TrainParams(
                        num_boost_round=num_boost_round,
                        eta=eta,
                        max_depth=max_depth,
                        colsample=colsample,
                        subsample=subsample,
                    )
                    model = train(x_train, y_train, params, seed=seed)
                    val_auc = auc(model.predict_proba(x_val), y_val)
                    rows.append(
                        GridRow(
                            eta=eta,
                            max_depth=max_depth,
                            colsample=colsample,
                            subsample=subsample,
                            val_auc=val_auc,
                        )
                    )
                    if rows[-1].val_auc > rows[best_index].val_auc:
                        best_index = len(rows) - 1
    return GridReport(rows=rows, best_index=best_index)
