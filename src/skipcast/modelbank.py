"""A bank of ten boosted-tree models, one per target position.

Targets sit 1..10 positions past the observed history. Each position gets
its own classifier trained on the rows whose target landed there; scoring
produces an (n_rows, 10) matrix with every model's probability for every
target row, which the combination strategies consume session by session.

Positions whose training rows are missing or single-class get a constant
fallback model (zero trees, smoothed-prevalence base score) and a warning;
bank training never aborts because one position is starved.

The fits of ``train_bank`` (one per trainable position) and of
``grid_search`` (one per GRID point) run in worker processes, one per CPU
in this process's affinity mask and at most one per fit; ``taskset -c 0``
runs them on one CPU. Every fit seeds its own rng and results come back in
job order, so the output is byte-identical for any number of workers.
Fallback decisions, their warnings and the choice of the best grid row
stay in the calling process.
"""

from __future__ import annotations

import itertools
import json
import math
import multiprocessing
import os
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import IO

import numpy as np

from .datamodel import MAX_TARGET_POSITIONS, csv_rows, parse_cell
from .errors import (
    ConfigError,
    DegenerateSampleError,
    IntegrityError,
    RowParseError,
    SchemaError,
)
from .features import FEATURE_COUNT, FeatureTable, feature_schema_hash
from .gbdt import GBDTModel, TrainParams, _integer, auc, train

MANIFEST_NAME = "manifest.json"

#: The tuned TrainParams fields and their values, slowest-varying first.
GRID = {
    "eta": (0.1, 0.2, 0.3),
    "max_depth": (6, 10, 15),
    "colsample": (0.8, 1.0),
    "subsample": (0.8, 0.9, 1.0),
}


# what every job of a worker's pool shares; the pool initializer sets it in
# each worker process, and the calling process never does
_shared: tuple = ()


def _share(*values) -> None:
    global _shared
    _shared = values


def _map_fits(fit, jobs: list, *shared) -> list:
    """[fit(job) for job in jobs], run on worker processes that hold `shared`.

    `fit` is a module-level function that reads `shared` from `_shared`.
    There is one worker per CPU this process may run on, at most one per
    job. Results, and the error of the first failing job, come in job order.
    Workers start by `fork` on Linux, where a forked worker inherits the
    imported numpy and skipcast; `forkserver` and `spawn` workers import
    them afresh in every pool, which made small tunes slower than serial.
    Elsewhere the platform's default start method is used.
    """
    if not jobs:
        return []
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    context = multiprocessing.get_context(
        "fork" if sys.platform == "linux" else None
    )
    with ProcessPoolExecutor(
        max_workers=min(len(jobs), cpus),
        mp_context=context,
        initializer=_share,
        initargs=shared,
    ) as pool:
        return list(pool.map(fit, jobs))


def _fit_position(job: tuple[np.ndarray, int]) -> GBDTModel:
    x, labels, params = _shared
    rows, seed = job
    return train(x[rows], labels[rows], params, seed=seed)


def _fit_grid_point(tuned: dict) -> float:
    x_train, y_train, x_val, y_val, num_boost_round, seed = _shared
    params = TrainParams(num_boost_round=num_boost_round, **tuned)
    return auc(train(x_train, y_train, params, seed=seed).predict_proba(x_val), y_val)


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
                    f"{manifest_path}: bank was trained with a different feature "
                    "schema; re-train it"
                )
            names = manifest["models"]
            if type(names) is not list or len(names) != MAX_TARGET_POSITIONS:
                raise SchemaError(
                    f"{manifest_path} must list {MAX_TARGET_POSITIONS} models, "
                    f"got {names!r}"
                )
            seed = _integer(manifest["seed"], f"{manifest_path} seed")
            fallbacks = tuple(
                _integer(j, f"{manifest_path} fallback position")
                for j in manifest["fallback_positions"]
            )
            if len(set(fallbacks)) != len(fallbacks) or not all(
                1 <= j <= MAX_TARGET_POSITIONS for j in fallbacks
            ):
                raise SchemaError(
                    f"{manifest_path} fallback positions {list(fallbacks)} are not "
                    f"distinct positions in [1, {MAX_TARGET_POSITIONS}]"
                )
            models = [GBDTModel.load(bank_dir / name) for name in names]
            for name, model in zip(names, models):
                if model.n_features != FEATURE_COUNT:
                    raise SchemaError(
                        f"model file {bank_dir / name} expects {model.n_features} "
                        f"features; the bank's feature schema has {FEATURE_COUNT}"
                    )
            return cls(
                models=models,
                params=TrainParams(**manifest["params"]),
                seed=seed,
                fallback_positions=fallbacks,
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
    models: list[GBDTModel | None] = []  # None until its fit comes back
    fallbacks: list[int] = []
    jobs: list[tuple[np.ndarray, int]] = []
    for j, rows in enumerate(partition_by_position(table.positions), start=1):
        model_seed = seed + j
        n = int(rows.size)
        n_pos = int(table.labels[rows].sum())
        if n < 2 or n_pos == 0 or n_pos == n:
            warnings.warn(
                f"position {j}: {n} rows with {n_pos} positives; "
                "using a constant fallback model",
                RuntimeWarning,
                stacklevel=2,
            )
            if n == 0:
                n_pos, n = global_pos, len(table)
            p = (n_pos + 1.0) / (n + 2.0)  # smoothed prevalence
            models.append(GBDTModel(
                params=params, base_score=math.log(p / (1.0 - p)),
                n_features=n_features, seed=model_seed,
            ))
            fallbacks.append(j)
        else:
            models.append(None)
            jobs.append((rows, model_seed))
    fitted = iter(_map_fits(_fit_position, jobs, table.x, table.labels, params))
    return ModelBank(
        models=[next(fitted) if m is None else m for m in models],
        params=params,
        seed=seed,
        fallback_positions=tuple(fallbacks),
    )


@dataclass(frozen=True)
class GridRow:
    params: dict  # one value per GRID key, in GRID order
    val_auc: float


GRID_REPORT_HEADER = ",".join([*GRID, "val_auc", "best"])


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
            cells = [repr(v) for v in row.params.values()]
            cells += [repr(float(row.val_auc)), "1" if i == self.best_index else "0"]
            stream.write(",".join(cells) + "\n")

    @classmethod
    def read_csv(cls, stream: IO[str]) -> "GridReport":
        """Parse `write_csv`'s layout; an error's ``line_num`` is its line."""
        lines = csv_rows(stream, "grid report file")
        if ",".join(next(lines)[1]) != GRID_REPORT_HEADER:
            raise SchemaError("not a grid report file", 1)
        rows, best = [], None
        for line_num, cells in lines:
            try:
                if cells[-1] not in ("0", "1"):
                    raise ValueError(f"best marker {cells[-1]!r} is not 0 or 1")
                if cells[-1] == "1" and best is not None:
                    raise ValueError("a second best marker")
                # each cell takes the type of its key's grid values
                point = {
                    k: parse_cell(type(v[0]), c, k, line_num)
                    for (k, v), c in zip(GRID.items(), cells)
                }
                TrainParams(**point)
                val_auc = parse_cell(float, cells[-2], "val_auc", line_num)
                rows.append(GridRow(point, val_auc))
            except (ValueError, ConfigError) as exc:
                raise RowParseError(str(exc), line_num)
            if cells[-1] == "1":
                best = len(rows) - 1
        if not rows:
            raise SchemaError("grid report has no rows")
        if best is None:
            raise SchemaError("grid report has no row marked best")
        return cls(rows=rows, best_index=best)


def sample_sessions(table: FeatureTable, fraction: float, seed: int) -> FeatureTable:
    """Restrict a table to a random fraction of its sessions, keeping row order."""
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"sample fraction must be in (0, 1], got {fraction}")
    unique = list(dict.fromkeys(table.session_ids))
    # at least 2, which grid_search needs; a table of 1 comes back whole
    n_sessions = max(2, int(round(fraction * len(unique))))
    if n_sessions >= len(unique):
        return table
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
    """Sweep every point of GRID on a pooled 80/20 session split.

    One model is trained per grid point on all positions pooled together and
    scored by held-out AUC. Rows come in GRID order, the first key slowest;
    ties keep the earlier row.
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

    points = [dict(zip(GRID, p)) for p in itertools.product(*GRID.values())]
    aucs = _map_fits(
        _fit_grid_point, points, x_train, y_train, x_val, y_val, num_boost_round, seed
    )
    rows = [GridRow(tuned, val_auc) for tuned, val_auc in zip(points, aucs)]
    # max keeps the first of equal maxima
    return GridReport(rows=rows, best_index=max(range(len(aucs)), key=aucs.__getitem__))
