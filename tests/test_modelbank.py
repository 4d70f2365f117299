"""Tests for the per-position model bank, sampling, and the tuning grid."""

import io
import itertools
import json
import math
import multiprocessing
import os
import sys
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest

from skipcast.errors import (
    ConfigError,
    DegenerateLabelsError,
    DegenerateSampleError,
    IntegrityError,
    RowParseError,
    SchemaError,
)
from skipcast import modelbank
from skipcast.features import FEATURE_COUNT, FeatureTable, feature_schema_hash
from skipcast.gbdt import GBDTModel, TrainParams, auc, train
from skipcast.modelbank import (
    GRID,
    GRID_REPORT_HEADER,
    GridReport,
    GridRow,
    ModelBank,
    grid_search,
    partition_by_position,
    sample_sessions,
    train_bank,
)


def make_table(n_per_position=40, n_features=4, seed=0):
    """A learnable table covering all ten positions with both classes each."""
    rng = np.random.default_rng(seed)
    n = n_per_position * 10
    x = rng.random((n, n_features))
    labels = (x[:, 0] > 0.5).astype(np.int64)
    positions = np.tile(np.arange(1, 11, dtype=np.int64), n_per_position)
    # one synthetic session id per consecutive pair of rows
    sids = tuple(f"s{i // 2:04d}" for i in range(n))
    for j in range(1, 11):
        y = labels[positions == j]
        assert 0 < y.sum() < y.size  # fixture sanity: both classes everywhere
    return FeatureTable(x=x, labels=labels, positions=positions, session_ids=sids)


SMALL_PARAMS = TrainParams(num_boost_round=3, eta=0.3, max_depth=3)


class TestPartition:
    def test_groups_rows_by_position(self):
        parts = partition_by_position(np.array([1, 3, 1, 10, 2]))
        assert len(parts) == 10
        assert parts[0].tolist() == [0, 2]
        assert parts[1].tolist() == [4]
        assert parts[2].tolist() == [1]
        assert parts[9].tolist() == [3]
        assert all(parts[j].size == 0 for j in (3, 4, 5, 6, 7, 8))

    def test_empty_input(self):
        parts = partition_by_position(np.array([], dtype=np.int64))
        assert len(parts) == 10
        assert all(p.size == 0 for p in parts)

    @pytest.mark.parametrize("bad", [0, 11, -3])
    def test_out_of_range_raises(self, bad):
        with pytest.raises(IntegrityError, match="target position"):
            partition_by_position(np.array([1, bad, 2]))


class TestTrainBank:
    def test_trains_ten_models_without_fallbacks(self):
        table = make_table()
        bank = train_bank(table, SMALL_PARAMS, seed=5)
        assert len(bank.models) == 10
        assert bank.fallback_positions == ()
        assert all(m.trees for m in bank.models)

    def test_single_class_position_falls_back(self):
        table = make_table()
        table.labels[table.positions == 7] = 1
        with pytest.warns(RuntimeWarning, match="position 7"):
            bank = train_bank(table, SMALL_PARAMS, seed=5)
        assert bank.fallback_positions == (7,)
        model = bank.models[6]
        assert model.trees == []
        n = int((table.positions == 7).sum())
        expected = (n + 1.0) / (n + 2.0)  # smoothed all-positive prevalence
        got = model.predict_proba(np.zeros((1, 4)))[0]
        assert got == pytest.approx(expected, rel=1e-12)

    def test_absent_position_uses_global_prevalence(self):
        table = make_table()
        keep = table.positions != 10
        trimmed = FeatureTable(
            x=table.x[keep],
            labels=table.labels[keep],
            positions=table.positions[keep],
            session_ids=tuple(
                s for s, k in zip(table.session_ids, keep) if k
            ),
        )
        with pytest.warns(RuntimeWarning, match="position 10"):
            bank = train_bank(trimmed, SMALL_PARAMS, seed=5)
        n = len(trimmed)
        n_pos = int(trimmed.labels.sum())
        expected = (n_pos + 1.0) / (n + 2.0)
        got = bank.models[9].predict_proba(np.zeros((1, 4)))[0]
        assert got == pytest.approx(expected, rel=1e-12)

    def test_every_position_falling_back_starts_no_pool(self):
        table = make_table()
        table.labels[:] = 1
        with pytest.warns(RuntimeWarning):
            bank = train_bank(table, SMALL_PARAMS, seed=5)
        assert bank.fallback_positions == tuple(range(1, 11))

    def test_two_starved_positions_warn_once_each(self):
        table = make_table()
        table.labels[table.positions == 2] = 0
        table.labels[table.positions == 9] = 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bank = train_bank(table, SMALL_PARAMS, seed=5)
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 2
        assert bank.fallback_positions == (2, 9)

    def test_empty_table_raises(self):
        empty = FeatureTable(
            x=np.empty((0, 4)),
            labels=np.empty(0, dtype=np.int64),
            positions=np.empty(0, dtype=np.int64),
            session_ids=(),
        )
        with pytest.raises(DegenerateSampleError):
            train_bank(empty, SMALL_PARAMS, seed=5)

    def test_position_models_get_offset_seeds(self):
        bank = train_bank(make_table(), SMALL_PARAMS, seed=100)
        assert [m.seed for m in bank.models] == [100 + j for j in range(1, 11)]

    def test_same_seed_reproduces_bank(self):
        params = TrainParams(
            num_boost_round=4, eta=0.3, max_depth=3, subsample=0.7, colsample=0.8
        )
        a = train_bank(make_table(), params, seed=9)
        b = train_bank(make_table(), params, seed=9)
        for ma, mb in zip(a.models, b.models):
            assert ma.to_dict() == mb.to_dict()

    def test_different_seed_changes_some_tree(self):
        params = TrainParams(
            num_boost_round=4, eta=0.3, max_depth=3, subsample=0.7, colsample=0.8
        )
        a = train_bank(make_table(), params, seed=9)
        b = train_bank(make_table(), params, seed=10)
        assert any(ma.to_dict() != mb.to_dict() for ma, mb in zip(a.models, b.models))


@pytest.fixture(scope="module")
def bank():
    # as wide as the feature schema, so ModelBank.load accepts the saved bank
    return train_bank(make_table(n_features=FEATURE_COUNT), SMALL_PARAMS, seed=5)


class TestPredict:
    def test_matrix_shape_and_range(self, bank):
        x = np.random.default_rng(1).random((17, FEATURE_COUNT))
        matrix = bank.predict_matrix(x)
        assert matrix.shape == (17, 10)
        assert np.all(matrix > 0.0) and np.all(matrix < 1.0)

    def test_matrix_columns_are_per_model(self, bank):
        x = np.random.default_rng(2).random((6, FEATURE_COUNT))
        matrix = bank.predict_matrix(x)
        for j, model in enumerate(bank.models):
            np.testing.assert_array_equal(matrix[:, j], model.predict_proba(x))


class TestSaveLoad:
    def test_round_trip(self, bank, tmp_path):
        bank.save(tmp_path / "bank")
        loaded = ModelBank.load(tmp_path / "bank")
        assert loaded.fallback_positions == bank.fallback_positions
        for ma, mb in zip(bank.models, loaded.models):
            assert ma.to_dict() == mb.to_dict()

    def test_manifest_contents(self, bank, tmp_path):
        bank.save(tmp_path / "bank")
        manifest = json.loads((tmp_path / "bank" / "manifest.json").read_text())
        assert manifest["format"] == "skipcast-bank"
        assert manifest["feature_schema_hash"] == feature_schema_hash()
        assert manifest["models"] == [f"model_{j:02d}.json" for j in range(1, 11)]

    def test_schema_hash_mismatch_rejected(self, bank, tmp_path):
        bank.save(tmp_path / "bank")
        path = tmp_path / "bank" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["feature_schema_hash"] = "0" * 64
        path.write_text(json.dumps(manifest))
        with pytest.raises(SchemaError) as exc_info:
            ModelBank.load(tmp_path / "bank")
        assert str(exc_info.value) == (
            f"{path}: bank was trained with a different feature schema; re-train it"
        )

    def test_manifest_missing_key_rejected(self, bank, tmp_path):
        bank.save(tmp_path / "bank")
        path = tmp_path / "bank" / "manifest.json"
        manifest = json.loads(path.read_text())
        del manifest["models"]
        path.write_text(json.dumps(manifest))
        with pytest.raises(SchemaError, match="manifest.json"):
            ModelBank.load(tmp_path / "bank")

    def test_manifest_invalid_params_rejected(self, bank, tmp_path):
        bank.save(tmp_path / "bank")
        path = tmp_path / "bank" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["params"]["eta"] = float("nan")
        path.write_text(json.dumps(manifest))
        with pytest.raises(SchemaError, match="manifest.json"):
            ModelBank.load(tmp_path / "bank")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("models", [f"model_{j:02d}.json" for j in range(1, 4)]),
            ("models", "model_01.json"),
            ("seed", 6.7),
            ("seed", "5"),
            ("seed", True),
            ("fallback_positions", [2.5]),
            ("fallback_positions", [3, 3]),
            ("fallback_positions", [0]),
            ("fallback_positions", [11]),
            ("fallback_positions", 3),
            ("fallback_positions", [3]),
            ("seed", 6),
            ("version", 2),
            ("params", {**asdict(SMALL_PARAMS), "eta": 0.2}),
        ],
    )
    def test_manifest_bad_field_rejected(self, bank, tmp_path, key, value):
        bank.save(tmp_path / "bank")
        path = tmp_path / "bank" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest[key] = value
        path.write_text(json.dumps(manifest))
        with pytest.raises(SchemaError, match="manifest.json"):
            ModelBank.load(tmp_path / "bank")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(SchemaError, match="manifest"):
            ModelBank.load(tmp_path)

    def test_foreign_manifest_rejected(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"format": "something-else"}')
        with pytest.raises(SchemaError, match="not a model bank"):
            ModelBank.load(tmp_path)

    def test_save_is_byte_stable(self, bank, tmp_path):
        bank.save(tmp_path / "a")
        bank.save(tmp_path / "b")
        for name in ["manifest.json"] + [f"model_{j:02d}.json" for j in range(1, 11)]:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()


class TestSampleSessions:
    def five_session_table(self):
        x = np.arange(20, dtype=np.float64).reshape(10, 2)
        return FeatureTable(
            x=x,
            labels=np.tile([0, 1], 5).astype(np.int64),
            positions=np.tile([1, 2], 5).astype(np.int64),
            session_ids=("a", "a", "b", "b", "c", "c", "d", "d", "e", "e"),
        )

    def test_full_fraction_returns_table_unchanged(self):
        table = self.five_session_table()
        assert sample_sessions(table, 1.0, seed=3) is table

    @pytest.mark.parametrize("bad", [0.0, -0.2, 1.5])
    def test_fraction_out_of_range(self, bad):
        with pytest.raises(ConfigError, match="fraction"):
            sample_sessions(self.five_session_table(), bad, seed=3)

    def test_keeps_whole_sessions_in_order(self):
        table = self.five_session_table()
        sampled = sample_sessions(table, 0.4, seed=3)
        kept = list(dict.fromkeys(sampled.session_ids))
        assert len(kept) == 2
        for sid in kept:
            rows = [i for i, s in enumerate(sampled.session_ids) if s == sid]
            assert len(rows) == 2  # both rows of the session survived
        # row order within the sample follows the original table
        original_order = [s for s in table.session_ids if s in set(kept)]
        assert list(sampled.session_ids) == original_order

    def test_never_fewer_than_two_sessions(self):
        sampled = sample_sessions(self.five_session_table(), 0.2, seed=3)
        assert len(set(sampled.session_ids)) == 2

    @pytest.mark.parametrize("session_ids", [("a", "a"), ("a", "b")])
    def test_one_or_two_sessions_come_back_whole(self, session_ids):
        # fewer than 2 sessions cannot be sampled; grid_search then says so
        table = FeatureTable(
            x=np.zeros((2, 2)), labels=np.array([0, 1]), positions=np.array([1, 2]),
            session_ids=session_ids,
        )
        assert sample_sessions(table, 0.4, seed=3) is table

    def test_same_seed_same_sample(self):
        table = self.five_session_table()
        a = sample_sessions(table, 0.6, seed=3)
        b = sample_sessions(table, 0.6, seed=3)
        assert a.session_ids == b.session_ids
        np.testing.assert_array_equal(a.x, b.x)


def grid_table(n_sessions=12, rows_per_session=4, seed=2):
    rng = np.random.default_rng(seed)
    n = n_sessions * rows_per_session
    x = rng.random((n, 3))
    labels = (x[:, 1] > 0.5).astype(np.int64)
    positions = np.tile(np.arange(1, rows_per_session + 1), n_sessions).astype(
        np.int64
    )
    sids = tuple(
        f"g{i:03d}" for i in range(n_sessions) for _ in range(rows_per_session)
    )
    return FeatureTable(x=x, labels=labels, positions=positions, session_ids=sids)


class TestGridSearch:
    def test_covers_grid_in_order(self):
        report = grid_search(grid_table(), seed=1, num_boost_round=1)
        assert list(GRID) == ["eta", "max_depth", "colsample", "subsample"]
        assert GRID_REPORT_HEADER == "eta,max_depth,colsample,subsample,val_auc,best"
        expected = list(itertools.product(*GRID.values()))
        assert len(report.rows) == 54
        assert all(list(r.params) == list(GRID) for r in report.rows)
        assert [tuple(r.params.values()) for r in report.rows] == expected

    def test_best_row_is_first_maximum(self):
        report = grid_search(grid_table(), seed=1, num_boost_round=1)
        aucs = [r.val_auc for r in report.rows]
        assert report.rows[report.best_index].val_auc == max(aucs)
        assert report.best_index == aucs.index(max(aucs))

    def test_best_params_reflect_best_row(self):
        report = grid_search(grid_table(), seed=1, num_boost_round=1)
        assert report.best_params == report.rows[report.best_index].params
        assert all(report.best_params[name] in GRID[name] for name in GRID)
        # train applies the best row with dataclasses.replace, key for key
        tuned = replace(TrainParams(), **report.best_params)
        assert all(getattr(tuned, name) == report.best_params[name] for name in GRID)

    def test_single_session_raises(self):
        table = grid_table(n_sessions=1)
        with pytest.raises(DegenerateSampleError, match="2 sessions"):
            grid_search(table, seed=1, num_boost_round=1)

    def test_two_sessions_hold_one_out(self):
        # 80% of two sessions rounds to both; one must stay out for validation
        report = grid_search(grid_table(n_sessions=2, rows_per_session=10), seed=1,
                             num_boost_round=1)
        assert len(report.rows) == 54
        assert all(0.0 <= r.val_auc <= 1.0 for r in report.rows)

    def test_deterministic_for_seed(self):
        a, b = io.StringIO(), io.StringIO()
        grid_search(grid_table(), seed=4, num_boost_round=1).write_csv(a)
        grid_search(grid_table(), seed=4, num_boost_round=1).write_csv(b)
        assert a.getvalue() == b.getvalue()


class TestGridReport:
    def test_csv_round_trip(self):
        report = grid_search(grid_table(), seed=1, num_boost_round=1)
        buf = io.StringIO()
        report.write_csv(buf)
        buf.seek(0)
        loaded = GridReport.read_csv(buf)
        assert loaded.rows == report.rows
        assert loaded.best_index == report.best_index

    def test_rejects_wrong_header(self):
        with pytest.raises(SchemaError, match="grid report"):
            GridReport.read_csv(io.StringIO("nope,nope\n"))

    BAD_ROWS = [
        ("0.1,6,1.0,1", "expected 6 cells, got 4"),
        ("0.1,6,1.0,1.0,0.6,0,7", "expected 6 cells, got 7"),
        ("abc,6,1.0,1.0,0.6,0", "cannot parse eta='abc' as a number"),
        ("0.1,6,1.0,1.0,0.6,x", "best marker 'x' is not 0 or 1"),
        ("5.0,6,1.0,1.0,0.6,0", "eta must be in (0, 1], got 5.0"),
        ("0.1,6,1.0,0.0,0.6,0", "subsample must be in (0, 1], got 0.0"),
        ("0.2,6,1.0,1.0,0.7,1", "a second best marker"),
        ("0.1,6,1.0,1.0,nan,0", "val_auc nan is not in [0, 1]"),
        ("0.1,6,1.0,1.0,inf,0", "val_auc inf is not in [0, 1]"),
        ("0.1,6,1.0,1.0,7.5,0", "val_auc 7.5 is not in [0, 1]"),
        ("0.1,6,1.0,1.0,-1,0", "val_auc -1.0 is not in [0, 1]"),
    ]

    @pytest.mark.parametrize(
        "bad_line, problem", BAD_ROWS, ids=[line for line, _ in BAD_ROWS]
    )
    def test_bad_row_reports_line(self, bad_line, problem):
        text = f"{GRID_REPORT_HEADER}\n0.1,6,1.0,1.0,0.6,1\n{bad_line}\n"
        with pytest.raises(RowParseError) as exc_info:
            GridReport.read_csv(io.StringIO(text))
        assert exc_info.value.line_num == 3
        assert str(exc_info.value) == problem

    def test_rejects_report_without_rows(self):
        with pytest.raises(SchemaError, match="no rows"):
            GridReport.read_csv(io.StringIO(GRID_REPORT_HEADER + "\n"))

    def test_rejects_report_without_best_marker(self):
        text = f"{GRID_REPORT_HEADER}\n0.1,6,1.0,1.0,0.6,0\n0.2,6,1.0,1.0,0.7,0\n"
        with pytest.raises(SchemaError, match="grid report has no row marked best"):
            GridReport.read_csv(io.StringIO(text))

    def test_exactly_one_best_marker(self):
        report = GridReport(
            rows=[
                GridRow(dict(eta=0.1, max_depth=6, colsample=1.0, subsample=1.0), 0.6),
                GridRow(dict(eta=0.2, max_depth=6, colsample=1.0, subsample=1.0), 0.7),
            ],
            best_index=1,
        )
        buf = io.StringIO()
        report.write_csv(buf)
        assert buf.getvalue().splitlines()[1:] == [
            "0.1,6,1.0,1.0,0.6,0",
            "0.2,6,1.0,1.0,0.7,1",
        ]


@pytest.fixture(params=[1, 3], ids=["1cpu", "3cpus"])
def cpus(request, monkeypatch):
    """The CPU set this process may run on, patched to 1 or 3 CPUs."""
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: set(range(request.param)), raising=False
    )
    return request.param


def serial_grid_csv(table, seed, num_boost_round):
    """grid_report.csv text from one train() and auc() per GRID point in turn."""
    unique = list(dict.fromkeys(table.session_ids))
    perm = np.random.default_rng([seed, 1]).permutation(len(unique))
    n_train = min(max(1, round(0.8 * len(unique))), len(unique) - 1)
    train_sids = {unique[i] for i in perm[:n_train]}
    in_train = np.array([sid in train_sids for sid in table.session_ids])
    rows = []
    for point in itertools.product(*GRID.values()):
        tuned = dict(zip(GRID, point))
        params = TrainParams(num_boost_round=num_boost_round, **tuned)
        model = train(table.x[in_train], table.labels[in_train], params, seed=seed)
        scores = model.predict_proba(table.x[~in_train])
        rows.append(GridRow(tuned, auc(scores, table.labels[~in_train])))
    aucs = [row.val_auc for row in rows]
    buf = io.StringIO()
    GridReport(rows=rows, best_index=aucs.index(max(aucs))).write_csv(buf)
    return buf.getvalue()


def serial_bank(table, params, seed, fallbacks):
    """The bank from one train() per position in turn; `fallbacks` are constant.

    A fallback position without rows takes the whole table's prevalence.
    """
    models = []
    for j, rows in enumerate(partition_by_position(table.positions), start=1):
        y = table.labels[rows]
        if j in fallbacks:
            if y.size == 0:
                y = table.labels
            p = (int(y.sum()) + 1.0) / (y.size + 2.0)
            models.append(GBDTModel(
                params=params, base_score=math.log(p / (1.0 - p)),
                n_features=table.x.shape[1], seed=seed + j, trees=[],
            ))
        else:
            models.append(train(table.x[rows], y, params, seed=seed + j))
    return ModelBank(models)


def offset_or_fail(job):
    """A `_map_fits` job: `job` plus the shared offset, or an error for a
    job in the shared failing set."""
    offset, failing = modelbank._shared
    if job in failing:
        raise ValueError(f"job {job}")
    return offset + job


class TestWorkerPoolOracle:
    """Output is byte-identical to serial fits on any number of CPUs."""

    def test_grid_report_matches_serial_fits(self, cpus):
        table = grid_table(n_sessions=30)
        buf = io.StringIO()
        grid_search(table, seed=3, num_boost_round=2).write_csv(buf)
        assert buf.getvalue() == serial_grid_csv(table, seed=3, num_boost_round=2)

    def test_bank_files_match_serial_fits(self, cpus, tmp_path):
        table = make_table()
        table.labels[table.positions == 7] = 1  # single-class fallback
        table.positions[table.positions == 10] = 9  # empty-position fallback
        params = TrainParams(
            num_boost_round=4, eta=0.3, max_depth=3, subsample=0.7, colsample=0.8
        )
        with pytest.warns(RuntimeWarning) as record:
            train_bank(table, params, seed=11).save(tmp_path / "bank")
        assert [str(w.message).split(":")[0] for w in record] == [
            "position 7", "position 10"
        ]
        serial_bank(table, params, seed=11, fallbacks=(7, 10)).save(
            tmp_path / "serial"
        )
        names = sorted(p.name for p in (tmp_path / "serial").iterdir())
        assert len(names) == 11
        assert sorted(p.name for p in (tmp_path / "bank").iterdir()) == names
        for name in names:
            assert (tmp_path / "bank" / name).read_bytes() == (
                tmp_path / "serial" / name
            ).read_bytes(), name

    def test_pool_starts_workers_by_fork_on_linux(self, cpus, monkeypatch):
        contexts = []
        pool = modelbank.ProcessPoolExecutor

        def recording_pool(*args, **kwargs):
            contexts.append(kwargs.get("mp_context"))
            return pool(*args, **kwargs)

        monkeypatch.setattr(modelbank, "ProcessPoolExecutor", recording_pool)
        train_bank(make_table(n_per_position=10), SMALL_PARAMS, seed=2)
        want = (
            "fork" if sys.platform == "linux"
            else multiprocessing.get_context().get_start_method()
        )
        assert [c.get_start_method() for c in contexts] == [want]

    def test_single_class_table_raises_typed_error(self, cpus):
        table = grid_table()
        table.labels[:] = 0
        with pytest.raises(
            DegenerateLabelsError,
            match=r"^training labels contain a single class; cannot fit a classifier$",
        ):
            grid_search(table, seed=1, num_boost_round=1)

    @pytest.mark.parametrize("n_jobs", [10, 54], ids=["bank", "grid"])
    def test_jobs_go_to_workers_in_chunks(self, cpus, monkeypatch, n_jobs):
        chunksizes = []

        class RecordingPool(modelbank.ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                chunksizes.append(kwargs.get("chunksize", 1))
                return super().map(fn, *iterables, **kwargs)

        monkeypatch.setattr(modelbank, "ProcessPoolExecutor", RecordingPool)
        jobs = list(range(n_jobs))
        assert modelbank._map_fits(offset_or_fail, jobs, 100, set()) == [100 + j for j in jobs]
        # about a quarter of each worker's share, and at least one job
        want = {(1, 10): 2, (1, 54): 13, (3, 10): 1, (3, 54): 4}[cpus, n_jobs]
        assert chunksizes == [want]

    @pytest.mark.parametrize("failing", [{21, 22, 40}, {40, 21}, {53}, {0, 1, 2}])
    def test_first_failing_job_raises_across_chunks(self, cpus, failing):
        with pytest.raises(ValueError, match=f"^job {min(failing)}$"):
            modelbank._map_fits(offset_or_fail, list(range(54)), 100, failing)
