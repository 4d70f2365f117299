"""Tests for the per-position model bank, sampling, and the tuning grid."""

import io
import itertools
import json
import warnings

import numpy as np
import pytest

from skipcast.errors import (
    ConfigError,
    DegenerateSampleError,
    IntegrityError,
    RowParseError,
    SchemaError,
)
from skipcast.features import FeatureTable, feature_schema_hash
from skipcast.gbdt import TrainParams
from skipcast.modelbank import (
    COLSAMPLE_GRID,
    ETA_GRID,
    GRID_REPORT_HEADER,
    MAX_DEPTH_GRID,
    SUBSAMPLE_GRID,
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
    return train_bank(make_table(), SMALL_PARAMS, seed=5)


class TestPredict:
    def test_matrix_shape_and_range(self, bank):
        x = np.random.default_rng(1).random((17, 4))
        matrix = bank.predict_matrix(x)
        assert matrix.shape == (17, 10)
        assert np.all(matrix > 0.0) and np.all(matrix < 1.0)

    def test_matrix_columns_are_per_model(self, bank):
        x = np.random.default_rng(2).random((6, 4))
        matrix = bank.predict_matrix(x)
        for j, model in enumerate(bank.models):
            np.testing.assert_array_equal(matrix[:, j], model.predict_proba(x))


class TestSaveLoad:
    def test_round_trip(self, bank, tmp_path):
        bank.save(tmp_path / "bank")
        loaded = ModelBank.load(tmp_path / "bank")
        assert loaded.seed == bank.seed
        assert loaded.fallback_positions == bank.fallback_positions
        assert loaded.params == bank.params
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
        with pytest.raises(SchemaError, match="feature schema"):
            ModelBank.load(tmp_path / "bank")

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
        expected = list(
            itertools.product(ETA_GRID, MAX_DEPTH_GRID, COLSAMPLE_GRID, SUBSAMPLE_GRID)
        )
        assert len(report.rows) == 54
        got = [(r.eta, r.max_depth, r.colsample, r.subsample) for r in report.rows]
        assert got == expected

    def test_best_row_is_first_maximum(self):
        report = grid_search(grid_table(), seed=1, num_boost_round=1)
        aucs = [r.val_auc for r in report.rows]
        assert report.rows[report.best_index].val_auc == max(aucs)
        assert report.best_index == aucs.index(max(aucs))

    def test_best_params_reflect_best_row(self):
        report = grid_search(grid_table(), seed=1, num_boost_round=1)
        row = report.rows[report.best_index]
        assert report.best_params == {
            "eta": row.eta,
            "max_depth": row.max_depth,
            "colsample": row.colsample,
            "subsample": row.subsample,
        }

    def test_single_session_raises(self):
        table = grid_table(n_sessions=1)
        with pytest.raises(DegenerateSampleError, match="2 sessions"):
            grid_search(table, seed=1, num_boost_round=1)

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

    @pytest.mark.parametrize(
        "bad_line",
        [
            "0.1,6,1.0,1",
            "0.1,6,1.0,1.0,0.6,0,7",
            "abc,6,1.0,1.0,0.6,0",
            "0.1,6,1.0,1.0,0.6,x",
            "5.0,6,1.0,1.0,0.6,0",
            "0.1,6,1.0,0.0,0.6,0",
        ],
    )
    def test_bad_row_reports_line(self, bad_line):
        text = f"{GRID_REPORT_HEADER}\n0.1,6,1.0,1.0,0.6,1\n{bad_line}\n"
        with pytest.raises(RowParseError, match="line 3") as exc_info:
            GridReport.read_csv(io.StringIO(text))
        assert exc_info.value.line_num == 3

    def test_rejects_report_without_rows(self):
        with pytest.raises(SchemaError, match="no rows"):
            GridReport.read_csv(io.StringIO(GRID_REPORT_HEADER + "\n"))

    def test_exactly_one_best_marker(self):
        report = GridReport(
            rows=[
                GridRow(eta=0.1, max_depth=6, colsample=1.0, subsample=1.0, val_auc=0.6),
                GridRow(eta=0.2, max_depth=6, colsample=1.0, subsample=1.0, val_auc=0.7),
            ],
            best_index=1,
        )
        buf = io.StringIO()
        report.write_csv(buf)
        lines = buf.getvalue().splitlines()[1:]
        assert [line.rsplit(",", 1)[1] for line in lines] == ["0", "1"]
