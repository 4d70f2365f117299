"""End-to-end tests for the CLI: stages, exit codes, and artifact handling.

Everything runs in-process through main() against throwaway work
directories, with a corpus small enough to keep the whole file fast.
"""

import csv
import io
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest

import skipcast
from skipcast import cli, datamodel
from skipcast.cli import main
from skipcast.config import (
    RunConfig,
    build_config,
    load_config,
    parse_kv_text,
    parse_solutions,
)
from skipcast.datamodel import (
    parse_track_features,
    split_session,
    write_session_csv,
    write_track_csv,
)
from skipcast.ensemble import SOLUTION_IDS, CorpusPrediction, EnsembleWeights, write_submission
from skipcast.errors import ConfigError, IntegrityError
from skipcast.features import FeatureTable, assemble_corpus
from skipcast.gbdt import TrainParams
from skipcast.modelbank import ModelBank, grid_search, train_bank
from skipcast.synthetic import SynthConfig, generate_synthetic_dataset
from test_ensemble import per_session_combine

SMALL_CONF = """\
# small corpus so the whole pipeline stays fast
n_tracks = 30
n_sessions = 25
num_boost_round = 3
max_depth = 3
tune_rounds = 1
solutions = 1,9
"""


def write_conf(tmp_path, body=SMALL_CONF):
    path = tmp_path / "run.conf"
    path.write_text(body, encoding="utf-8")
    return str(path)


def run_all(tmp_path, workdir_name="work", seed=None):
    conf = write_conf(tmp_path)
    workdir = tmp_path / workdir_name
    args = ["run-all", "--config", conf, "--workdir", str(workdir)]
    if seed is not None:
        args += ["--seed", str(seed)]
    assert main(args) == 0
    return workdir


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("pipeline")
    return run_all(tmp_path)


ARTIFACTS = [
    "tracks.csv",
    "sessions.csv",
    "features.csv",
    "grid_report.csv",
    "bank/manifest.json",
    "submission_solution_01.txt",
    "submission_solution_09.txt",
    "scores_solution_01.csv",
    "scores_solution_09.csv",
    "report.csv",
    "report.txt",
]


class TestRunAll:
    def test_writes_every_artifact(self, pipeline):
        for name in ARTIFACTS:
            assert (pipeline / name).exists(), name
        for j in range(1, 11):
            assert (pipeline / "bank" / f"model_{j:02d}.json").exists()

    def test_grid_report_covers_full_grid(self, pipeline):
        lines = (pipeline / "grid_report.csv").read_text().splitlines()
        assert lines[0] == "eta,max_depth,colsample,subsample,val_auc,best"
        assert len(lines) == 55
        assert sum(1 for line in lines[1:] if line.endswith(",1")) == 1

    def test_report_rows_match_requested_solutions(self, pipeline):
        lines = (pipeline / "report.csv").read_text().splitlines()
        assert lines[0] == "solution,maa,first_prediction_accuracy"
        ids = sorted(int(line.split(",")[0]) for line in lines[1:])
        assert ids == [1, 9]
        maas = [float(line.split(",")[1]) for line in lines[1:]]
        assert maas == sorted(maas)  # ascending

    def test_submissions_cover_every_session(self, pipeline):
        with open(pipeline / "sessions.csv", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            session_ids = {row["session_id"] for row in reader}
        lines = (pipeline / "submission_solution_01.txt").read_text().splitlines()
        submitted = {line.split(" ")[0] for line in lines}
        assert submitted == session_ids
        assert all(set(line.split(" ")[1]) <= {"0", "1"} for line in lines)

    def test_decision_count_matches_target_half(self, pipeline):
        per_session = {}
        with open(pipeline / "sessions.csv", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                per_session[row["session_id"]] = int(row["session_length"])
        for line in (pipeline / "submission_solution_01.txt").read_text().splitlines():
            sid, bits = line.split(" ")
            assert len(bits) == per_session[sid] // 2

    def test_same_seed_is_byte_identical(self, pipeline, tmp_path):
        other = run_all(tmp_path, "replay")
        for name in ARTIFACTS + [f"bank/model_{j:02d}.json" for j in range(1, 11)]:
            assert (pipeline / name).read_bytes() == (other / name).read_bytes(), name

    def test_different_seed_changes_the_corpus(self, pipeline, tmp_path):
        other = run_all(tmp_path, "other", seed=99)
        assert (pipeline / "tracks.csv").read_bytes() != (
            other / "tracks.csv"
        ).read_bytes()


ORACLE_CONF = """\
n_tracks = 40
n_sessions = 60
num_boost_round = 3
max_depth = 3
solutions = all
linear_offset = 12.5
alpha_scale = 0.6
fixed_prior = 0.3
exp_base = 3.0
"""


class TestPredictOracle:
    """Predict-stage output against rows built and scored one session at a time.

    The scores come from the test's own copy of the per-session strategy
    code, so the program's corpus scoring is checked against an oracle.
    """

    def test_scores_match_per_session_scoring(self, tmp_path):
        conf = write_conf(tmp_path, ORACLE_CONF)
        workdir = tmp_path / "w"
        for stage in ("synth", "extract", "train", "predict"):
            assert main([stage, "--config", conf, "--workdir", str(workdir)]) == 0
        cfg = load_config(conf, {})
        with open(workdir / "tracks.csv", encoding="utf-8") as fh:
            track_map = parse_track_features(fh)
        _, sessions = generate_synthetic_dataset(cfg.synth, cfg.seed)  # synth's draw
        bank = ModelBank.load(workdir / "bank")
        priors = []
        matrices = []
        for s in sessions:
            matrices.append(bank.predict_matrix(assemble_corpus([s], track_map).x))
            priors.append(float(split_session(s).history[-1].skip_2))
        assert set(priors) == {0.0, 1.0}  # both last actions are exercised
        for solution in SOLUTION_IDS:
            score_lines = ["session_id,target_position,score,decision"]
            submission_lines = []
            for s, m, s0 in zip(sessions, matrices, priors):
                scores = per_session_combine(solution, m, s0, cfg.weights)
                score_lines += [
                    f"{s.session_id},{i},{repr(float(score))},{int(score >= 0.5)}"
                    for i, score in enumerate(scores, start=1)
                ]
                bits = "".join("1" if score >= 0.5 else "0" for score in scores)
                submission_lines.append(f"{s.session_id} {bits}")
            name = f"{solution:02d}"
            got = (workdir / f"scores_solution_{name}.csv").read_text().splitlines()
            assert got == score_lines, solution
            got = (workdir / f"submission_solution_{name}.txt").read_text().splitlines()
            assert got == submission_lines, solution


class TestFeaturePathOracle:
    """tune and train assemble their table from the corpus, and write what
    the library writes from the table that extract's features.csv holds."""

    def test_bank_and_grid_report_match_the_feature_file(self, tmp_path):
        conf = write_conf(tmp_path)
        cfg = load_config(conf, {})
        tracks, sessions = generate_synthetic_dataset(cfg.synth, cfg.seed)
        # ids that CSV must quote: each holds a comma and a quote
        sessions = [replace(s, session_id=f'{s.session_id},"x') for s in sessions]
        corpus, oracle = tmp_path / "corpus", tmp_path / "oracle"
        corpus.mkdir()
        with open(corpus / "tracks.csv", "w", encoding="utf-8") as fh:
            write_track_csv(tracks, fh)
        with open(corpus / "sessions.csv", "w", encoding="utf-8") as fh:
            write_session_csv(sessions, fh)
        assert ',""x",' in (corpus / "sessions.csv").read_text()
        shutil.copytree(corpus, oracle)

        # train first, so that it applies no grid report
        for stage in ("train", "tune"):
            assert main([stage, "--config", conf, "--workdir", str(corpus)]) == 0
        assert not (corpus / "features.csv").exists()

        assert main(["extract", "--config", conf, "--workdir", str(oracle)]) == 0
        with open(oracle / "features.csv", encoding="utf-8") as fh:
            table = FeatureTable.read_csv(fh)
        assert set(table.session_ids) == {s.session_id for s in sessions}
        train_bank(table, cfg.params, cfg.seed).save(oracle / "bank")
        with open(oracle / "grid_report.csv", "w", encoding="utf-8") as fh:
            grid_search(table, cfg.seed, num_boost_round=cfg.tune_rounds).write_csv(fh)

        names = sorted(p.relative_to(oracle) for p in oracle.glob("bank/*.json"))
        assert len(names) == 11
        assert sorted(p.relative_to(corpus) for p in corpus.glob("bank/*.json")) == names
        for name in [*names, Path("grid_report.csv")]:
            assert (corpus / name).read_bytes() == (oracle / name).read_bytes(), name


class TestStages:
    def test_synth_reports_corpus_summary(self, tmp_path, capsys):
        conf = write_conf(tmp_path)
        workdir = tmp_path / "w"
        assert main(["synth", "--config", conf, "--workdir", str(workdir)]) == 0
        out = capsys.readouterr().out
        assert re.search(r"synth: sessions=25 rows=\d+ skip2_prevalence=0\.\d+", out)
        assert (workdir / "tracks.csv").exists()
        assert (workdir / "sessions.csv").exists()

    def test_extract_counts_match_the_feature_file(self, tmp_path, capsys):
        conf = write_conf(tmp_path)
        workdir = tmp_path / "w"
        main(["synth", "--config", conf, "--workdir", str(workdir)])
        capsys.readouterr()
        assert main(["extract", "--config", conf, "--workdir", str(workdir)]) == 0
        match = re.search(
            r"extract: (\d+) examples from (\d+) sessions", capsys.readouterr().out
        )
        assert match and int(match.group(2)) == 25
        n_rows = len((workdir / "features.csv").read_text().splitlines()) - 1
        assert int(match.group(1)) == n_rows
        lengths = {}
        with open(workdir / "sessions.csv", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                lengths[row["session_id"]] = int(row["session_length"])
        assert n_rows == sum(n // 2 for n in lengths.values())

    def test_evaluate_prints_the_ranking_table(self, pipeline, capsys):
        conf_dir = pipeline.parent
        assert (
            main(
                [
                    "evaluate",
                    "--config",
                    str(conf_dir / "run.conf"),
                    "--workdir",
                    str(pipeline),
                ]
            )
            == 0
        )
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("Solution")
        assert len(lines) == 3  # header + solutions 1 and 9

    def test_evaluate_reads_no_track_file(self, pipeline, tmp_path):
        workdir = tmp_path / "w"
        shutil.copytree(pipeline, workdir)
        for name in ("tracks.csv", "report.csv", "report.txt"):
            (workdir / name).unlink()
        conf = write_conf(tmp_path)
        assert main(["evaluate", "--config", conf, "--workdir", str(workdir)]) == 0
        for name in ("report.csv", "report.txt"):
            assert (workdir / name).read_bytes() == (pipeline / name).read_bytes()

    def test_train_applies_tuned_parameters(self, pipeline, tmp_path, capsys):
        workdir = tmp_path / "w"
        shutil.copytree(pipeline, workdir)
        conf = write_conf(tmp_path)
        assert main(["train", "--config", conf, "--workdir", str(workdir)]) == 0
        assert "applying tuned parameters" in capsys.readouterr().out


class TestUsageErrors:
    def test_unknown_flag(self, tmp_path, capsys):
        assert main(["synth", "--bogus"]) == 1

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_command(self, capsys):
        assert main([]) == 1

    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        assert cli.build_parser() is cli.build_parser()
        errors = []
        for argv in (["frobnicate"], ["synth", "--bogus"]) * 2:
            assert main(argv) == 1
            errors.append(capsys.readouterr().err)
        assert errors[:2] == errors[2:]
        assert errors[0] == (
            "usage: skipcast [-h] COMMAND ...\n"
            "skipcast: error: argument COMMAND: invalid choice: 'frobnicate' (choose "
            "from 'synth', 'extract', 'tune', 'train', 'predict', 'evaluate', 'run-all')\n"
        )
        assert errors[1].endswith("skipcast: error: unrecognized arguments: --bogus\n")
        conf = write_conf(tmp_path)
        assert main(["synth", "--config", conf, "--workdir", str(tmp_path / "w")]) == 0
        assert (tmp_path / "w" / "sessions.csv").exists()

    def test_bad_solution_id(self, tmp_path, capsys):
        workdir = str(tmp_path / "w")
        assert main(["synth", "--workdir", workdir, "--solutions", "0"]) == 1
        assert "solution ids" in capsys.readouterr().err

    def test_bad_sample(self, tmp_path, capsys):
        workdir = str(tmp_path / "w")
        assert main(["synth", "--workdir", workdir, "--sample", "2.0"]) == 1

    def test_negative_seed(self, tmp_path, capsys):
        workdir = tmp_path / "w"
        assert main(["synth", "--workdir", str(workdir), "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "skipcast: seed must be >= 0, got -1\n"
        assert not (workdir / "sessions.csv").exists()

    def test_config_file_not_utf8(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_bytes(b"seed = 3\n\xff\n")
        assert main(["synth", "--config", str(conf)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"skipcast: config file {conf} is not UTF-8 text: ")
        assert "Traceback" not in err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["synth", "--config", str(tmp_path / "nope.conf")]) == 1
        assert "config file not found" in capsys.readouterr().err

    def test_config_path_is_a_directory(self, tmp_path, capsys):
        assert main(["synth", "--config", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"skipcast: config file {tmp_path} cannot be read: Is a directory\n"

    def test_unknown_config_key(self, tmp_path, capsys):
        conf = write_conf(tmp_path, "frobnication = 3\n")
        assert main(["synth", "--config", conf]) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_malformed_config_line(self, tmp_path, capsys):
        conf = write_conf(tmp_path, "just a line\n")
        assert main(["synth", "--config", conf]) == 1
        assert "key=value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body, reason",
        [
            ("n_tracks = 0\n", "n_tracks must be >= 1"),
            ("session_length_min = 1\n", "2 <= min <= max <= 20, got [1, 20]"),
            ("session_length_max = 21\n", "2 <= min <= max <= 20, got [2, 21]"),
            (
                "session_length_min = 9\nsession_length_max = 8\n",
                "2 <= min <= max <= 20, got [9, 8]",
            ),
            ("acoustic_dim = 0\n", "acoustic_dim must be >= 1"),
            ("exp_base = 0\n", "exp_base must be finite and > 0, got 0.0"),
            ("n_sessions = 0\n", "n_sessions must be >= 1"),
            ("skip_bias = nan\n", "skip_bias must be finite, got nan"),
            ("skip_energy_weight = inf\n", "skip_energy_weight must be finite, got inf"),
            ("skip_tempo_weight = -inf\n", "skip_tempo_weight must be finite, got -inf"),
            ("skip_prev_weight = nan\n", "skip_prev_weight must be finite, got nan"),
        ],
        ids=[
            "n_tracks 0", "min 1", "max 21", "min > max", "acoustic_dim 0", "exp_base 0",
            "n_sessions 0", "skip_bias nan", "skip_energy_weight inf",
            "skip_tempo_weight -inf", "skip_prev_weight nan",
        ],
    )
    def test_synth_config_out_of_bounds(self, tmp_path, capsys, body, reason):
        conf = write_conf(tmp_path, body)
        workdir = str(tmp_path / "w")
        assert main(["synth", "--config", conf, "--workdir", workdir]) == 1
        assert reason in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["extract", "tune", "train", "predict", "evaluate"])
    def test_every_stage_checks_every_section(self, tmp_path, capsys, stage):
        conf = write_conf(tmp_path, "n_tracks = 0\n")
        workdir = tmp_path / "w"
        assert main([stage, "--config", conf, "--workdir", str(workdir)]) == 1
        assert capsys.readouterr().err == "skipcast: n_tracks must be >= 1\n"
        assert not workdir.exists()

    def test_section_error_comes_before_run_config_error(self, tmp_path, capsys):
        conf = write_conf(tmp_path, "sample = 2\neta = 2\n")
        assert main(["tune", "--config", conf, "--workdir", str(tmp_path / "w")]) == 1
        assert capsys.readouterr().err == "skipcast: eta must be in (0, 1], got 2.0\n"

    def test_max_depth_above_bound(self, tmp_path, capsys):
        # deeper trees would overflow the recursion of tree growth
        conf = write_conf(tmp_path, "max_depth = 5000\n")
        workdir = str(tmp_path / "w")
        assert main(["train", "--config", conf, "--workdir", workdir]) == 1
        assert "max_depth must be in [1, 64], got 5000" in capsys.readouterr().err


# eta 1 drives margins far enough that some node's hessians are all 0
ZERO_HESSIAN_CONF = (
    "seed = 3\nn_sessions = 120\nn_tracks = 100\nnum_boost_round = 200\n"
    "eta = 1.0\nlambda_ = 0.0\nmin_child_weight = 0.0\n"
)
ZERO_HESSIAN_ERROR = (
    "skipcast: lambda_ = 0 and a node's hessian sum is 0: its score "
    "divides by zero; set lambda_ > 0\n"
)


class TestDataErrors:
    def test_extract_before_synth(self, tmp_path, capsys):
        assert main(["extract", "--workdir", str(tmp_path / "w")]) == 2
        assert "run the synth stage first" in capsys.readouterr().err

    def stage_before_extract(self, tmp_path, capsys, stage):
        # the stage reads the corpus, not features.csv: it needs synth alone
        conf = write_conf(tmp_path)
        workdir = tmp_path / "w"
        assert main([stage, "--config", conf, "--workdir", str(workdir)]) == 2
        assert "run the synth stage first" in capsys.readouterr().err
        assert main(["synth", "--config", conf, "--workdir", str(workdir)]) == 0
        assert main([stage, "--config", conf, "--workdir", str(workdir)]) == 0
        assert not (workdir / "features.csv").exists()

    def test_tune_before_extract(self, tmp_path, capsys):
        self.stage_before_extract(tmp_path, capsys, "tune")

    def test_train_before_extract(self, tmp_path, capsys):
        self.stage_before_extract(tmp_path, capsys, "train")

    def test_predict_before_train(self, pipeline, tmp_path, capsys):
        workdir = tmp_path / "w"
        shutil.copytree(pipeline, workdir)
        shutil.rmtree(workdir / "bank")
        conf = write_conf(tmp_path)
        assert main(["predict", "--config", conf, "--workdir", str(workdir)]) == 2
        assert "run the train stage first" in capsys.readouterr().err

    def test_predict_with_truncated_model(self, pipeline, tmp_path, capsys):
        workdir = tmp_path / "w"
        shutil.copytree(pipeline, workdir)
        path = workdir / "bank" / "model_03.json"
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        conf = write_conf(tmp_path)
        assert main(["predict", "--config", conf, "--workdir", str(workdir)]) == 2
        assert "model_03.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "corrupt",
        ["format", "feature 99", "feature -1", "feature 6.7", "n_features 64",
         "eta nan", "lambda_ nan", "gamma nan", "min_child_weight nan", "nested 5000",
         "max_depth 5000", "max_depth 6.5", "eta 0.05", "seed 99"],
    )
    def test_predict_with_corrupt_model_content(
        self, pipeline, tmp_path, capsys, corrupt
    ):
        workdir = tmp_path / "w"
        shutil.copytree(pipeline, workdir)
        path = workdir / "bank" / "model_03.json"
        payload = json.loads(path.read_text())
        if corrupt == "format":
            payload["format"] = "something-else"
        elif corrupt.endswith(" nan"):
            payload["params"][corrupt.split()[0]] = float("nan")
        elif corrupt == "n_features 64":
            payload["n_features"] = 64
        elif corrupt == "eta 0.05":
            payload["params"]["eta"] = 0.05
        elif corrupt == "seed 99":
            payload["seed"] = 99
        elif corrupt.startswith("max_depth "):
            payload["params"]["max_depth"] = json.loads(corrupt.split()[1])
        elif corrupt.startswith("feature "):
            feature = json.loads(corrupt.split()[1])
            leaf = {"value": 0.0}
            payload["trees"] = [
                {"feature": feature, "threshold": 0.5, "left": leaf, "right": leaf}
            ]
        text = json.dumps(payload)
        if corrupt == "nested 5000":
            # too deep for json.dumps, so the first tree goes in as text
            split = '{"feature": 0, "threshold": 0.5, "left": '
            nested = split * 5000 + '{"value": 0.0}' + ', "right": {"value": 0.0}}' * 5000
            text = text.replace('"trees": [', '"trees": [' + nested + ", ", 1)
        path.write_text(text)
        conf = write_conf(tmp_path)
        assert main(["predict", "--config", conf, "--workdir", str(workdir)]) == 2
        assert "model_03.json" in capsys.readouterr().err

    def test_predict_with_manifest_contradicting_models(self, pipeline, tmp_path, capsys):
        workdir = tmp_path / "w"
        shutil.copytree(pipeline, workdir)
        path = workdir / "bank" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["seed"] += 1
        path.write_text(json.dumps(manifest))
        conf = write_conf(tmp_path)
        assert main(["predict", "--config", conf, "--workdir", str(workdir)]) == 2
        assert capsys.readouterr().err == (
            f"skipcast: {path} does not match the bank's model files\n"
        )

    @pytest.mark.parametrize("corrupt", ["cut", "best eta 5.0"])
    def test_train_with_cut_grid_report_row(self, pipeline, tmp_path, capsys, corrupt):
        workdir = tmp_path / "w"
        shutil.copytree(pipeline, workdir)
        path = workdir / "grid_report.csv"
        lines = path.read_text().splitlines()
        if corrupt == "cut":
            lines[3] = lines[3][:12]
        else:
            lines[1:] = [line[:-1] + "0" for line in lines[1:]]
            lines[3] = "5.0" + lines[3][lines[3].index(","):-1] + "1"
        path.write_text("\n".join(lines) + "\n")
        conf = write_conf(tmp_path)
        assert main(["train", "--config", conf, "--workdir", str(workdir)]) == 2
        problem = {"cut": "expected 6 cells, got 4",
                   "best eta 5.0": "eta must be in (0, 1], got 5.0"}[corrupt]
        assert capsys.readouterr().err == f"skipcast: {path} line 4: {problem}\n"

    @pytest.mark.parametrize("markers", ["none", "two"])
    def test_train_with_grid_report_best_markers(
        self, pipeline, tmp_path, capsys, markers
    ):
        workdir = tmp_path / "w"
        shutil.copytree(pipeline, workdir)
        path = workdir / "grid_report.csv"
        lines = path.read_text().splitlines()
        lines[1:] = [line[:-1] + "0" for line in lines[1:]]
        if markers == "two":
            lines[2] = lines[2][:-1] + "1"
            lines[5] = lines[5][:-1] + "1"
        path.write_text("\n".join(lines) + "\n")
        conf = write_conf(tmp_path)
        assert main(["train", "--config", conf, "--workdir", str(workdir)]) == 2
        err = capsys.readouterr().err
        if markers == "none":
            assert err == f"skipcast: {path}: grid report has no row marked best\n"
        else:
            assert err == f"skipcast: {path} line 6: a second best marker\n"

    def test_evaluate_with_empty_session_log(self, pipeline, tmp_path, capsys):
        workdir = tmp_path / "w"
        shutil.copytree(pipeline, workdir)
        path = workdir / "sessions.csv"
        path.write_text(path.read_text().splitlines()[0] + "\n")
        conf = write_conf(tmp_path)
        assert main(["evaluate", "--config", conf, "--workdir", str(workdir)]) == 2
        err = capsys.readouterr().err
        assert err == f"skipcast: {path}: session log holds no sessions\n"

    @pytest.mark.parametrize(
        "column,cell,problem",
        [("hour_of_day", "25", "hour 25 outside [0, 23]"),
         ("skip_3", "0", "skip_2 set without skip_3")],
        ids=["hour_of_day", "skip_3"],
    )
    def test_extract_with_bad_session_row(
        self, pipeline, tmp_path, capsys, column, cell, problem
    ):
        workdir = tmp_path / "w"
        shutil.copytree(pipeline, workdir)
        path = workdir / "sessions.csv"
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        row = lines[3].split(",")
        row[header.index("skip_2")] = "1"
        row[header.index("skip_3")] = "1"
        row[header.index(column)] = cell
        lines[3] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        conf = write_conf(tmp_path)
        assert main(["extract", "--config", conf, "--workdir", str(workdir)]) == 2
        assert capsys.readouterr().err == (
            f"skipcast: {path} line 4: session {row[0]!r} position {row[1]}: {problem}\n"
        )

    def test_extract_with_wrong_session_length(self, pipeline, tmp_path, capsys):
        workdir = tmp_path / "w"
        shutil.copytree(pipeline, workdir)
        path = workdir / "sessions.csv"
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        row = lines[2].split(",")  # position 2 of the first session
        n = int(row[header.index("session_length")])
        row[header.index("session_length")] = str(n + 1)
        lines[2] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        conf = write_conf(tmp_path)
        assert main(["extract", "--config", conf, "--workdir", str(workdir)]) == 2
        assert capsys.readouterr().err == (
            f"skipcast: {path} line 2: session {row[0]!r}: declared length {n + 1} "
            f"does not match row count {n}\n"
        )

    @pytest.mark.parametrize("half", ["history", "target"])
    @pytest.mark.parametrize("stage", ["extract", "predict"])
    def test_unknown_track_id(self, pipeline, tmp_path, capsys, stage, half):
        workdir = tmp_path / "w"
        shutil.copytree(pipeline, workdir)
        pattern = "features.csv" if stage == "extract" else "*_solution_*"
        outputs = sorted(workdir.glob(pattern))
        assert outputs
        for output in outputs:
            output.unlink()
        path = workdir / "sessions.csv"
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        n = int(lines[1].split(",")[header.index("session_length")])
        k = 1 if half == "history" else n  # first or last row of the first session
        row = lines[k].split(",")
        row[header.index("track_id")] = "nosuch"
        lines[k] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        conf = write_conf(tmp_path)
        assert main([stage, "--config", conf, "--workdir", str(workdir)]) == 2
        assert capsys.readouterr().err == (
            f"skipcast: session {row[0]!r} position {row[1]}: "
            "unknown track_id 'nosuch'\n"
        )
        assert not any(output.exists() for output in outputs)

    def test_predict_with_huge_track_cell(self, pipeline, tmp_path, capsys):
        # every energy at 1e308: training would refuse the features it gives
        workdir = tmp_path / "w"
        shutil.copytree(pipeline, workdir)
        path = workdir / "tracks.csv"
        lines = path.read_text().splitlines()
        column = lines[0].split(",").index("energy")
        lines[1:] = [_set_cell(column, "1e308")(line) for line in lines[1:]]
        path.write_text("\n".join(lines) + "\n")
        conf = write_conf(tmp_path)
        assert main(["predict", "--config", conf, "--workdir", str(workdir)]) == 2
        assert capsys.readouterr().err == (
            f"skipcast: {path} line 2: energy='1e308' has a magnitude of 2**1023 "
            "or more, which training refuses\n"
        )

    @pytest.mark.parametrize("stage", ["extract", "predict"])
    def test_assembled_value_overflows(self, pipeline, tmp_path, capsys, stage):
        # each cell is in range, but a dot product of two vectors is not
        workdir = tmp_path / "w"
        shutil.copytree(pipeline, workdir)
        pattern = "features.csv" if stage == "extract" else "*_solution_*"
        outputs = sorted(workdir.glob(pattern))
        for output in outputs:
            output.unlink()
        path = workdir / "tracks.csv"
        lines = path.read_text().splitlines()
        column = lines[0].split(",").index("acoustic_vector_0")
        lines[1:] = [_set_cell(column, "1e200")(line) for line in lines[1:]]
        path.write_text("\n".join(lines) + "\n")
        conf = write_conf(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([stage, "--config", conf, "--workdir", str(workdir)]) == 2
        assert caught == []
        assert re.fullmatch(
            r"skipcast: session 's000000' target position 1: dot_(skipped|listened)_mean "
            r"is inf; training needs a finite value of magnitude below 2\*\*1023\n",
            capsys.readouterr().err,
        )
        assert outputs and not any(output.exists() for output in outputs)

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_train_with_non_finite_feature_cell(
        self, pipeline, tmp_path, capsys, cell
    ):
        workdir = tmp_path / "w"
        shutil.copytree(pipeline, workdir)
        path = workdir / "tracks.csv"
        lines = path.read_text().splitlines()
        lines[4] = _set_cell(lines[0].split(",").index("popularity"), cell)(lines[4])
        path.write_text("\n".join(lines) + "\n")
        conf = write_conf(tmp_path)
        assert main(["train", "--config", conf, "--workdir", str(workdir)]) == 2
        assert capsys.readouterr().err == (
            f"skipcast: {path} line 5: popularity={cell!r} is not a finite number\n"
        )

    def test_train_with_label_outside_0_1(self, pipeline, tmp_path, capsys):
        workdir = tmp_path / "w"
        shutil.copytree(pipeline, workdir)
        path = workdir / "sessions.csv"
        lines = path.read_text().splitlines()
        lines[4] = _set_cell(lines[0].split(",").index("skip_2"), "7")(lines[4])
        path.write_text("\n".join(lines) + "\n")
        conf = write_conf(tmp_path)
        assert main(["train", "--config", conf, "--workdir", str(workdir)]) == 2
        assert capsys.readouterr().err == (
            f"skipcast: {path} line 5: column skip_2 must be 0 or 1, got '7'\n"
        )

    def test_train_with_zero_hessian_and_lambda_0(self, tmp_path, capsys):
        conf = write_conf(tmp_path, ZERO_HESSIAN_CONF)
        workdir = str(tmp_path / "w")
        for stage in ("synth", "extract"):
            assert main([stage, "--config", conf, "--workdir", workdir]) == 0
        capsys.readouterr()
        assert main(["train", "--config", conf, "--workdir", workdir]) == 1
        assert capsys.readouterr().err == ZERO_HESSIAN_ERROR

    def test_zero_hessian_error_is_all_that_train_prints(self, tmp_path):
        # the workers write to the process's own stderr, which capsys cannot
        # see, so train runs in a process of its own
        conf = write_conf(tmp_path, ZERO_HESSIAN_CONF)
        workdir = str(tmp_path / "w")
        for stage in ("synth", "extract"):
            assert main([stage, "--config", conf, "--workdir", workdir]) == 0
        env = {**os.environ, "PYTHONPATH": str(Path(skipcast.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "skipcast.cli", "train", "--config", conf,
             "--workdir", workdir],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert (done.returncode, done.stderr) == (1, ZERO_HESSIAN_ERROR)

    @pytest.mark.parametrize("stage", ["train", "tune"])
    def test_target_position_outside_1_10(self, pipeline, tmp_path, capsys, stage):
        # 22 rows would give the first session a target position 11; the
        # log reader refuses a session of more than 20 rows at its first line
        workdir = tmp_path / "w"
        shutil.copytree(pipeline, workdir)
        path = workdir / "sessions.csv"
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        position, length = header.index("session_position"), header.index("session_length")
        n = int(lines[1].split(",")[length])
        first = [lines[1 + k] if k < n else lines[n] for k in range(22)]
        first = [
            _set_cell(length, "22")(_set_cell(position, str(k + 1))(line))
            for k, line in enumerate(first)
        ]
        path.write_text("\n".join(lines[:1] + first + lines[1 + n:]) + "\n")
        conf = write_conf(tmp_path)
        assert main([stage, "--config", conf, "--workdir", str(workdir)]) == 2
        assert capsys.readouterr().err == (
            f"skipcast: {path} line 2: session 's000000': length 22 outside [2, 20]\n"
        )

    def test_tune_on_single_class_table(self, pipeline, tmp_path, capsys):
        workdir = tmp_path / "w"
        shutil.copytree(pipeline, workdir)
        path = workdir / "sessions.csv"
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        for column in ("skip_1", "skip_2"):
            lines[1:] = map(_set_cell(header.index(column), "0"), lines[1:])
        path.write_text("\n".join(lines) + "\n")
        conf = write_conf(tmp_path)
        assert main(["tune", "--config", conf, "--workdir", str(workdir)]) == 2
        assert capsys.readouterr().err == (
            "skipcast: training labels contain a single class; cannot fit a classifier\n"
        )

    def test_tune_sample_on_one_session(self, tmp_path, capsys):
        conf = write_conf(tmp_path, SMALL_CONF.replace("n_sessions = 25", "n_sessions = 1"))
        workdir = str(tmp_path / "w")
        for stage in ("synth", "extract"):
            assert main([stage, "--config", conf, "--workdir", workdir]) == 0
        capsys.readouterr()
        assert main(["tune", "--config", conf, "--workdir", workdir, "--sample", "0.4"]) == 2
        assert capsys.readouterr().err == (
            "skipcast: grid search needs at least 2 sessions, got 1\n"
        )

    def test_evaluate_before_predict(self, pipeline, tmp_path, capsys):
        workdir = tmp_path / "w"
        shutil.copytree(pipeline, workdir)
        for sub in workdir.glob("submission_solution_*.txt"):
            sub.unlink()
        conf = write_conf(tmp_path)
        assert main(["evaluate", "--config", conf, "--workdir", str(workdir)]) == 2
        assert "run the predict stage first" in capsys.readouterr().err

    def test_evaluate_with_corrupt_submission(self, pipeline, tmp_path, capsys):
        workdir = tmp_path / "w"
        shutil.copytree(pipeline, workdir)
        path = workdir / "submission_solution_01.txt"
        path.write_text("s000000 01x\n")
        conf = write_conf(tmp_path)
        assert main(["evaluate", "--config", conf, "--workdir", str(workdir)]) == 2
        assert capsys.readouterr().err == (
            f"skipcast: {path} line 1: session 's000000': malformed decision string\n"
        )

    @pytest.mark.parametrize("corrupt", ["short", "long", "duplicate", "unknown"])
    def test_evaluate_with_bad_submission_line(
        self, pipeline, tmp_path, capsys, corrupt
    ):
        workdir = tmp_path / "w"
        shutil.copytree(pipeline, workdir)
        path = workdir / "submission_solution_09.txt"
        lines = path.read_text().splitlines()
        k = next(k for k, line in enumerate(lines) if len(line.split(" ")[1]) > 1)
        sid, bits = lines[k].split(" ")
        if corrupt == "short":
            lines[k], number = f"{sid} {bits[1:]}", k + 1
            reason = f"{len(bits) - 1} decisions for {len(bits)} targets"
        elif corrupt == "long":
            lines[k], number = f"{sid} {bits}0", k + 1
            reason = f"{len(bits) + 1} decisions for {len(bits)} targets"
        elif corrupt == "duplicate":
            lines.append(lines[k])
            number, reason = len(lines), "appears a second time"
        else:
            sid = "zzz"
            lines.insert(k, "zzz 1")
            number, reason = k + 1, "not in the session log"
        path.write_text("\n".join(lines) + "\n")
        conf = write_conf(tmp_path)
        assert main(["evaluate", "--config", conf, "--workdir", str(workdir)]) == 2
        err = capsys.readouterr().err
        assert err == f"skipcast: {path} line {number}: session {sid!r}: {reason}\n"

    def test_evaluate_with_missing_session(self, pipeline, tmp_path, capsys):
        workdir = tmp_path / "w"
        shutil.copytree(pipeline, workdir)
        path = workdir / "submission_solution_01.txt"
        first_line = path.read_text().splitlines()[0]
        path.write_text(first_line + "\n")
        conf = write_conf(tmp_path)
        assert main(["evaluate", "--config", conf, "--workdir", str(workdir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"skipcast: {path}: no stored decisions for session ")
        assert err.endswith("; re-run the predict stage\n")


class TestColumnReaders:
    """predict and evaluate read clean files as columns; odd ids survive."""

    OUTPUTS = ["report.csv", "scores_solution_01.csv", "submission_solution_09.txt"]

    def test_clean_corpus_never_runs_a_row_reader(self, pipeline, tmp_path, monkeypatch):
        workdir = tmp_path / "w"
        shutil.copytree(pipeline, workdir)

        def refuse(*args, **kwargs):
            raise AssertionError("a row reader ran on a clean file")

        for module, name in [(datamodel, "_log_rows"), (datamodel, "_track_rows"),
                             (datamodel, "SessionRow"), (cli, "_submission_lines")]:
            monkeypatch.setattr(module, name, refuse)
        conf = write_conf(tmp_path)
        for stage in ("predict", "evaluate"):
            assert main([stage, "--config", conf, "--workdir", str(workdir)]) == 0
        for name in self.OUTPUTS:
            assert (workdir / name).read_bytes() == (pipeline / name).read_bytes()

    def test_reordered_submission_scores_the_same(self, pipeline, tmp_path):
        # the line reader takes what the whole-file check leaves to it
        workdir = tmp_path / "w"
        shutil.copytree(pipeline, workdir)
        for path in workdir.glob("submission_solution_*.txt"):
            lines = path.read_text().splitlines()
            path.write_text("\n".join(lines[::-1][:3] + [""] + lines[::-1][3:]))
        conf = write_conf(tmp_path)
        assert main(["evaluate", "--config", conf, "--workdir", str(workdir)]) == 0
        assert (workdir / "report.csv").read_bytes() == (pipeline / "report.csv").read_bytes()

    # a space, a comma, 2-byte UTF-8, a line separator other than "\n", and
    # 4-byte UTF-8 beside a space
    ODD_IDS = ["a b", "c,d", "\u00e9", "g\u2028h", "\U0001f3b5 x"]
    ODD_COUNTS = np.array([3, 1, 10, 2, 5])

    def odd_submission(self):
        """A submission of the odd ids as `write_submission` writes it, and
        its decisions as the line reader reads them."""
        scores = (np.random.default_rng(5).random(self.ODD_COUNTS.sum()) < 0.5) * 1.0
        out = io.StringIO()
        write_submission(CorpusPrediction(self.ODD_IDS, self.ODD_COUNTS, scores), out)
        text = out.getvalue()
        decisions = cli._submission_lines(text, self.ODD_IDS, self.ODD_COUNTS.tolist())
        np.testing.assert_array_equal(decisions, scores == 1.0)
        return text, decisions

    def parse(self, text):
        template = cli._submission_template(self.ODD_IDS, self.ODD_COUNTS)
        return cli._parse_submission(io.StringIO(text), self.ODD_IDS, self.ODD_COUNTS, template)

    def test_whole_file_check_reads_odd_ids(self, monkeypatch):
        text, decisions = self.odd_submission()

        def refuse(*args, **kwargs):
            raise AssertionError("the line reader ran on a file write_submission wrote")

        monkeypatch.setattr(cli, "_submission_lines", refuse)
        np.testing.assert_array_equal(self.parse(text), decisions)

    def test_an_id_byte_changed_goes_to_the_line_reader(self):
        text, _ = self.odd_submission()
        # "\u00e8" differs from "\u00e9" in the last of its two UTF-8 bytes
        with pytest.raises(IntegrityError, match="'\u00e8': not in the session log") as err:
            self.parse(text.replace("\u00e9", "\u00e8"))
        assert err.value.line_num == 3

    def test_ids_with_a_space_or_a_comma_round_trip(self, pipeline, tmp_path):
        workdir = tmp_path / "w"
        shutil.copytree(pipeline, workdir)
        log = workdir / "sessions.csv"
        # a submission line ends at "\n" only, so other line separators are id text
        ids = ["a b", "c,d", "e\x85f", "g\u2028h", "i\x0bj", "k\x1cl"]
        text = log.read_text()
        for k, sid in enumerate(ids):
            text = re.sub(f"^s{k:06d},", f'"{sid}",', text, flags=re.M)
        log.write_text(text)
        conf = write_conf(tmp_path)
        for stage in ("extract", "train", "predict", "evaluate"):
            assert main([stage, "--config", conf, "--workdir", str(workdir)]) == 0
        # only the ids changed, so the decisions and their scores did not
        assert (workdir / "report.csv").read_bytes() == (pipeline / "report.csv").read_bytes()
        before = (pipeline / "submission_solution_01.txt").read_text().split("\n")
        assert (workdir / "submission_solution_01.txt").read_text().split("\n") == [
            sid + line.removeprefix(f"s{k:06d}") for k, (sid, line) in enumerate(zip(ids, before))
        ] + before[len(ids):]
        for name in ("scores_solution_01.csv", "features.csv"):
            with open(workdir / name, encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))
            assert len({len(row) for row in rows}) == 1, name
            column = rows[0].index("session_id")
            assert {row[column] for row in rows} >= set(ids), name


def _set_cell(index, value):
    def edit(line):
        cells = line.split(",")
        cells[index] = value
        return ",".join(cells)

    return edit


# each data file: the stage that reads it, and its error when it is empty
DATA_FILES = {
    "tracks.csv": ("extract", "track feature file is empty"),
    "sessions.csv": ("evaluate", "session log is empty"),
    "grid_report.csv": ("train", "grid report file is empty"),
    "submission_solution_09.txt": (
        "evaluate",
        "no stored decisions for session 's000000'; re-run the predict stage",
    ),
}

# (file, error): the line to edit, the edit, and the message after the line
LINE_ERRORS = {
    ("tracks.csv", "bad cell"): (
        3, _set_cell(1, "x"), "cannot parse duration='x' as a number"
    ),
    ("tracks.csv", "extra cell"): (
        3, lambda line: line + ",0", "expected 26 cells, got 27"
    ),
    ("tracks.csv", "huge cell"): (
        3, _set_cell(9, "1.5e308"),
        "energy='1.5e308' has a magnitude of 2**1023 or more, which training refuses",
    ),
    ("tracks.csv", "bad header"): (
        1,
        lambda line: line.replace(",valence,", ",valency,"),
        "track feature file is missing column 'valence'",
    ),
    ("sessions.csv", "bad cell"): (
        4, _set_cell(1, "x"), "cannot parse session_position='x' as an integer"
    ),
    ("sessions.csv", "extra cell"): (
        4, lambda line: line + ",0", "expected 12 cells, got 13"
    ),
    ("sessions.csv", "missing cell"): (
        4, lambda line: line.rsplit(",", 1)[0], "expected 12 cells, got 11"
    ),
    ("sessions.csv", "bad header"): (
        1,
        lambda line: line.replace("month", "mon"),
        "session log is missing column 'month'",
    ),
    ("grid_report.csv", "bad cell"): (
        4, _set_cell(0, "abc"), "cannot parse eta='abc' as a number"
    ),
    ("grid_report.csv", "bad integer"): (
        4, _set_cell(1, "6.0"), "cannot parse max_depth='6.0' as an integer"
    ),
    ("grid_report.csv", "bad val_auc"): (
        4, _set_cell(4, "high"), "cannot parse val_auc='high' as a number"
    ),
    ("grid_report.csv", "bad header"): (
        1, lambda line: line.replace("val_auc", "auc"), "not a grid report file"
    ),
    ("submission_solution_09.txt", "bad cell"): (
        2, lambda line: "zzz 01x", "session 'zzz': malformed decision string"
    ),
}


class TestDataFileErrors:
    """Every data file the CLI reads, with each kind of error it can hold.

    Each run exits 2 with one stderr line, `skipcast: <path> line <n>:
    <message>`, or `skipcast: <path>: <message>` for an empty file. A
    submission has no header. The byte that is not UTF-8 sits on the last
    line, past the decoder's first chunk in the larger files.
    """

    @pytest.mark.parametrize(
        "name, error",
        [*LINE_ERRORS, *((name, "not UTF-8") for name in DATA_FILES),
         *((name, "empty") for name in DATA_FILES)],
        ids=lambda value: value,
    )
    def test_error_names_file_and_line(self, pipeline, tmp_path, capsys, name, error):
        workdir = tmp_path / "w"
        shutil.copytree(pipeline, workdir)
        path = workdir / name
        lines = path.read_bytes().splitlines()
        stage, message = DATA_FILES[name]
        if error == "empty":
            lines, where = [], f"{path}"
        elif error == "not UTF-8":
            lines[-1] = lines[-1][:5] + b"\xff" + lines[-1][5:]
            where = f"{path} line {len(lines)}"
            message = "byte 0xff is not UTF-8 text (invalid start byte)"
        else:
            number, edit, message = LINE_ERRORS[name, error]
            lines[number - 1] = edit(lines[number - 1].decode()).encode()
            where = f"{path} line {number}"
        path.write_bytes(b"".join(line + b"\n" for line in lines))
        conf = write_conf(tmp_path)
        assert main([stage, "--config", conf, "--workdir", str(workdir)]) == 2
        assert capsys.readouterr().err == f"skipcast: {where}: {message}\n"


class TestFlagPrecedence:
    def test_flag_seed_beats_config_seed(self, tmp_path):
        conf = write_conf(tmp_path, SMALL_CONF + "seed = 3\n")
        a = tmp_path / "a"
        assert main(["synth", "--config", conf, "--workdir", str(a), "--seed", "5"]) == 0
        b = tmp_path / "b"
        conf_no_seed = str(tmp_path / "noseed.conf")
        Path(conf_no_seed).write_text(SMALL_CONF, encoding="utf-8")
        assert main(["synth", "--config", conf_no_seed, "--workdir", str(b), "--seed", "5"]) == 0
        assert (a / "tracks.csv").read_bytes() == (b / "tracks.csv").read_bytes()

    def test_config_workdir_yields_to_flag(self, tmp_path):
        conf = write_conf(
            tmp_path, SMALL_CONF + f"workdir = {tmp_path / 'from_config'}\n"
        )
        flagged = tmp_path / "from_flag"
        assert main(["synth", "--config", conf, "--workdir", str(flagged)]) == 0
        assert (flagged / "tracks.csv").exists()
        assert not (tmp_path / "from_config").exists()


ROUTED_SECTIONS = {
    "synth": SynthConfig,
    "params": TrainParams,
    "weights": EnsembleWeights,
}

# a valid non-default value for every field of RunConfig and its three sections
ROUTED_VALUES = {
    "workdir": Path("elsewhere"),
    "seed": 11,
    "solutions": (1, 9, 12),
    "sample": 0.5,
    "tune_rounds": 5,
    "tracks_csv": Path("/x/t.csv"),
    "sessions_csv": Path("/x/s.csv"),
    "n_tracks": 40,
    "n_sessions": 30,
    "session_length_min": 3,
    "session_length_max": 19,
    "acoustic_dim": 5,
    "skip_bias": -0.5,
    "skip_energy_weight": 1.5,
    "skip_tempo_weight": 0.25,
    "skip_prev_weight": 2.0,
    "num_boost_round": 7,
    "eta": 0.25,
    "max_depth": 4,
    "min_child_weight": 2.0,
    "lambda_": 2.5,
    "gamma": 0.5,
    "subsample": 0.75,
    "colsample": 0.5,
    "linear_offset": 9.0,
    "alpha_scale": 0.25,
    "fixed_prior": 0.3,
    "exp_base": 3.0,
}


class TestConfigParsing:
    def test_parse_solutions_all(self):
        assert parse_solutions("all") == tuple(range(1, 13))

    def test_parse_solutions_list_with_spaces(self):
        assert parse_solutions("1, 9 ,12") == (1, 9, 12)

    @pytest.mark.parametrize("raw", ["0", "13", "1,1", "x", ""])
    def test_parse_solutions_rejects(self, raw):
        with pytest.raises(ConfigError):
            parse_solutions(raw)

    def test_kv_text_skips_comments_and_blanks(self):
        values = parse_kv_text("# hi\n\n a = 1 \nb= two\n")
        assert values == {"a": "1", "b": "two"}

    def test_kv_text_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_kv_text("a = 1\na = 2\n")

    @pytest.mark.parametrize("text", ["lambda = 1.0\nlambda_ = 3.0\n",
                                      "lambda_ = 3.0\nlambda = 1.0\n"],
                             ids=["lambda first", "lambda_ first"])
    def test_alias_and_key_both_given(self, tmp_path, text):
        conf = tmp_path / "c.conf"
        conf.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match="^duplicate key 'lambda_': 'lambda' and "):
            load_config(conf, {})

    def test_kv_value_may_contain_equals(self):
        assert parse_kv_text("a = b=c\n") == {"a": "b=c"}

    def test_build_config_routes_keys(self):
        cfg = build_config(
            {
                "n_sessions": "77",
                "eta": "0.25",
                "lambda": "2.5",
                "fixed_prior": "0.3",
                "seed": "11",
                "workdir": "elsewhere",
            }
        )
        assert cfg.synth.n_sessions == 77
        assert cfg.params.eta == 0.25
        assert cfg.params.lambda_ == 2.5
        assert cfg.weights.fixed_prior == 0.3
        assert cfg.seed == 11
        assert cfg.workdir == Path("elsewhere")

    @pytest.mark.parametrize(
        "section, name",
        [
            (section, f.name)
            for section, cls in ROUTED_SECTIONS.items()
            for f in fields(cls)
        ]
        + [("run", f.name) for f in fields(RunConfig) if f.name not in ROUTED_SECTIONS],
    )
    def test_build_config_routes_each_field(self, section, name):
        value = ROUTED_VALUES[name]
        key = "lambda" if name == "lambda_" else name
        raw = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        cfg, default = build_config({key: raw}), RunConfig()
        for f in fields(RunConfig):
            if f.name in ROUTED_SECTIONS:
                continue
            got, want = getattr(cfg, f.name), getattr(default, f.name)
            if ("run", f.name) == (section, name):
                assert want != value and got == value and type(got) is type(value)
            else:
                assert got == want, f.name
        for sec in ROUTED_SECTIONS:
            for f in fields(getattr(default, sec)):
                got = getattr(getattr(cfg, sec), f.name)
                want = getattr(getattr(default, sec), f.name)
                assert type(got) is type(want), f"{sec}.{f.name}"
                if (sec, f.name) == (section, name):
                    assert want != value and got == value
                else:
                    assert got == want, f"{sec}.{f.name}"

    @pytest.mark.parametrize("key", ["synth", "params", "weights", "tracks_path"])
    def test_sections_and_methods_are_not_keys(self, key):
        with pytest.raises(ConfigError, match=f"^unknown config key '{key}'$"):
            build_config({key: "1"})

    def test_built_config_cannot_change(self):
        cfg = build_config({"n_tracks": "40"})
        for obj, name in [(cfg, "seed"), (cfg.synth, "n_tracks"), (cfg.params, "eta"),
                          (cfg.weights, "exp_base")]:
            with pytest.raises(FrozenInstanceError):
                setattr(obj, name, 0)

    def test_negative_generator_weights_are_valid(self):
        cfg = build_config({"skip_bias": "-3", "skip_prev_weight": "-2.5"})
        assert (cfg.synth.skip_bias, cfg.synth.skip_prev_weight) == (-3.0, -2.5)

    def test_build_config_type_errors(self):
        with pytest.raises(ConfigError, match="integer"):
            build_config({"n_sessions": "many"})
        with pytest.raises(ConfigError, match="number"):
            build_config({"eta": "fast"})

    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.workdir == Path("work")
        assert cfg.seed == 7
        assert cfg.solutions == tuple(range(1, 13))
        assert cfg.params.num_boost_round == 60
        assert cfg.tracks_path() == Path("work") / "tracks.csv"

    def test_explicit_corpus_paths(self):
        cfg = build_config({"tracks_csv": "/x/t.csv", "sessions_csv": "/x/s.csv"})
        assert cfg.tracks_path() == Path("/x/t.csv")
        assert cfg.sessions_path() == Path("/x/s.csv")

    def test_load_config_flags_override_file(self, tmp_path):
        conf = tmp_path / "c.conf"
        conf.write_text("seed = 3\nsample = 0.5\n", encoding="utf-8")
        cfg = load_config(conf, {"seed": "5", "workdir": None})
        assert cfg.seed == 5
        assert cfg.sample == 0.5  # untouched file value survives

    def test_seed_must_be_non_negative(self):
        assert build_config({"seed": "0"}).seed == 0
        with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
            build_config({"seed": "-1"})

    def test_tune_rounds_must_be_positive(self):
        with pytest.raises(ConfigError, match="tune_rounds"):
            build_config({"tune_rounds": "0"})
