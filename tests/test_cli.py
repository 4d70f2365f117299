"""End-to-end tests for the CLI: stages, exit codes, and artifact handling.

Everything runs in-process through main() against throwaway work
directories, with a corpus small enough to keep the whole file fast.
"""

import csv
import json
import re
import shutil
from dataclasses import fields
from pathlib import Path

import pytest

from skipcast.cli import main
from skipcast.config import (
    RunConfig,
    build_config,
    load_config,
    parse_kv_text,
    parse_solutions,
)
from skipcast.datamodel import parse_session_log, parse_track_features, split_session
from skipcast.ensemble import SOLUTION_IDS, EnsembleWeights, combine
from skipcast.errors import ConfigError
from skipcast.features import FEATURE_COUNT, session_features
from skipcast.gbdt import TrainParams
from skipcast.modelbank import ModelBank
from skipcast.synthetic import SynthConfig

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
"""


class TestPredictOracle:
    """Predict-stage output against rows built and scored one session at a time."""

    def test_scores_match_per_session_scoring(self, tmp_path):
        conf = write_conf(tmp_path, ORACLE_CONF)
        workdir = tmp_path / "w"
        for stage in ("synth", "extract", "train", "predict"):
            assert main([stage, "--config", conf, "--workdir", str(workdir)]) == 0
        cfg = load_config(conf, {})
        with open(workdir / "tracks.csv", encoding="utf-8") as fh:
            track_map = parse_track_features(fh)
        with open(workdir / "sessions.csv", encoding="utf-8") as fh:
            sessions = parse_session_log(fh, track_map)
        bank = ModelBank.load(workdir / "bank")
        priors = []
        matrices = []
        for s in sessions:
            matrices.append(bank.predict_matrix(session_features(s, track_map)))
            priors.append(float(split_session(s).history[-1].skip_2))
        assert set(priors) == {0.0, 1.0}  # both last actions are exercised
        for solution in SOLUTION_IDS:
            score_lines = ["session_id,target_position,score,decision"]
            submission_lines = []
            for s, m, s0 in zip(sessions, matrices, priors):
                scores = combine(solution, m, s0, cfg.weights)
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

    def test_bad_solution_id(self, tmp_path, capsys):
        workdir = str(tmp_path / "w")
        assert main(["synth", "--workdir", workdir, "--solutions", "0"]) == 1
        assert "solution ids" in capsys.readouterr().err

    def test_bad_sample(self, tmp_path, capsys):
        workdir = str(tmp_path / "w")
        assert main(["synth", "--workdir", workdir, "--sample", "2.0"]) == 1

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["synth", "--config", str(tmp_path / "nope.conf")]) == 1
        assert "config file not found" in capsys.readouterr().err

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
        ],
        ids=["n_tracks 0", "min 1", "max 21", "min > max", "acoustic_dim 0"],
    )
    def test_synth_config_out_of_bounds(self, tmp_path, capsys, body, reason):
        conf = write_conf(tmp_path, body)
        workdir = str(tmp_path / "w")
        assert main(["synth", "--config", conf, "--workdir", workdir]) == 1
        assert reason in capsys.readouterr().err

    def test_max_depth_above_bound(self, tmp_path, capsys):
        # deeper trees would overflow the recursion of tree growth
        conf = write_conf(tmp_path, "max_depth = 5000\n")
        workdir = str(tmp_path / "w")
        assert main(["train", "--config", conf, "--workdir", workdir]) == 1
        assert "max_depth must be in [1, 64], got 5000" in capsys.readouterr().err


class TestDataErrors:
    def test_extract_before_synth(self, tmp_path, capsys):
        assert main(["extract", "--workdir", str(tmp_path / "w")]) == 2
        assert "run the synth stage first" in capsys.readouterr().err

    def test_tune_before_extract(self, tmp_path, capsys):
        assert main(["tune", "--workdir", str(tmp_path / "w")]) == 2
        assert "run the extract stage first" in capsys.readouterr().err

    def test_train_before_extract(self, tmp_path, capsys):
        assert main(["train", "--workdir", str(tmp_path / "w")]) == 2
        assert "run the extract stage first" in capsys.readouterr().err

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
         "max_depth 5000"],
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
        elif corrupt == "max_depth 5000":
            payload["params"]["max_depth"] = 5000
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
        assert "line 4" in capsys.readouterr().err

    def test_evaluate_with_empty_session_log(self, pipeline, tmp_path, capsys):
        workdir = tmp_path / "w"
        shutil.copytree(pipeline, workdir)
        path = workdir / "sessions.csv"
        path.write_text(path.read_text().splitlines()[0] + "\n")
        conf = write_conf(tmp_path)
        assert main(["evaluate", "--config", conf, "--workdir", str(workdir)]) == 2
        err = capsys.readouterr().err
        assert "sessions.csv" in err and "no sessions" in err

    def test_train_with_unparsable_feature_cell(self, pipeline, tmp_path, capsys):
        workdir = tmp_path / "w"
        shutil.copytree(pipeline, workdir)
        path = workdir / "features.csv"
        lines = path.read_text().splitlines()
        lines[4] = "abc" + lines[4][lines[4].index(","):]
        path.write_text("\n".join(lines) + "\n")
        conf = write_conf(tmp_path)
        assert main(["train", "--config", conf, "--workdir", str(workdir)]) == 2
        assert "line 5" in capsys.readouterr().err

    def test_train_with_label_outside_0_1(self, pipeline, tmp_path, capsys):
        workdir = tmp_path / "w"
        shutil.copytree(pipeline, workdir)
        path = workdir / "features.csv"
        lines = path.read_text().splitlines()
        cells = lines[4].split(",")
        cells[FEATURE_COUNT] = "7"
        lines[4] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        conf = write_conf(tmp_path)
        assert main(["train", "--config", conf, "--workdir", str(workdir)]) == 2
        assert "line 5" in capsys.readouterr().err

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
        (workdir / "submission_solution_01.txt").write_text("s000000 01x\n")
        conf = write_conf(tmp_path)
        assert main(["evaluate", "--config", conf, "--workdir", str(workdir)]) == 2
        assert "malformed decision" in capsys.readouterr().err

    def test_evaluate_with_missing_session(self, pipeline, tmp_path, capsys):
        workdir = tmp_path / "w"
        shutil.copytree(pipeline, workdir)
        path = workdir / "submission_solution_01.txt"
        first_line = path.read_text().splitlines()[0]
        path.write_text(first_line + "\n")
        conf = write_conf(tmp_path)
        assert main(["evaluate", "--config", conf, "--workdir", str(workdir)]) == 2
        assert "no stored decisions" in capsys.readouterr().err


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

# a valid non-default value for every field of the three config sections
ROUTED_VALUES = {
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
        ],
    )
    def test_build_config_routes_each_field(self, section, name):
        value = ROUTED_VALUES[name]
        key = "lambda" if name == "lambda_" else name
        cfg, default = build_config({key: str(value)}), RunConfig()
        for f in fields(RunConfig):
            if f.name not in ROUTED_SECTIONS:
                assert getattr(cfg, f.name) == getattr(default, f.name)
        for sec in ROUTED_SECTIONS:
            for f in fields(getattr(default, sec)):
                got = getattr(getattr(cfg, sec), f.name)
                want = getattr(getattr(default, sec), f.name)
                assert type(got) is type(want), f"{sec}.{f.name}"
                if (sec, f.name) == (section, name):
                    assert want != value and got == value
                else:
                    assert got == want, f"{sec}.{f.name}"

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

    def test_tune_rounds_must_be_positive(self):
        with pytest.raises(ConfigError, match="tune_rounds"):
            build_config({"tune_rounds": "0"})
