"""The three benchmark workloads: fit, tune and score.

Each workload is a batch job in a closed loop: one client in one process,
each CLI stage starting when the previous one returns. `setup` writes the
inputs made from the seed, `iterate` runs one timed pass of CLI stages
through `skipcast.cli.main`, `check` verifies the outputs of a pass with
code that does not share the program's scoring path, and `quality` gives
the held-out MAA, FPA and AUC of what the timed passes produced.

Every corpus is one synthetic draw, split by session into train shards
and held-out eval sessions that share one tracks.csv, so the quality
figures are held-out, never in-sample. Models trained on a few dozen
sessions vary a lot from draw to draw, so each workload trains on several
train shards and reports the mean quality of the resulting models.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from skipcast import cli, synthetic
from skipcast.datamodel import split_session, write_session_csv, write_track_csv
from skipcast.ensemble import SOLUTION_IDS, combine
from skipcast.features import FeatureTable, assemble_corpus, feature_schema_hash
from skipcast.gbdt import TrainParams, auc, train
from skipcast.modelbank import ModelBank

# The model parameters of acceptance criterion 07.
CRITERION_07 = {"num_boost_round": 40, "eta": 0.1, "max_depth": 6}
GRID_POINTS = 54


@dataclass(frozen=True)
class Size:
    n_tracks: int
    train_sessions: int  # per train shard
    train_shards: int
    eval_sessions: int
    eval_shards: int = 1
    num_boost_round: int = CRITERION_07["num_boost_round"]
    tune_rounds: int = 3


# Corpus sizes per workload; score trains one bank per set-up, so it has
# as many train shards as a run has set-ups. "toy" only proves the harness.
SIZES = {
    "full": {
        "fit": Size(n_tracks=800, train_sessions=50, train_shards=4, eval_sessions=1000),
        "tune": Size(n_tracks=800, train_sessions=40, train_shards=3, eval_sessions=1000,
                     tune_rounds=2),
        "score": Size(n_tracks=800, train_sessions=40, train_shards=3, eval_sessions=1000,
                      eval_shards=8),
    },
    "toy": {
        "fit": Size(n_tracks=60, train_sessions=20, train_shards=2, eval_sessions=200,
                    num_boost_round=5),
        "tune": Size(n_tracks=60, train_sessions=16, train_shards=2, eval_sessions=200,
                     tune_rounds=1),
        "score": Size(n_tracks=60, train_sessions=20, train_shards=3, eval_sessions=200,
                      eval_shards=2, num_boost_round=5),
    },
}


class Context:
    """Operation counts, failures and the optional tracer of one run."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.tracing = False
        self.attempted = 0
        self.failures: list[str] = []
        self.failed_stages = 0

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @contextlib.contextmanager
    def guard(self, what: str):
        """Count a check that raises as one failed operation."""
        try:
            yield
        except Exception:  # the run must finish and report the failure
            self.attempted += 1
            self.failures.append(f"{what}: {traceback.format_exc(limit=-3)}")

    def span(self, layer: str):
        if self.tracing:
            return self.tracer.span(layer)
        return contextlib.nullcontext({})

    def stage(self, name: str, conf: Path, workdir: Path) -> None:
        """One CLI stage call, with its output captured."""
        argv = [name, "--config", str(conf), "--workdir", str(workdir)]
        out = io.StringIO()
        with self.span(f"cli.{name}") as counts:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = cli.main(argv)
            counts["cli.failed_stages"] = int(code != 0)
        if not self.expect(code == 0, f"cli {name} exited {code}: {out.getvalue()[-500:]}"):
            self.failed_stages += 1


def direct_aa(decisions: np.ndarray, truth: np.ndarray) -> float:
    """Average accuracy from the running-accuracy formula, no loop."""
    hits = np.asarray(decisions, dtype=bool) == np.asarray(truth, dtype=bool)
    running = np.cumsum(hits) / np.arange(1, hits.size + 1)
    return float((running * hits).sum() / hits.size)


def targets_of(session) -> np.ndarray:
    return np.array([r.skip_2 for r in split_session(session).targets], dtype=bool)


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def deal(sessions, n_shards: int) -> list[list]:
    """Equal-count shards with near-equal target rows, in corpus order.

    Sessions sorted by length are dealt back and forth across the shards,
    so every timed pass does about the same work.
    """
    order = sorted(range(len(sessions)), key=lambda i: (sessions[i].length, i))
    members: list[list[int]] = [[] for _ in range(n_shards)]
    for rank, i in enumerate(order):
        lap, pos = divmod(rank, n_shards)
        members[pos if lap % 2 == 0 else n_shards - 1 - pos].append(i)
    return [[sessions[i] for i in sorted(m)] for m in members]


def heldout_quality(matrix: np.ndarray, table: FeatureTable, sessions) -> dict:
    """Strategy 1 and 9 MAA, strategy 9 FPA and position-1 AUC of scores.

    `matrix` holds the ten position models' probabilities for the rows of
    `table`, which are the target rows of `sessions` in order.
    """
    aa1, aa9, first9 = [], [], []
    row = 0
    for session in sessions:
        split = split_session(session)
        truth = targets_of(session)
        block = matrix[row:row + truth.size]
        s0 = 1.0 if split.history[-1].skip_2 else 0.0
        d1 = combine(1, block, s0) >= 0.5
        d9 = combine(9, block, s0) >= 0.5
        aa1.append(direct_aa(d1, truth))
        aa9.append(direct_aa(d9, truth))
        first9.append(d9[0] == truth[0])
        row += truth.size
    first = table.positions == 1
    return {
        "maa_s1": float(np.mean(aa1)),
        "maa_s9": float(np.mean(aa9)),
        "fpa_s9": float(np.mean(first9)),
        "val_auc": auc(matrix[first, 0], table.labels[first]),
    }


def mean_quality(per_model: list[dict]) -> dict:
    return {name: float(np.mean([q[name] for q in per_model])) for name in per_model[0]}


def write_conf(path: Path, **values) -> Path:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
    return path


class Workload:
    """Shared set-up: one synthetic corpus split into train shards and eval."""

    name = ""

    def __init__(self, run_dir: Path, seed: int, size: Size, ctx: Context) -> None:
        self.dir = run_dir / self.name
        self.seed = seed
        self.size = size
        self.ctx = ctx
        self.inputs = size.train_shards

    def work(self, k: int) -> Path:
        return self.dir / f"work_{k}"

    def reset(self, repeat: int) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)

    def synth(self) -> None:
        size = self.size
        n_train = size.train_sessions * size.train_shards
        with self.ctx.span("cli.synth"):
            config = synthetic.SynthConfig(
                n_tracks=size.n_tracks, n_sessions=n_train + size.eval_sessions
            )
            self.tracks, sessions = synthetic.generate_synthetic_dataset(config, self.seed)
            with open(self.dir / "tracks.csv", "w", encoding="utf-8") as fh:
                write_track_csv(self.tracks, fh)
            self.train_shards = deal(sessions[:n_train], size.train_shards)
            self.train_confs = [
                self._write_shard(f"train_{k}", shard, num_boost_round=size.num_boost_round,
                                  eta=CRITERION_07["eta"], max_depth=CRITERION_07["max_depth"],
                                  tune_rounds=size.tune_rounds)
                for k, shard in enumerate(self.train_shards)
            ]
            self.eval_sessions = sessions[n_train:]

    def _write_shard(self, stem: str, sessions, **values) -> Path:
        with open(self.dir / f"{stem}.csv", "w", encoding="utf-8") as fh:
            write_session_csv(sessions, fh)
        return write_conf(self.dir / f"{stem}.conf", seed=self.seed,
                          tracks_csv=self.dir / "tracks.csv",
                          sessions_csv=self.dir / f"{stem}.csv", **values)

    def setup_fingerprint(self) -> str:
        files = sorted(self.dir.glob("*.csv"))
        return hashlib.sha256("".join(digest(p) for p in files).encode()).hexdigest()

    def check_features(self, k: int) -> None:
        with open(self.work(k) / "features.csv", encoding="utf-8") as fh:
            n_rows = sum(1 for _ in fh) - 1
        expected = sum(s.length // 2 for s in self.train_shards[k])
        self.ctx.expect(n_rows == expected,
                        f"shard {k}: features.csv has {n_rows} rows, expected {expected}")

    def check_bank(self, k: int) -> None:
        ctx = self.ctx
        bank = self.work(k) / "bank"
        manifest = json.loads((bank / "manifest.json").read_text(encoding="utf-8"))
        names = manifest["models"]
        ctx.expect(manifest["feature_schema_hash"] == feature_schema_hash() and len(names) == 10,
                   f"shard {k}: bank manifest has a wrong schema hash or model count")
        for name in names:
            with ctx.guard(f"shard {k}: bank model {name}"):
                model = json.loads((bank / name).read_text(encoding="utf-8"))
                ctx.expect(model["format"] == "skipcast-gbdt" and model["n_features"] == 63
                           and len(model["trees"]) <= self.size.num_boost_round,
                           f"shard {k}: bank model {name} is malformed")

    def eval_table(self) -> FeatureTable:
        return assemble_corpus(self.eval_sessions, self.tracks)


class Fit(Workload):
    """extract then train on one train shard per pass; banks scored held-out."""

    name = "fit"

    def setup(self, repeat: int) -> None:
        self.synth()

    def iterate(self, k: int) -> int:
        self.ctx.stage("extract", self.train_confs[k], self.work(k))
        self.ctx.stage("train", self.train_confs[k], self.work(k))
        return len(self.train_shards[k])

    def fingerprint(self, k: int) -> dict:
        return {p.name: digest(p) for p in sorted((self.work(k) / "bank").glob("*.json"))}

    def check(self, k: int) -> None:
        with self.ctx.guard(f"shard {k}: features.csv"):
            self.check_features(k)
        with self.ctx.guard(f"shard {k}: bank"):
            self.check_bank(k)

    def quality(self) -> dict:
        table = self.eval_table()
        return mean_quality([
            heldout_quality(ModelBank.load(self.work(k) / "bank").predict_matrix(table.x),
                            table, self.eval_sessions)
            for k in range(self.inputs)
        ])


class Tune(Workload):
    """The 54-point grid search over one small extracted train shard per pass."""

    name = "tune"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.best: dict[int, list[str]] = {}
        self.grid_best_val_auc: dict[int, float] = {}

    def setup(self, repeat: int) -> None:
        self.synth()
        for k, conf in enumerate(self.train_confs):
            self.ctx.stage("extract", conf, self.work(k))

    def iterate(self, k: int) -> int:
        self.ctx.stage("tune", self.train_confs[k], self.work(k))
        return len(self.train_shards[k])

    def fingerprint(self, k: int) -> dict:
        return {"grid_report.csv": digest(self.work(k) / "grid_report.csv")}

    def check(self, k: int) -> None:
        ctx = self.ctx
        with ctx.guard(f"shard {k}: features.csv"):
            self.check_features(k)
        with ctx.guard(f"shard {k}: grid report"):
            text = (self.work(k) / "grid_report.csv").read_text(encoding="utf-8")
            lines = text.splitlines()
            ctx.expect(lines[0] == "eta,max_depth,colsample,subsample,val_auc,best",
                       f"shard {k}: grid report header")
            rows = [line.split(",") for line in lines[1:]]
            ctx.expect(len(rows) == GRID_POINTS,
                       f"shard {k}: grid report has {len(rows)} rows, expected {GRID_POINTS}")
            aucs = []
            for i, cells in enumerate(rows):
                ok = len(cells) == 6 and cells[5] in ("0", "1")
                aucs.append(float(cells[4]) if ok else float("nan"))
                ctx.expect(ok and 0.0 <= aucs[-1] <= 1.0, f"shard {k}: grid report row {i + 1}")
            marked = [i for i, cells in enumerate(rows) if cells[-1] == "1"]
            first_max = int(np.argmax(aucs))
            ctx.expect(marked == [first_max],
                       f"shard {k}: best marker on rows {marked}, first maximum is row {first_max}")
            self.best[k] = rows[first_max]
            self.grid_best_val_auc[k] = aucs[first_max]

    def quality(self) -> dict:
        """Each shard's best grid point refit on that shard, scored held-out.

        The refit is one pooled model, as in the grid search, so all ten
        columns of its score matrix are the same probabilities.
        """
        table = self.eval_table()
        per_model = []
        for k in range(self.inputs):
            with open(self.work(k) / "features.csv", encoding="utf-8") as fh:
                tune_table = FeatureTable.read_csv(fh)
            eta, max_depth, colsample, subsample = self.best[k][:4]
            params = TrainParams(num_boost_round=self.size.tune_rounds, eta=float(eta),
                                 max_depth=int(max_depth), colsample=float(colsample),
                                 subsample=float(subsample))
            model = train(tune_table.x, tune_table.labels, params, seed=self.seed)
            p = model.predict_proba(table.x)
            per_model.append(heldout_quality(np.repeat(p[:, None], 10, axis=1), table,
                                             self.eval_sessions))
        quality = mean_quality(per_model)
        quality["grid_best_val_auc"] = float(np.mean(list(self.grid_best_val_auc.values())))
        return quality


class Score(Workload):
    """predict (all 12 strategies) then evaluate, one bank and eval shard per pass.

    Set-up number r trains bank r on train shard r, so a run's set-ups are
    its banks; the passes cycle over every (bank, eval shard) pair.
    """

    name = "score"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.banks = self.size.train_shards
        self.inputs = self.banks * self.size.eval_shards
        self.aa = [{s: {} for s in SOLUTION_IDS} for _ in range(self.banks)]
        self.first = [{s: {} for s in SOLUTION_IDS} for _ in range(self.banks)]
        self.first_scores: list[dict[str, float]] = [{} for _ in range(self.banks)]

    def reset(self, repeat: int) -> None:
        if repeat == 0:
            super().reset(repeat)

    def synth(self) -> None:
        super().synth()
        with self.ctx.span("cli.synth"):
            self.eval_shards = deal(self.eval_sessions, self.size.eval_shards)
            self.eval_confs = [
                self._write_shard(f"eval_{k}", shard, solutions="all")
                for k, shard in enumerate(self.eval_shards)
            ]

    def setup(self, repeat: int) -> None:
        self.synth()
        self.ctx.stage("extract", self.train_confs[repeat], self.work(repeat))
        self.ctx.stage("train", self.train_confs[repeat], self.work(repeat))

    def _pair(self, k: int) -> tuple[int, int]:
        return k % self.banks, k // self.banks

    def iterate(self, k: int) -> int:
        bank, shard = self._pair(k)
        self.ctx.stage("predict", self.eval_confs[shard], self.work(bank))
        self.ctx.stage("evaluate", self.eval_confs[shard], self.work(bank))
        return len(self.eval_shards[shard])

    def fingerprint(self, k: int) -> dict:
        bank, _ = self._pair(k)
        return {p.name: digest(p) for p in sorted(self.work(bank).glob("scores_solution_*.csv"))}

    def check(self, k: int) -> None:
        ctx = self.ctx
        bank, shard = self._pair(k)
        work = self.work(bank)
        aa, first = self.aa[bank], self.first[bank]
        what = f"bank {bank} shard {shard}"
        if shard == 0:
            with ctx.guard(f"bank {bank}"):
                self.check_bank(bank)
        truths = {s.session_id: targets_of(s) for s in self.eval_shards[shard]}
        with ctx.guard(f"{what}: submissions"):
            decisions = {}
            for solution in SOLUTION_IDS:
                path = work / f"submission_solution_{solution:02d}.txt"
                lines = path.read_text(encoding="utf-8").splitlines()
                ctx.expect([line.partition(" ")[0] for line in lines] == list(truths),
                           f"{what} solution {solution}: session ids differ")
                decisions[solution] = dict(line.partition(" ")[::2] for line in lines)
            for sid, truth in truths.items():
                bits = [decisions[s].get(sid, "") for s in SOLUTION_IDS]
                ok = all(len(b) == truth.size and set(b) <= {"0", "1"} for b in bits)
                if ctx.expect(ok, f"{what} session {sid}: bad decision strings"):
                    for solution, b in zip(SOLUTION_IDS, bits):
                        d = np.array([c == "1" for c in b])
                        aa[solution][sid] = direct_aa(d, truth)
                        first[solution][sid] = bool(d[0] == truth[0])
        with ctx.guard(f"{what}: report"):
            lines = (work / "report.csv").read_text(encoding="utf-8").splitlines()
            reported = {int(c[0]): (float(c[1]), float(c[2]))
                        for c in (line.split(",") for line in lines[1:])}
            for solution in SOLUTION_IDS:
                maa = np.mean([aa[solution][sid] for sid in truths])
                fpa = np.mean([first[solution][sid] for sid in truths])
                got = reported.get(solution, (np.nan, np.nan))
                ctx.expect(abs(got[0] - maa) <= 1e-12 and abs(got[1] - fpa) <= 1e-12,
                           f"{what} solution {solution}: report {got} != ({maa}, {fpa})")
        with ctx.guard(f"{what}: strategy-1 scores"):
            lines = (work / "scores_solution_01.csv").read_text(encoding="utf-8").splitlines()
            for cells in (line.split(",") for line in lines[1:]):
                if cells[1] == "1":
                    self.first_scores[bank][cells[0]] = float(cells[2])

    def quality(self) -> dict:
        sids = [s.session_id for s in self.eval_sessions]
        truths = [targets_of(s) for s in self.eval_sessions]
        majority = max(
            np.mean([direct_aa(np.full(t.size, v), t) for t in truths]) for v in (True, False)
        )
        per_bank = []
        for bank in range(self.banks):
            aa, first = self.aa[bank], self.first[bank]
            quality = {
                "maa_s1": float(np.mean([aa[1][sid] for sid in sids])),
                "maa_s9": float(np.mean([aa[9][sid] for sid in sids])),
                "fpa_s9": float(np.mean([first[9][sid] for sid in sids])),
                "val_auc": auc(np.array([self.first_scores[bank][sid] for sid in sids]),
                               np.array([t[0] for t in truths])),
            }
            self.ctx.expect(quality["maa_s9"] > majority,
                            f"bank {bank}: maa_s9 {quality['maa_s9']:.4f} <= majority "
                            f"baseline {majority:.4f}")
            per_bank.append(quality)
        return mean_quality(per_bank)


WORKLOADS = {w.name: w for w in (Fit, Tune, Score)}
