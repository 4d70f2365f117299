"""Seeded synthetic corpus generator for desk-scale runs.

The behavioral rule is a documented default, not a claim about real
listeners: the probability that a row is a skip_2 follows a logistic model
in the track's energy (centered at 0.5), the track's tempo z-score over the
generated corpus, and whether the previous row in the session was skipped.
The previous-skip term gives sessions the autocorrelation that the
last-action ensemble strategies exploit. `track_logits` states the rule's
per-track part; the generator evaluates the rule once per track.

Given the same config and seed the generator returns identical corpora,
and the CSVs written from them are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .datamodel import (
    MAX_SESSION_LENGTH,
    MIN_SESSION_LENGTH,
    SCALAR_FEATURE_NAMES,
    Session,
    SessionRow,
    TrackTable,
)
from .errors import ConfigError

# Sampling ranges for scalar features that are not unit-interval shaped.
_SCALAR_RANGES = {
    "popularity": (0.0, 100.0),
    "loudness": (-25.0, 0.0),
    "tempo": (60.0, 200.0),
    "dyn_range_mean": (0.0, 12.0),
}

_P_SKIP1_GIVEN_SKIP2 = 0.6
_P_SKIP3_GIVEN_NOT_SKIP2 = 0.25


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic corpus.

    Session lengths are drawn uniformly from
    [session_length_min, session_length_max].
    """

    n_tracks: int = 500
    n_sessions: int = 1000
    session_length_min: int = MIN_SESSION_LENGTH
    session_length_max: int = MAX_SESSION_LENGTH
    acoustic_dim: int = 7
    skip_bias: float = -0.8
    skip_energy_weight: float = 1.2
    skip_tempo_weight: float = 0.6
    skip_prev_weight: float = 2.5

    def __post_init__(self) -> None:
        if self.n_tracks < 1:
            raise ConfigError("n_tracks must be >= 1")
        if self.n_sessions < 1:
            raise ConfigError("n_sessions must be >= 1")
        if not (
            MIN_SESSION_LENGTH
            <= self.session_length_min
            <= self.session_length_max
            <= MAX_SESSION_LENGTH
        ):
            raise ConfigError(
                "session length bounds must satisfy "
                f"{MIN_SESSION_LENGTH} <= min <= max <= {MAX_SESSION_LENGTH}, "
                f"got [{self.session_length_min}, {self.session_length_max}]"
            )
        if self.acoustic_dim < 1:
            raise ConfigError("acoustic_dim must be >= 1")
        # a NaN or inf logit term makes every row skip alike
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name.startswith("skip_") and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _generate_tracks(config: SynthConfig, rng: np.random.Generator) -> TrackTable:
    n = config.n_tracks
    duration = rng.uniform(60.0, 420.0, n)
    year = rng.integers(1960, 2021, n)
    scalars = np.empty((n, len(SCALAR_FEATURE_NAMES)), dtype=np.float64)
    for j, name in enumerate(SCALAR_FEATURE_NAMES):
        lo, hi = _SCALAR_RANGES.get(name, (0.0, 1.0))
        scalars[:, j] = rng.uniform(lo, hi, n)
    vectors = rng.standard_normal((n, config.acoustic_dim))
    return TrackTable([f"t{i:06d}" for i in range(n)], duration, year, scalars, vectors)


def track_logits(config: SynthConfig, tracks: TrackTable) -> np.ndarray:
    """Each track's part of a row's skip_2 logit, as float64; a row adds
    ``skip_prev_weight`` to it if the previous row of its session skipped."""
    energy = tracks.scalars[:, SCALAR_FEATURE_NAMES.index("energy")]
    tempos = tracks.scalars[:, SCALAR_FEATURE_NAMES.index("tempo")]
    tempo_mean = float(tempos.mean())
    tempo_std = float(tempos.std())
    if tempo_std == 0.0:
        tempo_std = 1.0
    return (
        config.skip_bias
        + config.skip_energy_weight * (energy - 0.5)
        + config.skip_tempo_weight * ((tempos - tempo_mean) / tempo_std)
    )


def generate_synthetic_dataset(
    config: SynthConfig, seed: int
) -> tuple[TrackTable, list[Session]]:
    """Generate a track table and session list; deterministic for a seed."""
    rng = np.random.default_rng(seed)
    tracks = _generate_tracks(config, rng)
    track_ids = tracks.track_ids
    logits = track_logits(config, tracks).tolist()  # float64 rounds as Python floats do
    w = config.skip_prev_weight
    # p_skip[s][track]: the skip_2 probability of a row after one whose skip_2 is s
    p_skip = (
        [_sigmoid(z + w * 0.0) for z in logits],
        [_sigmoid(z + w * 1.0) for z in logits],
    )

    sessions: list[Session] = []
    for s in range(config.n_sessions):
        sid = f"s{s:06d}"
        length = int(
            rng.integers(config.session_length_min, config.session_length_max + 1)
        )
        premium = bool(rng.random() < 0.7)
        shuffle = bool(rng.random() < 0.5)
        hour = int(rng.integers(0, 24))
        day = int(rng.integers(1, 32))
        month = int(rng.integers(1, 13))
        chosen = rng.integers(0, len(track_ids), length).tolist()
        # Three uniforms per row regardless of outcome keeps the draw
        # sequence independent of the sampled flags.
        draws = rng.random((length, 3)).tolist()

        rows = []
        skip_2 = False
        for pos, track, (u2, u1, u3) in zip(range(1, length + 1), chosen, draws):
            skip_2 = u2 < p_skip[skip_2][track]
            rows.append(SessionRow._make((
                sid, pos, length, track_ids[track],
                skip_2 and u1 < _P_SKIP1_GIVEN_SKIP2, skip_2,
                skip_2 or u3 < _P_SKIP3_GIVEN_NOT_SKIP2,
                premium, shuffle, hour, day, month,
            )))
        sessions.append(Session(session_id=sid, rows=tuple(rows)))
    return tracks, sessions
