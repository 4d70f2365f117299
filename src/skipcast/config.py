"""Run configuration: plain-text key=value files with flag overrides.

A config file looks like

    # corpus size
    n_sessions = 2000
    eta = 0.2
    solutions = 1,9,10

Unknown keys are rejected so typos fail loudly. Command-line flags override
file values, which override the built-in defaults listed in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Mapping

from .ensemble import SOLUTION_IDS, EnsembleWeights
from .errors import ConfigError
from .gbdt import TrainParams
from .synthetic import SynthConfig

_SYNTH_KEYS = set(SynthConfig.field_names())
_PARAM_KEYS = {f.name for f in fields(TrainParams)}
_WEIGHT_KEYS = {f.name for f in fields(EnsembleWeights)}


@dataclass(eq=False)
class RunConfig:
    workdir: Path = Path("work")
    seed: int = 7
    solutions: tuple[int, ...] = SOLUTION_IDS
    sample: float = 1.0
    tune_rounds: int = 20
    tracks_csv: Path | None = None
    sessions_csv: Path | None = None
    synth: SynthConfig = field(default_factory=SynthConfig)
    # desk-scale round count; the library default of 200 suits overnight runs
    params: TrainParams = field(default_factory=lambda: TrainParams(num_boost_round=60))
    weights: EnsembleWeights = field(default_factory=EnsembleWeights)

    def tracks_path(self) -> Path:
        return self.tracks_csv if self.tracks_csv else self.workdir / "tracks.csv"

    def sessions_path(self) -> Path:
        return self.sessions_csv if self.sessions_csv else self.workdir / "sessions.csv"


def parse_solutions(raw: str) -> tuple[int, ...]:
    raw = raw.strip()
    if raw.lower() == "all":
        return SOLUTION_IDS
    out: list[int] = []
    for piece in raw.split(","):
        piece = piece.strip()
        try:
            value = int(piece)
        except ValueError:
            raise ConfigError(f"solutions must be integers or 'all', got {piece!r}")
        if value not in SOLUTION_IDS:
            raise ConfigError(f"solution ids run 1..12, got {value}")
        if value in out:
            raise ConfigError(f"solution {value} listed twice")
        out.append(value)
    if not out:
        raise ConfigError("solutions list is empty")
    return tuple(out)


def parse_kv_text(text: str) -> dict[str, str]:
    """key = value lines; blank lines and # comments are skipped."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in out:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _to_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {raw!r}")


def _to_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {raw!r}")


#: RunConfig's own keys, each with its converter from (key, raw string).
_TOP_KEYS = {
    "workdir": lambda _key, raw: Path(raw),
    "seed": _to_int,
    "solutions": lambda _key, raw: parse_solutions(raw),
    "sample": _to_float,
    "tune_rounds": _to_int,
    "tracks_csv": lambda _key, raw: Path(raw),
    "sessions_csv": lambda _key, raw: Path(raw),
}


def _convert(key: str, raw: str, current):
    return _to_int(key, raw) if isinstance(current, int) else _to_float(key, raw)


def build_config(values: Mapping[str, str]) -> RunConfig:
    """Construct a validated RunConfig from raw string key/value pairs."""
    cfg = RunConfig()
    synth_kwargs: dict = {}
    param_kwargs: dict = {}
    weight_kwargs: dict = {}
    for key, raw in values.items():
        name = "lambda_" if key == "lambda" else key
        if name in _TOP_KEYS:
            setattr(cfg, name, _TOP_KEYS[name](name, raw))
        elif name in _SYNTH_KEYS:
            synth_kwargs[name] = _convert(name, raw, getattr(cfg.synth, name))
        elif name in _PARAM_KEYS:
            param_kwargs[name] = _convert(name, raw, getattr(cfg.params, name))
        elif name in _WEIGHT_KEYS:
            weight_kwargs[name] = _convert(name, raw, getattr(cfg.weights, name))
        else:
            raise ConfigError(f"unknown config key {key!r}")
    if synth_kwargs:
        cfg.synth = replace(cfg.synth, **synth_kwargs)
    if param_kwargs:
        cfg.params = replace(cfg.params, **param_kwargs)
    if weight_kwargs:
        cfg.weights = replace(cfg.weights, **weight_kwargs)
    if not 0.0 < cfg.sample <= 1.0:
        raise ConfigError(f"sample must be in (0, 1], got {cfg.sample}")
    if cfg.tune_rounds < 1:
        raise ConfigError(f"tune_rounds must be >= 1, got {cfg.tune_rounds}")
    return cfg


def load_config(
    config_path: str | Path | None, overrides: Mapping[str, str]
) -> RunConfig:
    """Merge a config file (if given) with flag overrides; flags win."""
    values: dict[str, str] = {}
    if config_path is not None:
        path = Path(config_path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        values.update(parse_kv_text(path.read_text(encoding="utf-8")))
    values.update({k: v for k, v in overrides.items() if v is not None})
    return build_config(values)
