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

from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Mapping

from .ensemble import SOLUTION_IDS, EnsembleWeights
from .errors import ConfigError
from .gbdt import TrainParams
from .synthetic import SynthConfig


@dataclass(frozen=True, eq=False)
class RunConfig:
    """The run options. Its config keys are its fields other than the three
    sections, and the fields of those sections."""

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

    def __post_init__(self) -> None:
        if not 0.0 < self.sample <= 1.0:
            raise ConfigError(f"sample must be in (0, 1], got {self.sample}")
        if self.tune_rounds < 1:
            raise ConfigError(f"tune_rounds must be >= 1, got {self.tune_rounds}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

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


_DEFAULTS = RunConfig()
_SECTIONS = [f.name for f in fields(RunConfig) if is_dataclass(getattr(_DEFAULTS, f.name))]
#: each config key, with the RunConfig section that holds it (None: RunConfig)
_KEYS = {f.name: None for f in fields(RunConfig) if f.name not in _SECTIONS} | {
    f.name: section for section in _SECTIONS for f in fields(getattr(_DEFAULTS, section))
}


def _convert(key: str, raw: str, default):
    """`raw` as a value of the kind of `default`: a number, solution ids or a path."""
    if isinstance(default, tuple):
        return parse_solutions(raw)
    if not isinstance(default, (int, float)):  # a Path, or None for an unset one
        return Path(raw)
    kind, noun = (int, "an integer") if isinstance(default, int) else (float, "a number")
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{key} must be {noun}, got {raw!r}")


def build_config(values: Mapping[str, str]) -> RunConfig:
    """Construct a validated RunConfig from raw string key/value pairs.

    Each section is built, and so checked, before RunConfig itself.
    """
    changes: dict[str | None, dict] = {}
    for key, raw in values.items():
        name = "lambda_" if key == "lambda" else key
        if name not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        section = _KEYS[name]
        holder = _DEFAULTS if section is None else getattr(_DEFAULTS, section)
        kwargs = changes.setdefault(section, {})
        if name in kwargs:  # keys are unique, so only the alias repeats one
            raise ConfigError(f"duplicate key {name!r}: 'lambda' and 'lambda_' are one key")
        kwargs[name] = _convert(name, raw, getattr(holder, name))
    own = changes.pop(None, {})
    for section, kwargs in changes.items():
        own[section] = replace(getattr(_DEFAULTS, section), **kwargs)
    return replace(_DEFAULTS, **own)


def load_config(
    config_path: str | Path | None, overrides: Mapping[str, str]
) -> RunConfig:
    """Merge a config file (if given) with flag overrides; flags win."""
    values: dict[str, str] = {}
    if config_path is not None:
        path = Path(config_path)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8 text: {exc}")
        except OSError as exc:
            raise ConfigError(f"config file {path} cannot be read: {exc.strerror}")
        values.update(parse_kv_text(text))
    values.update({k: v for k, v in overrides.items() if v is not None})
    return build_config(values)
