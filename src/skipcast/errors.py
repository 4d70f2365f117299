"""Typed failures raised by the pipeline.

Everything data-shaped raises a subclass of :class:`SkipcastError` so the
CLI can map any of them to its "data error" exit code.
"""


class SkipcastError(Exception):
    """Base class for all package-specific errors; ``line_num`` is a file line."""

    def __init__(self, message: str, line_num: int | None = None):
        super().__init__(message)
        self.line_num = line_num


class SchemaError(SkipcastError):
    """A CSV header is missing or malformed."""


class RowParseError(SkipcastError):
    """A CSV row or cell could not be parsed."""


class DuplicateTrackError(SkipcastError):
    """The same track_id appears twice in a track-feature file."""


class MalformedSessionError(SkipcastError):
    """Session rows violate position ordering, contiguity, or length."""


class IntegrityError(SkipcastError):
    """A record violates a domain invariant (flag nesting, value ranges)."""


class UnknownTrackError(SkipcastError):
    """A session row references a track_id absent from the track map."""


class ConfigError(SkipcastError):
    """A configuration value is out of bounds or unrecognized."""


class DegenerateLabelsError(SkipcastError):
    """Training data contains a single class."""


class DegenerateSampleError(SkipcastError):
    """A tuning sample is too small to carry both classes."""


class DimensionError(SkipcastError):
    """A feature vector or matrix has the wrong width."""


class UndefinedMetricError(SkipcastError):
    """A metric is undefined for the given inputs (e.g. single-class AUC)."""


class StageError(SkipcastError):
    """A pipeline stage is missing an artifact from an earlier stage."""


class DomainError(SkipcastError):
    """A value falls outside its domain (e.g. an unknown solution id)."""
