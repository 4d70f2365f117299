"""Spans around the public functions of skipcast's layers.

The wrappers live in the benchmark, not in the package. `Tracer.install`
replaces each function or method named in `LAYERS` with a wrapper that
records a span (layer, start, end, parent) and counts of the work the call
did; `Tracer.uninstall` puts the originals back. A function is replaced in
every loaded skipcast module that holds it, so `from .modelbank import
train_bank` in the CLI is traced too. A name that no longer exists is
recorded as absent and the run carries on, so the benchmark keeps working
when a refactor deletes a function.

Spans stay in memory. `Tracer.fold` turns the spans of one iteration into
per-layer inclusive time, self time and counts, and clears them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _stream_bytes(stream) -> int:
    """Size of the file behind a text stream; 0 for an in-memory stream."""
    try:
        stream.flush()
        return os.fstat(stream.fileno()).st_size
    except (AttributeError, OSError, ValueError):
        return 0


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


# (layer, module, attribute, counts of one call from (args, kwargs, result)).
# Several entries may share a layer: a call nested inside another call of
# the same layer adds self time but neither inclusive time nor counts.
LAYERS = (
    ("datamodel.parse_tracks", "datamodel", "parse_track_features",
     lambda a, k, r: {"datamodel.rows_parsed": len(r)}),
    ("datamodel.parse_sessions", "datamodel", "parse_session_log",
     lambda a, k, r: {"datamodel.rows_parsed": sum(len(s.rows) for s in r)}),
    ("features.assemble", "features", "assemble_corpus",
     lambda a, k, r: {"features.examples": len(r)}),
    ("features.assemble", "features", "assemble_session_examples",
     lambda a, k, r: {"features.examples": len(r)}),
    ("features.assemble", "features", "assemble_example",
     lambda a, k, r: {"features.examples": 1}),
    ("features.csv_write", "features", "FeatureTable.write_csv",
     lambda a, k, r: {"features.csv_bytes": _stream_bytes(_arg(a, k, 1, "stream"))}),
    ("features.csv_read", "features", "FeatureTable.read_csv",
     lambda a, k, r: {"features.csv_bytes": _stream_bytes(_arg(a, k, 1, "stream"))}),
    ("gbdt.split_search", "gbdt", "best_split",
     lambda a, k, r: {"gbdt.split_calls": 1, "gbdt.splits_found": int(r is not None)}),
    ("gbdt.train", "gbdt", "train",
     lambda a, k, r: {"gbdt.train_calls": 1}),
    ("gbdt.predict_proba", "gbdt", "GBDTModel.predict_proba",
     lambda a, k, r: {"gbdt.predict_rows": len(r)}),
    ("gbdt.tree_values", "gbdt", "tree_values",
     lambda a, k, r: {"gbdt.tree_values_calls": 1}),
    ("modelbank.train_bank", "modelbank", "train_bank",
     lambda a, k, r: {"modelbank.fallbacks": len(r.fallback_positions)}),
    ("modelbank.grid_search", "modelbank", "grid_search",
     lambda a, k, r: {"modelbank.grid_points": len(r.rows)}),
    ("modelbank.score", "modelbank", "session_score_matrix",
     lambda a, k, r: {"modelbank.score_calls": 1}),
    ("modelbank.score", "modelbank", "ModelBank.predict_matrix",
     lambda a, k, r: {"modelbank.score_calls": 1}),
    ("modelbank.score", "modelbank", "ModelBank.predict_positions",
     lambda a, k, r: {"modelbank.score_calls": 1}),
    ("modelbank.save", "modelbank", "ModelBank.save",
     lambda a, k, r: {"modelbank.bank_bytes": _dir_bytes(_arg(a, k, 1, "bank_dir"))}),
    ("modelbank.load", "modelbank", "ModelBank.load",
     lambda a, k, r: {"modelbank.bank_bytes": _dir_bytes(_arg(a, k, 1, "bank_dir"))}),
    ("ensemble.combine", "ensemble", "combine",
     lambda a, k, r: {"ensemble.combine_calls": 1}),
    ("ensemble.write", "ensemble", "write_submission",
     lambda a, k, r: {"ensemble.bytes_written": _stream_bytes(_arg(a, k, 1, "stream"))}),
    ("ensemble.write", "ensemble", "write_scores",
     lambda a, k, r: {"ensemble.bytes_written": _stream_bytes(_arg(a, k, 1, "stream"))}),
    ("evaluation.report", "evaluation", "solutions_report",
     lambda a, k, r: {"evaluation.sessions_scored":
                      len(_arg(a, k, 0, "sessions")) * len(_arg(a, k, 2, "solutions"))}),
    ("evaluation.report", "evaluation", "write_report_csv",
     lambda a, k, r: {}),
    ("synthetic.generate", "synthetic", "generate_synthetic_dataset",
     lambda a, k, r: {}),
)

# What a counter may raise once a refactor changes a call's arguments or
# result; the call still returns normally and only its counts are lost.
_COUNT_ERRORS = (AttributeError, TypeError, KeyError, IndexError, OSError)


class Tracer:
    """In-memory span recorder with install/uninstall of the layer wrappers."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer, start, end, parent, top, counts]
        self.absent: list[str] = []
        self.count_errors: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        top = self._active[layer] == 0
        self._active[layer] += 1
        self._stack.append(idx)
        self.spans.append([layer, time.perf_counter(), 0.0, parent, top, None])
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        self._active[span[0]] -= 1

    @contextlib.contextmanager
    def span(self, layer: str):
        """A span opened by the benchmark itself; yields its counts dict."""
        idx = self._open(layer)
        counts: dict = {}
        self.spans[idx][5] = counts
        try:
            yield counts
        finally:
            self._close(idx)

    def _wrap(self, layer, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            try:
                tracer.spans[idx][5] = counter(args, kwargs, result)
            except _COUNT_ERRORS:
                tracer.count_errors[layer] += 1
            return result

        return traced

    def install(self) -> None:
        self._patches = []
        loaded = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "skipcast" or name.startswith("skipcast."))
        ]
        absent = []
        for layer, module, attribute, counter in LAYERS:
            try:
                mod = importlib.import_module(f"skipcast.{module}")
            except ImportError:
                absent.append(f"{module}.{attribute}")
                continue
            owner_name, _, method = attribute.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name, None)
                raw = vars(owner).get(method) if isinstance(owner, type) else None
                if raw is None:
                    absent.append(f"{module}.{attribute}")
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(self._wrap(layer, raw.__func__, counter))
                else:
                    new = self._wrap(layer, raw, counter)
                setattr(owner, method, new)
                self._patches.append((owner, method, raw))
                continue
            original = getattr(mod, attribute, None)
            if not callable(original):
                absent.append(f"{module}.{attribute}")
                continue
            wrapped = self._wrap(layer, original, counter)
            for m in loaded:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapped)
                        self._patches.append((m, name, original))
        self.absent = absent

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    def fold(self) -> dict:
        """Per-layer inclusive time, self time and counts of the spans so far.

        Inclusive time sums the spans with no enclosing span of the same
        layer; self time is a span's duration minus its direct children's.
        The spans are cleared afterwards.
        """
        inclusive: Counter = Counter()
        self_time: Counter = Counter()
        counts: Counter = Counter()
        for layer, start, end, parent, top, span_counts in self.spans:
            duration = end - start
            self_time[layer] += duration
            if parent >= 0:
                self_time[self.spans[parent][0]] -= duration
            if top:
                inclusive[layer] += duration
                if span_counts:
                    counts.update(span_counts)
        self.spans = []
        return {"inclusive": dict(inclusive), "self": dict(self_time), "counts": dict(counts)}

    def dump(self, path: Path) -> None:
        """Write the spans recorded so far as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (layer, start, end, parent, _top, counts) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "layer": layer, "start": start,
                                     "end": end, "parent": parent,
                                     "counts": counts or {}}) + "\n")
