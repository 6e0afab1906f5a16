"""Span tracing around the package's public functions, from outside ``src/``.

Each function is patched at the module attribute its caller resolves it
through (``pipeline.estimate_order`` is what ``analyze`` calls, so that is
the attribute replaced). A span records name, start, end, parent span,
record id and the name of any exception raised. Spans stay in memory until
the run ends. A layer's self time is its span duration minus the time its
child spans cover.
"""
from __future__ import annotations

import csv
import functools
import importlib
import os
import time
from collections import defaultdict

ANALYZE = "pipeline.analyze"
# Exceptions ``analyze`` records per peak bin instead of raising.
BIN_FAILURES = ("NoIntersection", "NoUniqueIntersection",
                "IllConditionedPencil", "SvdFailure", "BadShape")


def _cells(a, *_, **__) -> int:
    shape = getattr(a, "shape", ())
    return int(shape[0] * shape[1]) if len(shape) == 2 else 0


def _points(x, *_, **__) -> int:
    return len(x)


def _file_bytes(path, *_, **__) -> int:
    return os.path.getsize(path)


# (module, attribute the caller resolves, span name, work counted from args)
PATCHES = (
    ("sparsespec.cli", "main", "cli.main", None),
    ("sparsespec.cli", "read_signal_csv", "fileio.read_signal_csv",
     _file_bytes),
    ("sparsespec.cli", "read_config", "fileio.read_config", None),
    ("sparsespec.cli", "write_components_csv",
     "fileio.write_components_csv", None),
    ("sparsespec.cli", "analyze", ANALYZE, None),
    ("sparsespec.pipeline", "analyze", ANALYZE, None),
    ("sparsespec.pipeline", "build_prony_sequences",
     "pipeline.build_prony_sequences", None),
    ("sparsespec.pipeline", "shifted_coeffs_shortcut",
     "pipeline.shifted_coeffs_shortcut", None),
    ("sparsespec.pipeline", "extract_streams", "core.extract_streams", None),
    ("sparsespec.pipeline", "dft", "core.dft", _points),
    ("sparsespec.pipeline", "select_peaks", "core.select_peaks", None),
    ("sparsespec.pipeline", "estimate_order", "prony.estimate_order", None),
    ("sparsespec.pipeline", "pencil_decompose", "prony.pencil_decompose",
     None),
    ("sparsespec.pipeline", "model_residual", "prony.model_residual", None),
    ("sparsespec.pipeline", "svd_small", "prony.svd_small", _cells),
    ("sparsespec.prony", "svd_small", "prony.svd_small", _cells),
    ("sparsespec.pipeline", "candidate_set", "aliasing.candidate_set", None),
    ("sparsespec.pipeline", "resolve_match", "aliasing.resolve_match", None),
    ("sparsespec.pipeline", "resolve_bezout", "aliasing.resolve_bezout",
     None),
)

# Span field positions.
NAME, START, END, PARENT, RECORD, ERROR, WORK = range(7)


class Tracer:
    """Context manager that installs the span wrappers and removes them.

    ``record`` is set by the caller before each record so that spans of one
    record share an id. ``diagnostics`` collects the ``diagnostics`` dict of
    every ``analyze`` result, the counts taken at that boundary.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.diagnostics: list[dict] = []
        self.record = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, name, work in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, work))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn, work):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # svd_small recurses through its own module attribute for wide
            # matrices; one public call is one span.
            if stack and spans[stack[-1]][NAME] == name:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.record,
                    None, work(*args, **kwargs) if work else 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if name == ANALYZE:
                self.diagnostics.append(result.diagnostics)
            return result

        return traced

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, self seconds, work units, raised counts."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        out: dict[str, dict] = defaultdict(lambda: {
            "calls": 0, "self_s": 0.0, "work": 0,
            "raised": defaultdict(int)})
        for span, child in zip(self.spans, covered):
            entry = out[span[NAME]]
            entry["calls"] += 1
            entry["self_s"] += span[END] - span[START] - child
            entry["work"] += span[WORK]
            if span[ERROR] is not None:
                entry["raised"][span[ERROR]] += 1
        return out

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["name", "start_s", "end_s", "parent", "record",
                          "error", "work"])
            out.writerows(self.spans)


def layer_metrics(tracer: Tracer, records: int) -> dict[str, float]:
    """Per-record layer figures from one traced segment of ``records``."""
    stats = tracer.summary()

    def per_record(value: float) -> float:
        return value / records

    def self_ms(name: str) -> float:
        return per_record(1e3 * stats[name]["self_s"]) if name in stats \
            else 0.0

    def calls(name: str) -> float:
        return per_record(stats[name]["calls"]) if name in stats else 0.0

    def ok_share(name: str) -> float:
        # 1.0 when never called: no call failed.
        if name not in stats:
            return 1.0
        entry = stats[name]
        return 1.0 - sum(entry["raised"].values()) / entry["calls"]

    def work(name: str) -> float:
        return per_record(stats[name]["work"]) if name in stats else 0.0

    diags = tracer.diagnostics
    peak_bins = sum(len(d["peak_bins"]) for d in diags)
    failures: dict[str, int] = defaultdict(int)
    for d in diags:
        for failure in d["failures"]:
            failures[failure["error"]] += 1
    gathered = sum(sum(d["per_stream_samples"]) for d in diags)

    m = {
        "prony.svd_small.self_ms": self_ms("prony.svd_small"),
        "prony.svd_small.calls": calls("prony.svd_small"),
        "prony.svd_small.cells": work("prony.svd_small"),
        "prony.estimate_order.self_ms": self_ms("prony.estimate_order"),
        "prony.pencil_decompose.self_ms": self_ms("prony.pencil_decompose"),
        "prony.pencil_decompose.calls": calls("prony.pencil_decompose"),
        "prony.model_residual.self_ms": self_ms("prony.model_residual"),
        "pipeline.analyze.self_ms": self_ms(ANALYZE),
        "pipeline.build_prony_sequences.self_ms":
            self_ms("pipeline.build_prony_sequences"),
        "pipeline.shifted_coeffs_shortcut.self_ms":
            self_ms("pipeline.shifted_coeffs_shortcut"),
        "pipeline.shifted_coeffs_shortcut.calls":
            calls("pipeline.shifted_coeffs_shortcut"),
        "pipeline.peak_bins": per_record(peak_bins),
        "pipeline.shortcut_fallbacks":
            per_record(sum(d["shortcut_fallbacks"] for d in diags)),
        "pipeline.bins_failed_share":
            sum(failures.values()) / peak_bins if peak_bins else 0.0,
        "core.extract_streams.self_ms": self_ms("core.extract_streams"),
        "core.extract_streams.calls": calls("core.extract_streams"),
        "core.dft.self_ms": self_ms("core.dft"),
        "core.dft.calls": calls("core.dft"),
        "core.dft.points": work("core.dft"),
        "core.select_peaks.self_ms": self_ms("core.select_peaks"),
        # Computed, not measured: samples gathered x 16 B per complex128.
        "core.gather_bytes": per_record(16.0 * gathered),
        "fileio.read_signal_csv.self_ms": self_ms("fileio.read_signal_csv"),
        "fileio.read_signal_csv.bytes": work("fileio.read_signal_csv"),
        "fileio.read_config.self_ms": self_ms("fileio.read_config"),
        "fileio.write_components_csv.self_ms":
            self_ms("fileio.write_components_csv"),
        "cli.main.self_ms": self_ms("cli.main"),
    }
    for name in ("candidate_set", "resolve_match", "resolve_bezout"):
        m[f"aliasing.{name}.self_ms"] = self_ms(f"aliasing.{name}")
        m[f"aliasing.{name}.calls"] = calls(f"aliasing.{name}")
        m[f"aliasing.{name}.ok_share"] = ok_share(f"aliasing.{name}")
    for name in BIN_FAILURES:
        m[f"pipeline.failures.{name}"] = per_record(failures[name])
    return m
