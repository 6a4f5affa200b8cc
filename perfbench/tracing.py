"""Spans around the public functions of every ``oplearn`` module.

The wrappers are installed from outside the package: each public function
is replaced at every module attribute that refers to it, so calls resolved
through a name imported elsewhere (``cli`` imports ``load_dataset``,
``moments`` imports ``fit_ols``) are traced too. Spans stay in memory until
the traced run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYERS = ("cli", "data", "moments", "regression", "policies", "values", "reporting", "simulate")

# Called once per table cell; a span each would cost more than the cell.
UNTRACED = {"reporting.fmt"}


def _size(path) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def _manifest_bytes(args, kwargs, ret) -> dict:
    outdir = args[0] if args else kwargs["outdir"]
    hashed = sum(_size(outdir / name) for name in kwargs["artifact_names"])
    if kwargs.get("input_path"):
        hashed += _size(kwargs["input_path"])
    return {"bytes": hashed}


def _rows(rows) -> dict:
    return {"rows": len(rows)} if hasattr(rows, "__len__") else {}


# Counters taken from a call's arguments or return value after its span ends.
COUNTERS = {
    "data.load_dataset": lambda a, k, r: {"bytes": _size(a[0]), "rows": r.n_units},
    "data.save_dataset": lambda a, k, r: {"bytes": _size(a[1]), "rows": a[0].n_units},
    "reporting.write_csv": lambda a, k, r: {"bytes": _size(a[0]), **_rows(a[2])},
    "reporting.write_json": lambda a, k, r: {"bytes": _size(a[0])},
    "reporting.read_csv": lambda a, k, r: {"bytes": _size(a[0]), "rows": len(r[1])},
    "reporting.write_manifest": _manifest_bytes,
    "reporting.scatter_svg": lambda a, k, r: {"bytes": len(r), "rows": len(a[0])},
    "regression.fit_mnlogit": lambda a, k, r: {"iterations": r.iterations},
    "moments.build_arm_moments": lambda a, k, r: {
        "clamped": int(r.clamped.sum()),
        "cells": int(r.clamped.size),
    },
    "values.clip_propensities": lambda a, k, r: {"clipped": r.clipped_count},
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: tuple
    counters: dict = field(default_factory=dict)


class Tracer:
    """Records one span per traced call; ``request`` tags the spans of one
    (workload, run, command) and is set by the caller between commands."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.request: tuple = ()
        self.patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(name, self.clock(), 0.0, parent, self.request)
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        self.stack.pop()

    @contextmanager
    def command(self, request: tuple):
        """Root span ``pipeline.<command>`` for one request of the run."""
        self.request = request
        span = self._open(f"pipeline.{request[-1]}")
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                ret = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span.counters = counter(args, kwargs, ret)
            return ret

        return traced

    def install(self) -> None:
        """Wrap every public function of every layer."""
        modules = [importlib.import_module("oplearn")]
        modules += [importlib.import_module(f"oplearn.{layer}") for layer in LAYERS]
        for layer in LAYERS:
            module = importlib.import_module(f"oplearn.{layer}")
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or name in UNTRACED
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                wrapper = self.wrap(name, fn)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self.patched.append((holder, key, fn))
                            setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        """Put back every function that ``install`` replaced."""
        for holder, key, fn in reversed(self.patched):
            setattr(holder, key, fn)
        self.patched.clear()


def aggregate(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per function: calls, busy_s, self_s and summed counters.

    Self time is a span's duration minus its direct children's; the process
    is single-threaded, so children never overlap each other.
    """
    child_time = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    )
    for i, span in enumerate(spans):
        row = out[span.name]
        busy = span.end - span.start
        row["calls"] += 1
        row["busy_s"] += busy
        row["self_s"] += busy - child_time[i]
        for key, value in span.counters.items():
            row[key] = row.get(key, 0) + value
    return dict(out)


def nesting_errors(spans: list[Span]) -> int:
    """Spans that leave their parent's interval or overlap an earlier sibling.

    With none, the self times of a command's spans add up to its busy time.
    """
    errors = 0
    last_end: dict[int | None, float] = {}
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            errors += not (parent.start <= span.start <= span.end <= parent.end)
        errors += span.start < last_end.get(span.parent, float("-inf"))
        last_end[span.parent] = span.end
    return errors
