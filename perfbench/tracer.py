"""In-memory span tracer that wraps library functions from outside.

The package imports names directly (``from .windows import square_function``),
so a wrapper only sees every call if it replaces the function at every module
that holds it.  :meth:`Tracer.install` rebinds each target in every loaded
``ostrovsky_lab`` module and then fails loudly when a target no longer exists
or a reference to an original function survives anywhere it looks.

A span records its name, start, end, parent span, thread and the id of the
CLI invocation it belongs to.  Self time is a span's duration minus the time
its children cover on the same thread; the callable handed to
``parallel_map`` gets its own ``parallel.item`` span whose parent is the
``parallel_map`` span, even when it runs on a worker thread.

This module imports neither numpy nor the package, so a traced process can
time the package import itself.
"""

from __future__ import annotations

import inspect
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

PACKAGE = "ostrovsky_lab"


class TracerError(RuntimeError):
    """The tracer could not cover a target; the benchmark must not report."""


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    invocation: int


def _cells_xi_x(bound) -> dict:
    """Exponentials of one synthesis: n_xi * n_x (computed, not measured)."""
    a = bound.arguments
    return {"cells": a["p"].n * a["grid"].n}


def _cells_maximal_scan(bound) -> dict:
    a = bound.arguments
    return {"cells": a["n_t"] * a["grid"].n * a["p"].n}


def _refused(bound, result) -> dict:
    return {"refused": 0 if result.ok else 1}


def _values(bound, result) -> dict:
    return {"values": int(result.size)}


def _reports(bound, result) -> dict:
    return {"reports": len(result),
            "skipped": sum(1 for r in result if "skip" in r.params)}


def _bytes_read(bound) -> dict:
    return {"bytes": os.path.getsize(bound.arguments["path"])}


def _bytes_written(bound, result) -> dict:
    return {"bytes": os.path.getsize(bound.arguments["path"])}


@dataclass(frozen=True)
class Target:
    """One library function to wrap, with optional counters.

    ``before`` sees the bound arguments; ``after`` also sees the result.
    Both return counter increments keyed by stat name.
    """

    module: str
    function: str
    before: Callable | None = None
    after: Callable | None = None

    @property
    def span_name(self) -> str:
        return f"{self.module}.{self.function}"


TARGETS = (
    Target("spectral", "synthesize", before=_cells_xi_x),
    Target("spectral", "propagate"),
    Target("spectral", "evolve_spectral"),
    Target("spectral", "validate_resolution", after=_refused),
    Target("windows", "square_function", before=_cells_xi_x),
    Target("windows", "wiener_decompose"),
    Target("windows", "wiener_project"),
    Target("lemmas", "run_corpus", after=_reports),
    Target("lemmas", "check_low_frequency"),
    Target("lemmas", "check_high_frequency"),
    Target("lemmas", "check_wiener_low"),
    Target("lemmas", "check_square_function"),
    Target("lemmas", "bernstein_report"),
    Target("lemmas", "norm_equivalence_reports"),
    Target("parallel", "parallel_map"),
    Target("rough", "maximal_scan", before=_cells_maximal_scan),
    Target("rough", "counterexample_ratio"),
    Target("rough", "convergence_trace"),
    Target("randomized", "gaussian_coefficients", after=_values),
    Target("randomized", "stochastic_continuity"),
    Target("randomized", "khinchine_check"),
    Target("corpus", "default_corpus"),
    Target("corpus", "observation_grid"),
    Target("fileio", "read_profile", before=_bytes_read),
    Target("fileio", "write_field", after=_bytes_written),
    Target("fileio", "write_reports", after=_bytes_written),
    Target("cli", "parse_config"),
    Target("cli", "dispatch"),
)

ITEM_SPAN = "parallel.item"


class Tracer:
    """Wraps :data:`TARGETS` while installed and keeps spans and counts."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.invocation = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._bindings: list[tuple[object, str, object]] = []  # (module, attr, original)

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count(self, name: str, increments: dict) -> None:
        with self._lock:
            for stat, value in increments.items():
                self.counts[f"{name}.{stat}"] += value

    def _run(self, name: str, fn, args, kwargs, parent=None, span_id=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if span_id is None:
            span_id = next(self._ids)
        invocation = self.invocation
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent,
                                   threading.get_ident(), invocation))

    def _wrap(self, target: Target, original):
        tracer = self
        name = target.span_name
        signature = inspect.signature(original)

        if name == "parallel.parallel_map":
            def wrapper(fn, items, *args, **kwargs):
                tracer._count(name, {"calls": 1})
                map_id = next(tracer._ids)

                def item(value):
                    tracer._count(ITEM_SPAN, {"calls": 1})
                    return tracer._run(ITEM_SPAN, fn, (value,), {}, parent=map_id)

                return tracer._run(name, original, (item, items) + args, kwargs,
                                   span_id=map_id)
        else:
            def wrapper(*args, **kwargs):
                bound = None
                if target.before or target.after:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                increments = {"calls": 1}
                if target.before:
                    increments.update(target.before(bound))
                result = tracer._run(name, original, args, kwargs)
                if target.after:
                    increments.update(target.after(bound, result))
                tracer._count(name, increments)
                return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = original.__name__
        return wrapper

    # -- installation --------------------------------------------------------

    @staticmethod
    def _package_modules() -> list:
        return [module for name, module in sorted(sys.modules.items())
                if module is not None
                and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self) -> None:
        """Rebind every target at every module that holds it."""
        if self._bindings:
            raise TracerError("tracer is already installed")
        modules = self._package_modules()
        for target in self.targets:
            home = sys.modules.get(f"{PACKAGE}.{target.module}")
            original = getattr(home, target.function, None) if home else None
            if not callable(original):
                raise TracerError(f"traced name {target.span_name} no longer exists")
            wrapper = self._wrap(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._bindings.append((module, attr, original))
        self._check_no_stale_references(modules)

    def _check_no_stale_references(self, modules) -> None:
        """No module global, nor any value inside a module-level container,
        may still hold an unwrapped target."""
        originals = {id(orig): f"{mod.__name__}.{attr}"
                     for mod, attr, orig in self._bindings}
        for module in modules:
            for attr, value in vars(module).items():
                held = [value]
                if isinstance(value, dict):
                    held = list(value.values())
                elif isinstance(value, (list, tuple, set, frozenset)):
                    held = list(value)
                for item in held:
                    if id(item) in originals:
                        self.uninstall()
                        raise TracerError(
                            f"{module.__name__}.{attr} holds {originals[id(item)]} "
                            "where the tracer cannot rebind it")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(float)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child_time: dict[int, float] = defaultdict(float)
        by_id = {span.span_id: span for span in self.spans}
        for span in self.spans:
            parent = by_id.get(span.parent)
            if parent is not None and parent.thread == span.thread:
                child_time[parent.span_id] += span.end - span.start
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += (span.end - span.start) - child_time[span.span_id]
        return dict(totals)

    def durations(self) -> dict[str, float]:
        """Summed inclusive duration per span name."""
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.end - span.start
        return dict(totals)
