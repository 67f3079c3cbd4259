"""Spans recorded from outside the program.

The tracer replaces, for the length of a traced pass, the names that
fsspack's own modules call through: the functions `engine` imported from
its siblings, `minimize` as bound in `solver`, and three `NlpProblem`
methods.  Each call then records a span (name, start, end, parent,
attributes) in memory.  Nothing under `src/` is edited, and every name
is put back afterwards.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from types import MappingProxyType

import fsspack.engine
import fsspack.formulation
import fsspack.solver

# (owner, attribute, span name).  The owner is the module or class whose
# attribute the caller looks up at call time.
TARGETS = (
    (fsspack.engine, "run_replication", "engine.run_replication"),
    (fsspack.engine, "prune_pairs", "engine.prune_pairs"),
    (fsspack.engine, "build_nlp", "engine.build_nlp"),
    (fsspack.engine, "solve", "engine.solve"),
    (fsspack.engine, "correct_radius", "engine.correct_radius"),
    (fsspack.engine, "verify_layout", "engine.verify_layout"),
    (fsspack.solver, "minimize", "solver.minimize"),
    (fsspack.formulation.NlpProblem, "augmented_lagrangian", "formulation.augmented_lagrangian"),
    (fsspack.formulation.NlpProblem, "lagrangian_gradient", "formulation.lagrangian_gradient"),
    (fsspack.formulation.NlpProblem, "linear_violations", "formulation.linear_violations"),
)


def _solve_attrs(result) -> dict:
    return {"outer_iterations": result.outer_iterations, "status": result.status}


def _build_attrs(problem) -> dict:
    return {"rows": problem.m, "n": problem.n}


# Attributes taken from a call's return value, for the spans that need them.
RESULT_ATTRS = {"engine.solve": _solve_attrs, "engine.build_nlp": _build_attrs}

# Shared by every span without attributes, so hot spans allocate no dict.
_NO_ATTRS = MappingProxyType({})


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: float, end: float, parent: int, attrs: dict | None = None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.attrs = attrs if attrs else _NO_ATTRS

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index, attrs)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        return index

    def _close(self, index: int, attrs: dict | None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        if attrs:
            span.attrs = attrs
        self._stack.pop()

    def wrap(self, fn, name: str):
        open_, close = self._open, self._close
        result_attrs = RESULT_ATTRS.get(name)

        def traced(*args, **kwargs):
            index = open_(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                close(index, result_attrs(result) if result_attrs and result is not None else None)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name))

    def uninstall(self) -> list[str]:
        """Put every wrapped name back; returns the names not restored."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        missing = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._saved
            if owner.__dict__[attr] is not original
        ]
        self._saved.clear()
        return missing

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps([span.name, span.start, span.end, span.parent, dict(span.attrs)]) + "\n")


def children_of(spans: list[Span]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent >= 0:
            kids[span.parent].append(index)
    return kids


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children's intervals are clipped to the parent and merged, so
    overlapping or out-of-range children are not counted twice.
    """
    kids = children_of(spans)
    out = []
    for span, own in zip(spans, kids):
        covered = 0.0
        cursor = span.start
        for lo, hi in sorted((spans[k].start, spans[k].end) for k in own):
            lo, hi = max(lo, cursor), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.duration - covered)
    return out
