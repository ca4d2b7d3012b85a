"""Per-module tracing for the benchmark's traced runs.

The program has no tracing of its own yet, so the tracer replaces the
public functions of each module, at the names their callers bind, by
wrappers that record a span around every call: its wall time, a call
count and, for LPs, the tableau size.  Spans nest; each span adds its
duration to the enclosing span's per-module child time, from which the
self times below are derived.  ``remove`` restores every original.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

# (module the caller lives in, name it binds, span name).  A function is
# wrapped once for every module that imported it, because
# ``from .simplex import solve_standard`` copies the reference.
WRAP_POINTS = [
    ("measurement_polytope", "enumerate_vertices", "measurement_polytope.enumerate_vertices"),
    ("measurement_polytope", "row_reduce_equalities", "linalg.row_reduce_equalities"),
    ("ncsystem", "build_f2", "ncsystem.build_f2"),
    ("feasibility", "build_f2", "ncsystem.build_f2"),
    ("feasibility", "bind_table", "ncsystem.bind_table"),
    ("feasibility", "validate_table", "scenario.validate_table"),
    ("feasibility", "check_table", "feasibility.check_table"),
    ("feasibility", "farkas_certificate", "feasibility.farkas_certificate"),
    ("feasibility", "certificate_to_inequality", "feasibility.certificate_to_inequality"),
    ("feasibility", "solve_standard", "simplex.solve_standard"),
    ("projection", "project_to_nc_polytope", "projection.project_to_nc_polytope"),
    ("projection", "solve_standard", "simplex.solve_standard"),
    ("projection", "minimize_over_rows", "simplex.minimize_over_rows"),
    ("projection", "row_reduce_equalities", "linalg.row_reduce_equalities"),
    ("projection", "rref", "linalg.rref"),
    ("projection", "reduce_modulo", "linalg.reduce_modulo"),
    ("projection", "canonicalize_row", "linalg.canonicalize_row"),
    ("simplex", "solve_standard", "simplex.solve_standard"),
    ("symmetry", "generate_group", "symmetry.generate_group"),
    ("symmetry", "classify_orbits", "symmetry.classify_orbits"),
    ("symmetry", "act_on_row", "symmetry.act_on_row"),
    ("symmetry", "rref", "linalg.rref"),
    ("symmetry", "reduce_modulo", "linalg.reduce_modulo"),
]

# Spans whose statistics are split by the module that caused the call.
BY_CALLER = {"simplex.solve_standard", "simplex.minimize_over_rows"}
CALLERS = ("projection", "feasibility")

# check_table time that is not the phase-1 LP.
NOT_PHASE1 = {"feasibility.farkas_certificate",
              "feasibility.certificate_to_inequality",
              "ncsystem.build_f2", "ncsystem.bind_table",
              "scenario.validate_table"}


def _lp_cells(A, b, c):
    return len(A) * len(c)


class Tracer:
    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.cells = defaultdict(int)
        self._stack = []
        self._patched = []

    def install(self, package) -> None:
        for module_name, attr, span_name in WRAP_POINTS:
            module = getattr(package, module_name)
            original = getattr(module, attr)
            cells = _lp_cells if span_name == "simplex.solve_standard" else None
            setattr(module, attr, self._wrapper(original, span_name, cells))
            self._patched.append((module, attr, original))

    def remove(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrapper(self, original, span_name, cells):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(span_name, cells(*args) if cells else 0):
                return original(*args, **kwargs)
        return traced

    def _caller(self) -> str:
        for frame in reversed(self._stack):
            module = frame[0].split(".")[0]
            if module in CALLERS:
                return module
        return "other"

    @contextmanager
    def span(self, name, cells=0):
        key = f"{name}.by_{self._caller()}" if name in BY_CALLER else name
        children = defaultdict(float)
        self._stack.append((name, children))
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self.seconds[key] += elapsed
            self.calls[key] += 1
            self.cells[key] += cells
            if self._stack:
                self._stack[-1][1][name] += elapsed
            if name == "projection.project_to_nc_polytope":
                self.seconds["projection.self"] += elapsed - sum(
                    t for child, t in children.items()
                    if child.split(".")[0] in ("simplex", "linalg"))
            elif name == "feasibility.check_table":
                self.seconds["feasibility.phase1"] += elapsed - sum(
                    t for child, t in children.items() if child in NOT_PHASE1)

    def snapshot(self) -> dict:
        return {"seconds": dict(self.seconds), "calls": dict(self.calls),
                "cells": dict(self.cells)}
