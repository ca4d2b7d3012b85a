"""Vertices of systems in standard form, and the measurement polytope.

The measurement-assignment polytope is in standard form: xi >= 0, each
measurement's outcomes sum to 1, and each measurement equivalence holds.
:func:`build_measurement_h` builds its equalities as dense integer rows,
and stops with LimitExceeded before any row exists when they and the
xi >= 0 rows would hold more than :data:`.linalg.DENSE_CAP` entries.
:func:`enumerate_vertices` returns the vertices of any bounded system in
standard form exactly: it reduces the equalities away, runs the double
description method (:mod:`.dd`) on xi >= 0 over the free coordinates
they leave, and reads each eliminated coordinate off its pivot row.  The
uniform assignment keeps every convex equivalence, so a valid scenario
always has a vertex, and "no vertex" is the kernel's InternalError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .dd import vertices
from .linalg import (DENSE_CAP, ZERO, LimitExceeded, int_row, positivity_rows,
                     row_reduce_equalities)
from .scenario import Scenario


def xi_var(i, m) -> tuple:
    return ("xi", i, m)


@dataclass
class VertexSet:
    """Vertices of an H-polytope, lexicographically sorted.

    ``vertices[k]`` is a dict variable -> Fraction over ``variables``.  For
    the measurement polytope these are the extremal measurement
    assignments, and kappa indices are the 1-based positions in this
    canonical order.
    """

    variables: list
    vertices: list

    def __len__(self):
        return len(self.vertices)

    def component(self, kappa, i, m) -> Fraction:
        return self.vertices[kappa - 1][xi_var(i, m)]

    def as_tuples(self) -> list:
        return [tuple(v[var] for var in self.variables) for v in self.vertices]


def build_measurement_h(scn: Scenario):
    """The measurement polytope in standard form over the xi coordinates.

    Returns ``(variables, equalities)``, the rows coprime ints over
    ``variables`` with the constant last: the normalization rows, then
    one row per OE_M.  Every coordinate is nonnegative.
    """
    n = scn.l * scn.d
    rows = n + scn.l + len(scn.oe_m)
    if rows * (n + 1) > DENSE_CAP:
        raise LimitExceeded(f"measurement vertices: {rows} rows of "
                            f"{n + 1} columns exceed {DENSE_CAP} entries")
    effects = list(scn.effects())
    equalities = [tuple(int(i == e[0]) for e in effects) + (-1,)
                  for i in scn.measurements()]
    for eq in scn.oe_m:
        diff = eq.difference()
        equalities.append(int_row([diff.get(e, ZERO) for e in effects]
                                  + [ZERO]))
    return [xi_var(i, m) for i, m in effects], equalities


def enumerate_vertices(h) -> VertexSet:
    """All vertices of a bounded system in standard form, ``(variables,
    equalities)`` of dense int rows over nonnegative ``variables``, exact
    and canonically ordered."""
    variables, equalities = h
    n = len(variables)
    pivots = row_reduce_equalities(equalities)
    free = [k for k in range(n) if k not in pivots]
    raw = vertices(positivity_rows(pivots, range(n), free), len(free),
                   "measurement vertices")
    points = []
    for ray in raw:
        # a pivot coordinate is -p . (b, t) / (p[col] * t), with b set to 0
        # on the pivot columns
        t, full = ray[-1], [0] * n + [ray[-1]]
        for k, b in zip(free, ray):
            full[k] = b
        x = [Fraction(b, t) for b in full[:-1]]
        for col, p in pivots.items():
            x[col] = Fraction(-sum(map(mul, p, full)), p[col] * t)
        points.append(x)
    points.sort()
    return VertexSet(variables, [dict(zip(variables, x)) for x in points])
