"""Vertices of H-polytopes, and the measurement-assignment polytope.

:func:`enumerate_vertices` returns the vertices of any bounded
:class:`.linalg.LinearSystem` exactly: it reduces the equalities away on
dense integer rows, runs the double description method (:mod:`.dd`) on
the free coordinates they leave, and reads each eliminated coordinate off
its pivot row at every vertex.  It serves the measurement-assignment
polytope built here (positivity, per-measurement normalization and one
equality per measurement operational equivalence).  An empty system is
:class:`EmptyPolytope`; an unbounded one is the kernel's InternalError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .dd import vertices
from .linalg import (EQ, GEQ, ONE, ZERO, InconsistentSystem, InputError,
                     LinearSystem, LinRow, dense_row, primitive, reduce_row,
                     row_reduce_equalities)
from .scenario import Scenario


class EmptyPolytope(InputError):
    """No point satisfies every row of the H-system."""


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


def build_measurement_h(scn: Scenario) -> LinearSystem:
    """Positivity, normalization, and OE_M rows over the xi coordinates."""
    variables = [xi_var(i, m) for (i, m) in scn.effects()]
    rows = [LinRow({v: ONE}, ZERO, GEQ) for v in variables]
    for i in scn.measurements():
        rows.append(LinRow({xi_var(i, m): ONE for m in scn.outcomes()}, -ONE, EQ))
    for eq in scn.oe_m:
        diff = eq.difference()
        rows.append(LinRow({xi_var(i, m): w for (i, m), w in diff.items()}, ZERO, EQ))
    return LinearSystem(variables, rows)


def enumerate_vertices(h: LinearSystem) -> VertexSet:
    """All vertices of a bounded H-polytope, exact and canonically ordered."""
    n = len(h.variables)
    try:
        pivots = row_reduce_equalities([dense_row(r, h.variables)
                                        for r in h.eq_rows()])
    except InconsistentSystem as exc:
        raise EmptyPolytope(str(exc)) from exc
    free = [k for k in range(n) if k not in pivots]
    # Dense integer inequalities a.y + a0 >= 0 over the free coordinates.
    ineqs = []
    for row in h.geq_rows():
        row = reduce_row(dense_row(row, h.variables), pivots)
        q = primitive([row[k] for k in free] + [row[-1]])
        if any(q[:-1]):
            ineqs.append(q)
        elif q[-1] < 0:
            raise EmptyPolytope("constant row violated")
    raw = vertices(ineqs, len(free))   # callers' systems are bounded
    if not raw:
        raise EmptyPolytope("no point satisfies all rows")
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
    return VertexSet(h.variables, [dict(zip(h.variables, x)) for x in points])
