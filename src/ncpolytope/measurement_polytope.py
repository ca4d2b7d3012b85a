"""Vertices of H-polytopes, and the measurement-assignment polytope.

:func:`free_vertices` returns the vertices of any bounded
:class:`.linalg.LinearSystem` exactly, as integer points over the
coordinates its equalities leave free, by the double description method
(:mod:`.dd`) on the affine subspace those equalities cut out; the
projection's hull route maps the vertex-distribution polytope's points
from there.  :func:`enumerate_vertices` writes them out over every
coordinate, for the measurement-assignment polytope built here
(positivity, per-measurement normalization and one equality per
measurement operational equivalence).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .dd import vertices
from .linalg import (EQ, GEQ, ONE, ZERO, InconsistentSystem, InternalError,
                     LinearSystem, LinRow, dense_row, over_common_denominator,
                     row_reduce_equalities)
from .scenario import Scenario


class EmptyPolytope(Exception):
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


def free_vertices(h: LinearSystem):
    """The vertices of a bounded H-polytope over its free coordinates.

    Returns ``(subs, free, raw)``: the equality substitutions of
    :func:`.linalg.row_reduce_equalities`, the coordinates they leave
    free, and the vertices as the double description kernel gives them,
    rational points ``(ys, t)`` over ``free``.
    """
    try:
        subs, reduced = row_reduce_equalities(h)
    except InconsistentSystem as exc:
        raise EmptyPolytope(str(exc)) from exc
    free = reduced.variables
    # Dense integer inequalities a.y + a0 >= 0 over the free coordinates.
    ineqs = []
    for q in (dense_row(row, free) for row in reduced.rows):
        if any(q[:-1]):
            ineqs.append(q)
        elif q[-1] < 0:
            raise EmptyPolytope("constant row violated")
    try:
        raw = vertices(ineqs, len(free))
    except ValueError as exc:   # callers' systems are bounded
        raise InternalError(f"vertex enumeration: {exc}") from exc
    if not raw:
        raise EmptyPolytope("no point satisfies all rows")
    return subs, free, raw


def enumerate_vertices(h: LinearSystem) -> VertexSet:
    """All vertices of a bounded H-polytope, exact and canonically ordered."""
    subs, free, raw = free_vertices(h)
    # Each eliminated coordinate as ints over the free ones and a constant.
    exprs = [(v, over_common_denominator([coeffs.get(w, ZERO) for w in free]
                                         + [const]))
             for v, (coeffs, const) in subs.items()]
    points = []
    for ys, t in raw:
        point = {v: Fraction(a, t) for v, a in zip(free, ys)}
        for v, (ints, den) in exprs:
            point[v] = Fraction(sum(map(mul, ints, ys)) + ints[-1] * t, den * t)
        points.append(point)
    points.sort(key=lambda p: tuple(p[v] for v in h.variables))
    return VertexSet(h.variables, points)
