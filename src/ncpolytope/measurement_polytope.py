"""The noncontextual measurement-assignment polytope and its vertices.

The H-representation couples positivity of every response-function value,
per-measurement normalization, and one equality per measurement operational
equivalence.  Vertices are enumerated exactly by the double description
method (:mod:`.dd`): the normalization/OE equalities are substituted away
first (so the iteration starts on the affine subspace), then the positivity
rows are inserted incrementally.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dd import vertices
from .linalg import (EQ, GEQ, ONE, ZERO, InconsistentSystem, InternalError,
                     LinearSystem, LinRow, dense_row, row_reduce_equalities)
from .scenario import DimensionMismatch, Scenario


class EmptyPolytope(Exception):
    """The OE_M equalities are inconsistent with positivity/normalization."""


def xi_var(i, m) -> tuple:
    return ("xi", i, m)


@dataclass
class HPolytope:
    variables: list  # the l*d xi variables in canonical (i, m) order
    system: LinearSystem


@dataclass
class VertexSet:
    """Extremal measurement assignments, lexicographically sorted.

    ``vertices[k]`` is a dict xi-var -> Fraction; kappa indices are the
    1-based positions in this canonical order.
    """

    variables: list
    vertices: list

    def __len__(self):
        return len(self.vertices)

    def component(self, kappa, i, m) -> Fraction:
        return self.vertices[kappa - 1][xi_var(i, m)]

    def as_tuples(self) -> list:
        return [tuple(v[var] for var in self.variables) for v in self.vertices]


def build_measurement_h(scn: Scenario) -> HPolytope:
    """Positivity, normalization, and OE_M rows over the xi coordinates."""
    variables = [xi_var(i, m) for (i, m) in scn.effects()]
    rows = [LinRow({v: ONE}, ZERO, GEQ) for v in variables]
    for i in scn.measurements():
        rows.append(LinRow({xi_var(i, m): ONE for m in scn.outcomes()}, -ONE, EQ))
    for eq in scn.oe_m:
        diff = eq.difference()
        rows.append(LinRow({xi_var(i, m): w for (i, m), w in diff.items()}, ZERO, EQ))
    return HPolytope(variables, LinearSystem(variables, rows))


def membership(h: HPolytope, point: dict):
    """Return None if the point is inside, else one violated row."""
    if set(point) != set(h.variables):
        raise DimensionMismatch("point does not match the xi coordinates")
    for row in h.system.rows:
        if not row.satisfied_by(point):
            return row
    return None


def enumerate_vertices(h: HPolytope) -> VertexSet:
    """All extremal points of the H-polytope, exact and canonically ordered."""
    try:
        subs, reduced = row_reduce_equalities(h.system)
    except InconsistentSystem as exc:
        raise EmptyPolytope(str(exc)) from exc
    free = reduced.variables
    if not free:
        point = {v: const for v, (coeffs, const) in subs.items()}
        for row in reduced.rows:
            if row.const < 0:
                raise EmptyPolytope("equalities force a point violating positivity")
        return VertexSet(h.variables, [point])
    # Dense integer inequalities a.y + a0 >= 0 over the free coordinates.
    ineqs = []
    for q in (dense_row(row, free) for row in reduced.rows):
        if any(q[:-1]):
            ineqs.append(q)
        elif q[-1] < 0:
            raise EmptyPolytope("constant row violated")
    try:
        raw = vertices(ineqs, len(free))
    except ValueError as exc:   # the 0 <= xi <= 1 rows bound the region
        raise InternalError(f"measurement polytope: {exc}") from exc
    if not raw:
        raise EmptyPolytope("no point satisfies all rows")
    points = []
    for ys, t in raw:
        point = {v: Fraction(a, t) for v, a in zip(free, ys)}
        for v, (coeffs, const) in subs.items():
            point[v] = sum((c * point[w] for w, c in coeffs.items()), const)
        points.append(point)
    points.sort(key=lambda p: tuple(p[v] for v in h.variables))
    return VertexSet(h.variables, points)
