"""Projection of the vertex-distribution system onto data-table space.

Eliminating the distribution unknowns from the finite system yields the
generalized-noncontextual polytope: every data table admitting a
noncontextual model satisfies its affine-hull equalities exactly and all of
its facet inequalities, and conversely.

The pipeline substitutes the equality rows of
:meth:`.ncsystem.F2System.system` away first (preferring to eliminate
distribution variables, so data-table coordinates stay free wherever
possible).  Small systems then remove the remaining distribution
variables one at a time by Fourier-Motzkin elimination, running an exact-LP
irredundancy pass after every elimination step to keep the intermediate row
count at the true facet count.  Larger systems take the hull route instead:
the distribution-polytope vertices are mapped into table space by the
finite system's own dense linking rows (:attr:`.ncsystem.F2System.eq_matrix`),
and the image points, with no filtering, go through a polar double
description (:mod:`.dd`) that returns the facets of their hull.  The
distribution-polytope vertices come from
:func:`.measurement_polytope.enumerate_vertices`, the enumerator of every
H-polytope in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dd import hull_facets
from .linalg import (EQ, GEQ, ONE, ZERO, InternalError, LinRow, LinearSystem,
                     canonicalize_row, dense_row, over_common_denominator,
                     primitive, reduce_modulo, rref, row_reduce_equalities,
                     substitution_map)
from .measurement_polytope import enumerate_vertices
from .ncsystem import LINKING, F2System, dot
from .simplex import OPTIMAL, minimize_over_rows
# Unused here; kept importable because tracing wraps projection.solve_standard.
from .simplex import solve_standard  # noqa: F401


@dataclass
class NCPolytope:
    """Affine-hull equalities plus irredundant facets over p-coordinates.

    ``equalities`` are in reduced row echelon form over the canonical
    coordinate order (pivoting on the latest coordinate, so low-index
    probabilities stay free); ``facets`` are canonical rows over the free
    coordinates only, i.e. already reduced modulo the equalities.
    """

    variables: list    # all p-coordinates, canonical order
    equalities: list
    facets: list

    def reduce(self, row: LinRow) -> LinRow:
        return reduce_modulo(row, self.equalities, self.variables)


# --- Fourier-Motzkin on dense integer rows -------------------------------
#
# A dense row is (coeff_0, ..., coeff_{d-1}, const) of ints, meaning
# coeffs . x + const >= 0.


def _combine(pos_row, pos_val, neg_row, neg_val, col):
    # pos_val = pos_row[col] > 0, neg_val = neg_row[col] < 0.
    return primitive([pos_val * bn - neg_val * bp
                      for bp, bn in zip(pos_row, neg_row)])


def fm_step(rows, col):
    """One Fourier-Motzkin elimination of coordinate ``col``.

    Returns the sorted, deduplicated rows of the projection with that
    coordinate removed; combined rows that hold trivially are dropped.
    """
    pos, neg = [], []
    out = set()
    for row in rows:
        v = row[col]
        if v > 0:
            pos.append((row, v))
        elif v < 0:
            neg.append((row, v))
        else:
            out.add(row[:col] + row[col + 1:])
    for prow, pval in pos:
        for nrow, nval in neg:
            combo = _combine(prow, pval, nrow, nval, col)
            combo = combo[:col] + combo[col + 1:]
            if any(combo[:-1]) or combo[-1] < 0:
                out.add(combo)
    return sorted(out)


def _lift_row(dense, variables) -> LinRow:
    coeffs = {v: Fraction(a) for v, a in zip(variables, dense[:-1]) if a}
    return LinRow(coeffs, Fraction(dense[-1]), GEQ)


# --- LP-certified irredundancy -------------------------------------------


def irredundant_rows(rows, witnesses):
    """Minimal subset of dense rows defining the same region.

    Each surviving row is certified non-redundant by a point that violates
    it while satisfying all other survivors; each removed row is certified
    implied by an exact LP.  ``witnesses`` (rational points ``(ints, den)``)
    from earlier passes short-circuit most LPs; the list is extended with
    the points this pass finds and returned.
    """
    rows = sorted(set(rows))
    alive = [True] * len(rows)

    def value(point, row):
        ints, den = point
        return sum(a * w for a, w in zip(row[:-1], ints)) + row[-1] * den

    for idx, row in enumerate(rows):
        others = [r for k, r in enumerate(rows) if alive[k] and k != idx]
        if any(value(point, row) < 0 and all(value(point, r) >= 0 for r in others)
               for point in witnesses):
            continue
        bound = row[:-1] + (row[-1] + 1,)  # keeps the LP bounded below
        res = minimize_over_rows(others + [bound], [Fraction(a) for a in row[:-1]])
        if res.status != OPTIMAL:
            raise InternalError("redundancy LP of a nonempty region is not optimal")
        if res.value + row[-1] >= 0:
            alive[idx] = False
        else:
            witnesses.append(over_common_denominator(res.x))
    return [r for k, r in enumerate(rows) if alive[k]], witnesses


# --- Full projection -----------------------------------------------------


FM_MAX_NU_DIM = 8


def project_to_nc_polytope(f2: F2System, progress=None) -> NCPolytope:
    """Eliminate every distribution variable; return the NC polytope.

    Two exact routes produce identical output, and the number of free
    distribution coordinates picks one.  Up to ``FM_MAX_NU_DIM`` of them
    are eliminated one by one (Fourier-Motzkin with an LP irredundancy
    pass per step); the per-step LP count grows quickly with that number,
    so larger systems take the hull route: enumerate the vertices of the
    distribution polytope, map them through the linking rows, and convert
    the resulting point set back to facets via a polar double description.
    """
    reduced, equalities = _affine_hull(f2)
    nu_dim = sum(1 for v in reduced.variables if v[0] == "nu")
    if nu_dim <= FM_MAX_NU_DIM:
        facets = _fm_facets(f2, reduced, progress)
    else:
        facets = _hull_facets(f2, equalities, progress)
    facets.sort(key=lambda r: r.key(f2.p_vars))
    return NCPolytope(f2.p_vars, equalities, facets)


def _affine_hull(f2: F2System):
    """Equality reduction; pure-p pivot rows are the affine-hull equalities."""
    prefer = set(f2.nu_vars)
    subs, reduced = row_reduce_equalities(f2.system(), prefer=prefer)
    # Substitutions whose pivot is a p-coordinate are guaranteed pure-p by
    # the nu-first pivot preference.
    eq_rows = []
    for var, (coeffs, const) in subs.items():
        if var[0] == "p":
            row = dict(coeffs)
            row[var] = row.get(var, ZERO) - ONE
            eq_rows.append(LinRow(row, const, EQ))
    return reduced, rref(eq_rows, f2.p_vars)


def _fm_facets(f2: F2System, reduced, progress):
    free = reduced.variables
    dense = [dense_row(r, free) for r in reduced.rows]
    witnesses = []
    while True:
        nu_cols = [k for k, v in enumerate(free) if v[0] == "nu"]
        if not nu_cols:
            break
        col = _pick_column(dense, nu_cols, free, f2.nu_vars)
        dense = fm_step(dense, col)
        free = free[:col] + free[col + 1:]
        # Projecting a feasible point just drops the eliminated coordinate.
        witnesses = [(w[:col] + w[col + 1:], den) for w, den in witnesses]
        dense, witnesses = irredundant_rows(dense, witnesses)
        if progress:
            progress(len(free), len(dense))

    # The equality reduction alone can eliminate every distribution
    # variable, in which case the loop body never ran; one final pass
    # guarantees the survivors are deduplicated and irredundant.
    dense = [r for r in dense if any(r[:-1])]
    dense, witnesses = irredundant_rows(dense, witnesses)
    return [canonicalize_row(_lift_row(r, free)) for r in dense]


# --- Hull engine ----------------------------------------------------------
#
# Vertices of the image of a polytope are images of its vertices, so the
# projection can be computed as: enumerate the distribution-polytope
# vertices, push them through the linking map, and recover the facets of
# the image points' hull by a polar double description.  Image points that
# are not extreme need no filtering; they only add redundant polar rows.


def _hull_facets(f2: F2System, equalities, progress):
    nu_rows = [r for r in f2.system().rows
               if all(v[0] == "nu" for v in r.coeffs)]
    nu_vertices = enumerate_vertices(LinearSystem(f2.nu_vars, nu_rows))
    if progress:
        progress(len(f2.nu_vars), len(nu_vertices))

    pivots = substitution_map(equalities, f2.p_vars)
    free_p = [v for v in f2.p_vars if v not in pivots]
    rows = dict(zip(f2.eq_labels, f2.eq_matrix))
    image = [rows[LINKING, v[1:]] for v in free_p]
    points = {over_common_denominator([dot(row, nu) for row in image])
              for nu in nu_vertices.as_tuples()}
    if progress:
        progress(len(free_p), len(points))

    if not free_p or len(points) == 1:
        return []
    try:
        facets = hull_facets(points)
    except ValueError as exc:   # the equalities are the points' affine hull
        raise InternalError(f"image hull: {exc}") from exc
    return [canonicalize_row(_lift_row(r, free_p)) for r in facets]


def _pick_column(dense, nu_cols, free, nu_order):
    """Greedy heuristic: minimize pos*neg - pos - neg, ties by registry order."""
    rank = {v: k for k, v in enumerate(nu_order)}
    best = None
    for col in nu_cols:
        pos = sum(1 for r in dense if r[col] > 0)
        neg = sum(1 for r in dense if r[col] < 0)
        score = pos * neg - pos - neg
        key = (score, rank[free[col]])
        if best is None or key < best[0]:
            best = (key, col)
    return best[1]
