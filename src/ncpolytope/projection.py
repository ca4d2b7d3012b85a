"""Projection of the vertex-distribution system onto data-table space.

Eliminating the distribution unknowns from the finite system yields the
generalized-noncontextual polytope: every data table admitting a
noncontextual model satisfies its affine-hull equalities exactly and all of
its facet inequalities, and conversely.

The pipeline substitutes the equality rows of
:meth:`.ncsystem.F2System.system` away first (preferring to eliminate
distribution variables, so data-table coordinates stay free wherever
possible).  Small systems then remove the remaining distribution
variables one at a time by Fourier-Motzkin elimination, running an exact
irredundancy pass after every elimination step to keep the intermediate row
count at the true facet count.  The pass certifies each kept row by a
witness point that violates it alone, most of them found by shooting rays
from one point strictly inside the system (Clarkson, "More
output-sensitive geometric algorithms", FOCS 1994), and each removed row by
an exact LP.  Larger systems take the hull route instead: the
distribution-polytope vertices, as the integer points of
:func:`.measurement_polytope.free_vertices`, are mapped into table space
by one integer matrix, the finite system's dense linking rows
(:attr:`.ncsystem.F2System.eq_matrix`) composed with the distribution
equalities, and the image points, with no filtering, go through a polar
double description (:mod:`.dd`) that returns the facets of their hull.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .dd import hull_facets
from .linalg import (EQ, GEQ, ONE, ZERO, InternalError, LinRow, LinearSystem,
                     canonicalize_row, dense_row, over_common_denominator,
                     primitive, reduce_modulo, rref, row_reduce_equalities,
                     substitution_map)
from .measurement_polytope import free_vertices
from .ncsystem import LINKING, F2System, dot
from .scenario import p_var
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


# --- Irredundancy: witness points for kept rows, LPs for removed ones -----


def _value(point, row):
    """den * (row at ints / den) for a rational point (ints, den)."""
    ints, den = point
    return sum(map(mul, row, ints)) + row[-1] * den


def _ray_shot(rows, alive, idx, interior, values):
    """A point that violates one alive row and satisfies the others, or None.

    The ray from the strictly interior point along minus row ``idx``'s
    coefficients crosses the alive rows it approaches in order of the step
    at which each becomes tight.  When exactly one row is crossed first,
    the point halfway to the second crossing (or twice as far, when no
    other row is approached) violates that row alone.  ``values`` holds
    ``_value(interior, row)`` for every row.
    """
    ints, den = interior
    direction = [-a for a in rows[idx][:-1]]
    first = second = None       # (step as value / speed, row index)
    for k, row in enumerate(rows):
        if not alive[k]:
            continue
        speed = -sum(map(mul, row, direction))
        if speed <= 0:
            continue
        step = Fraction(values[k], speed)
        if first is None or step < first[0]:
            first, second = (step, k), first
        elif second is None or step < second[0]:
            second = (step, k)
    if first is None or (second is not None and second[0] == first[0]):
        return None
    step = (first[0] + second[0]) / 2 if second else 2 * first[0]
    out = primitive([a * step.denominator + step.numerator * b
                     for a, b in zip(ints, direction)]
                    + [den * step.denominator])
    return out[:-1], out[-1]


def irredundant_rows(rows, witnesses, interior):
    """Minimal subset of dense rows defining the same region.

    Each surviving row is certified non-redundant by a witness point that
    violates it while satisfying all other survivors; each removed row is
    certified implied by an exact LP.  Witnesses (rational points
    ``(ints, den)``) come from earlier passes, or from a ray shot out of
    ``interior``, a point strictly inside every row, which is tried before
    the LP; a shot point counts only if it passes the same witness check.
    The witness list is extended with the points this pass finds and
    returned.
    """
    rows = sorted(set(rows))
    alive = [True] * len(rows)
    values = [_value(interior, row) for row in rows]

    for idx, row in enumerate(rows):
        others = [r for k, r in enumerate(rows) if alive[k] and k != idx]

        def certifies(point):
            return (_value(point, row) < 0
                    and all(_value(point, r) >= 0 for r in others))

        if any(map(certifies, witnesses)):
            continue
        shot = _ray_shot(rows, alive, idx, interior, values)
        if shot is not None:
            witnesses.append(shot)
            if certifies(shot):
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
    are eliminated one by one (Fourier-Motzkin with an irredundancy pass
    per step); the per-step row count grows quickly with that number,
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


def _interior_point(f2: F2System, free):
    """A point strictly inside the reduced system, over its free coordinates.

    Every preparation gets the same distribution over the n measurement
    vertices, q_k proportional to n + k: it is normalized, it keeps every
    OE_P row (each one's weights sum to 0), and it is strictly positive.
    The linking rows map it to table coordinates.  The weights differ so
    that ray shots from the point rarely tie on symmetric scenarios.
    """
    n = len(f2.vertices)
    total = n * n + n * (n + 1) // 2
    nu = [Fraction(n + k, total) for _ in f2.scenario.preparations()
          for k in range(1, n + 1)]
    point = dict(zip(f2.nu_vars, nu))
    for label, row in zip(f2.eq_labels, f2.eq_matrix):
        if label[0] == LINKING:
            point[p_var(label[1])] = dot(row, nu)
    return over_common_denominator([point[v] for v in free])


def _fm_facets(f2: F2System, reduced, progress):
    free = reduced.variables
    dense = [dense_row(r, free) for r in reduced.rows]
    interior = _interior_point(f2, free)
    if any(_value(interior, r) <= 0 for r in dense):
        raise InternalError("Fourier-Motzkin: the interior point is not "
                            "strictly inside every row")
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
        interior = (interior[0][:col] + interior[0][col + 1:], interior[1])
        dense, witnesses = irredundant_rows(dense, witnesses, interior)
        if progress:
            progress(len(free), len(dense))

    # The equality reduction alone can eliminate every distribution
    # variable, in which case the loop body never ran; one final pass
    # guarantees the survivors are deduplicated and irredundant.
    dense = [r for r in dense if any(r[:-1])]
    dense, witnesses = irredundant_rows(dense, witnesses, interior)
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
    subs, free_nu, raw = free_vertices(LinearSystem(f2.nu_vars, nu_rows))
    if progress:
        progress(len(f2.nu_vars), len(raw))

    pivots = substitution_map(equalities, f2.p_vars)
    free_p = [v for v in f2.p_vars if v not in pivots]
    # The linking rows composed with the distribution substitutions: one
    # int matrix over (ys, t) and one denominator, so a vertex (ys, t)
    # maps to the image point matrix . (ys, t) / (den * t).
    rows = dict(zip(f2.eq_labels, f2.eq_matrix))
    image = [LinRow(dict(zip(f2.nu_vars, rows[LINKING, v[1:]]))).substituted(subs)
             for v in free_p]
    entries = [[r.coeffs.get(w, ZERO) for w in free_nu] + [r.const] for r in image]
    flat, den = over_common_denominator([a for e in entries for a in e])
    width = len(free_nu) + 1
    matrix = [flat[k:k + width] for k in range(0, len(flat), width)]
    points = set()
    for ys, t in raw:
        column = ys + (t,)
        point = primitive([sum(map(mul, r, column)) for r in matrix] + [den * t])
        points.add((point[:-1], point[-1]))
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
