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
count at the true facet count.  The pass removes most redundant rows by an
exact two-row certificate, integer multipliers that show the row to be a
nonnegative combination of two other rows plus a nonnegative constant.  It
certifies each kept row by a witness point that violates it alone, most of
them found by shooting rays from one point strictly inside the system
(Clarkson, "More output-sensitive geometric algorithms", FOCS 1994) or,
when that shot ties or crosses another row first, from four strictly
interior points displaced from it.  Only a row that none of these decides
costs an exact LP.  Larger systems take the hull route instead, on the
same reduced system: its coordinates are the free distribution and free
table coordinates, so the free table coordinates of each of its vertices
(:func:`.measurement_polytope.free_vertices`) are an image point, and
the image points, with no filtering, go through a polar double
description (:mod:`.dd`) that returns the facets of their hull.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .dd import hull_facets
from .linalg import (EQ, GEQ, ONE, ZERO, InternalError, LinRow,
                     canonicalize_row, dense_row, over_common_denominator,
                     primitive, reduce_modulo, rref, row_reduce_equalities)
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

    Returns the set of rows of the projection with that coordinate
    removed; combined rows that hold trivially are dropped.
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
    return out


def _lift_row(dense, variables) -> LinRow:
    coeffs = {v: Fraction(a) for v, a in zip(variables, dense[:-1]) if a}
    return LinRow(coeffs, Fraction(dense[-1]), GEQ)


# --- Irredundancy: certificates and witness points, LPs for the rest ------


def _value(point, row):
    """den * (row at ints / den) for a rational point (ints, den)."""
    ints, den = point
    return sum(map(mul, row, ints)) + row[-1] * den


def _sign_masks(row):
    """Bitmasks of the coordinates where the row's coefficient is > 0, < 0."""
    pos = neg = 0
    for k, a in enumerate(row[:-1]):
        if a > 0:
            pos |= 1 << k
        elif a < 0:
            neg |= 1 << k
    return pos, neg


def _multipliers(row, s1, s2):
    """Ints ``(lam, mu1, mu2)`` showing that s1, s2 >= 0 imply row >= 0.

    They satisfy ``lam > 0``, ``mu1, mu2 >= 0``, ``lam * row ==
    mu1 * s1 + mu2 * s2`` on the coefficients and ``lam * row >=`` the
    combination on the constant.  When s2's coefficients are a multiple of
    s1's (as for ``s2 = s1``) only s1 is used; None when there are none.
    s1 must have a nonzero coefficient.
    """
    coords = range(len(row) - 1)
    i = next(k for k in coords if s1[k])
    j = next((k for k in coords if s1[i] * s2[k] != s1[k] * s2[i]), None)
    if j is None:
        lam, mu1, mu2 = abs(s1[i]), row[i] if s1[i] > 0 else -row[i], 0
    else:   # Cramer's rule on the nonzero minor of coordinates i and j
        lam = s1[i] * s2[j] - s1[j] * s2[i]
        mu1 = row[i] * s2[j] - row[j] * s2[i]
        mu2 = s1[i] * row[j] - s1[j] * row[i]
        if lam < 0:
            lam, mu1, mu2 = -lam, -mu1, -mu2
    if mu1 < 0 or mu2 < 0:
        return None
    combo = [mu1 * a + mu2 * b for a, b in zip(s1, s2)]
    if lam * row[-1] < combo[-1] or any(
            lam * a != b for a, b in zip(row[:-1], combo)):
        return None
    return lam, mu1, mu2


def _two_row_certificate(rows, alive, idx, masks):
    """``(lam, mu1, k1, mu2, k2)``: alive rows k1, k2 imply row ``idx``.

    The multipliers are those of :func:`_multipliers`.  A parallel, weaker
    row is the pair ``k1 == k2``, with ``mu2 == 0``.  Candidates must
    match the signs of ``lam * row == mu1 * s1 + mu2 * s2`` coordinate by
    coordinate, read off the sign ``masks`` of the rows: where the row is
    zero the signs of a pair cancel, so the second row of a pair is looked
    up by its signs there, and for ``k1 == k2`` the conditions leave only
    rows with the row's own masks.
    """
    row = rows[idx]
    pos, neg = masks[idx]
    zero = ~(pos | neg)
    candidates = [k for k in range(len(rows)) if alive[k] and k != idx]
    by_signs_at_zero = {}
    for k in candidates:
        p, n = masks[k]
        by_signs_at_zero.setdefault((p & zero, n & zero), []).append(k)
    for k1 in candidates:
        p1, n1 = masks[k1]
        need_p = (pos & ~p1) | (n1 & ~neg)
        need_n = (neg & ~n1) | (p1 & ~pos)
        for k2 in by_signs_at_zero.get((n1 & zero, p1 & zero), ()):
            p2, n2 = masks[k2]
            if (k2 >= k1 and p2 & need_p == need_p and n2 & need_n == need_n
                    and not p2 & ~(pos | n1) and not n2 & ~(neg | p1)):
                m = _multipliers(row, rows[k1], rows[k2])
                if m:
                    return m[0], m[1], k1, m[2], k2
    return None


def _ray_shot(rows, alive, idx, origin, values):
    """A point that violates one alive row and satisfies the others, or None.

    The ray from the strictly interior point ``origin`` along minus row
    ``idx``'s coefficients crosses the alive rows it approaches in order of
    the step at which each becomes tight.  When exactly one row is crossed
    first, the point halfway to the second crossing (or twice as far, when
    no other row is approached) violates that row alone.  ``values`` holds
    ``_value(origin, row)`` for every row.
    """
    ints, den = origin
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


def irredundant_rows(rows, witnesses, origins):
    """Sorted minimal subset of dense rows defining the same region.

    Each surviving row is certified non-redundant by a witness point that
    violates it while satisfying all other survivors; each removed row is
    certified implied by an exact two-row certificate
    (:func:`_two_row_certificate`, verified in integers) or, when a row has
    neither a certificate nor a witness, by an exact LP.  Witnesses
    (rational points ``(ints, den)``) come from earlier passes, or from ray
    shots out of ``origins``, points strictly inside every row, which are
    tried in turn before the LP; a shot point counts only if it passes the
    same witness check.  The witness list is extended with the points this
    pass finds and returned.  Rows with no coefficients hold everywhere
    inside, and duplicates add nothing, so both are dropped first.
    """
    rows = sorted({r for r in rows if any(r[:-1])})
    alive = [True] * len(rows)

    def certifies(point, idx):
        return (_value(point, rows[idx]) < 0
                and all(_value(point, r) >= 0
                        for k, r in enumerate(rows) if alive[k] and k != idx))

    # Rows that a known witness keeps need no certificate search; removing
    # rows only makes a witness of the rest stronger.
    masks = [_sign_masks(row) for row in rows]
    undecided = []
    for idx in range(len(rows)):
        if any(certifies(w, idx) for w in witnesses):
            continue
        if _two_row_certificate(rows, alive, idx, masks):
            alive[idx] = False
        else:
            undecided.append(idx)

    values = [None] * len(origins)   # _value of every row at each origin
    for idx in undecided:
        for k, origin in enumerate(origins):
            if values[k] is None:
                values[k] = [_value(origin, r) for r in rows]
            shot = _ray_shot(rows, alive, idx, origin, values[k])
            if shot is not None and certifies(shot, idx):
                witnesses.append(shot)
                break
        else:
            row = rows[idx]
            others = [r for k, r in enumerate(rows) if alive[k] and k != idx]
            bound = row[:-1] + (row[-1] + 1,)  # keeps the LP bounded below
            res = minimize_over_rows(others + [bound],
                                     [Fraction(a) for a in row[:-1]])
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
    same reduced system, read their free table coordinates, and convert
    the resulting point set back to facets via a polar double description.
    """
    reduced, equalities = _affine_hull(f2)
    nu_dim = sum(1 for v in reduced.variables if v[0] == "nu")
    if nu_dim <= FM_MAX_NU_DIM:
        facets = _fm_facets(f2, reduced, progress)
    else:
        facets = _hull_facets(reduced, progress)
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


def _shot_origins(interior, rows):
    """The interior point and four more points near it, for ray shots.

    Each extra point displaces the interior point by plus or minus
    ``2**-m`` times one of two generic vectors, ``k*k + 1`` and
    ``(-1)**k * (2k + 3)`` over the coordinates k, with the least m that
    stays within half the distance to every row along the vector.  Shots
    from them break the ties of shots from the interior point, whose
    weights are symmetric under many relabelings.
    """
    ints, den = interior
    values = [_value(interior, r) for r in rows]
    out = [interior]
    for vec in ([k * k + 1 for k in range(len(ints))],
                [(-1) ** k * (2 * k + 3) for k in range(len(ints))]):
        # the least m with 2**m * value >= 2 * den * |row . vec| on every row
        ratio = max((-(-2 * den * abs(sum(map(mul, r, vec))) // v)
                     for r, v in zip(rows, values)), default=1)
        m = max(ratio - 1, 0).bit_length()
        for sign in (1, -1):
            point = primitive([(a << m) + sign * den * b
                               for a, b in zip(ints, vec)] + [den << m])
            out.append((point[:-1], point[-1]))
    return out


def _fm_facets(f2: F2System, reduced, progress):
    free = reduced.variables
    dense = [dense_row(r, free) for r in reduced.rows]
    interior = _interior_point(f2, free)
    if any(_value(interior, r) <= 0 for r in dense):
        raise InternalError("Fourier-Motzkin: the interior point is not "
                            "strictly inside every row")
    origins = _shot_origins(interior, dense)
    if any(_value(o, r) <= 0 for o in origins for r in dense):
        raise InternalError("Fourier-Motzkin: a shot origin is not "
                            "strictly inside every row")
    witnesses = []
    if all(v[0] != "nu" for v in free):
        # The equality reduction alone eliminated every distribution
        # variable; one pass still deduplicates the rows and removes the
        # redundant ones.
        dense, _ = irredundant_rows(dense, witnesses, origins)
    while nu_cols := [k for k, v in enumerate(free) if v[0] == "nu"]:
        col = _pick_column(dense, nu_cols, free, f2.nu_vars)
        dense = fm_step(dense, col)
        free = free[:col] + free[col + 1:]
        # Projecting a feasible point just drops the eliminated coordinate.
        witnesses = [(w[:col] + w[col + 1:], den) for w, den in witnesses]
        origins = [(o[:col] + o[col + 1:], den) for o, den in origins]
        dense, witnesses = irredundant_rows(dense, witnesses, origins)
        if progress:
            progress(len(free), len(dense))
    return [canonicalize_row(_lift_row(r, free)) for r in dense]


# --- Hull engine ----------------------------------------------------------
#
# Vertices of the image of a polytope are images of its vertices.  The
# reduced system's coordinates are the free distribution and free table
# coordinates, so its vertices, with the distribution coordinates dropped,
# are the image points, and a polar double description recovers the facets
# of their hull.  Image points that are not extreme need no filtering; they
# only add redundant polar rows.


def _hull_facets(reduced, progress):
    _, free, raw = free_vertices(reduced)
    if progress:
        progress(len(free), len(raw))
    p_cols = [k for k, v in enumerate(free) if v[0] == "p"]
    points = set()
    for ys, t in raw:
        point = primitive([ys[k] for k in p_cols] + [t])
        points.add((point[:-1], point[-1]))
    if progress:
        progress(len(p_cols), len(points))

    if not p_cols or len(points) == 1:
        return []
    try:
        facets = hull_facets(points)
    except ValueError as exc:   # the equalities are the points' affine hull
        raise InternalError(f"image hull: {exc}") from exc
    return [canonicalize_row(_lift_row(r, [free[k] for k in p_cols]))
            for r in facets]


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
