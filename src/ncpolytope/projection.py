"""Projection of the vertex-distribution system onto data-table space.

Eliminating the distribution unknowns from the finite system yields the
generalized-noncontextual polytope: every data table admitting a
noncontextual model satisfies its affine-hull equalities exactly and all of
its facet inequalities, and conversely.

The pipeline first reduces the equalities of :mod:`.ncsystem` away once,
fraction-free on dense integer rows whose distribution columns come last,
so they are the ones eliminated and data-table coordinates stay free
wherever possible (:func:`.linalg.row_reduce_equalities`).  Small systems
then remove the remaining distribution variables one at a time by
Fourier-Motzkin elimination, running an exact irredundancy pass after every
elimination step to keep the intermediate row count at the true facet
count.  The pass removes most redundant rows by an exact two-row
certificate, integer multipliers that show the row to be a nonnegative
combination of two other rows plus a nonnegative constant.  It certifies
each kept row by a witness point that violates it alone, found anew in
every pass, most of them by shooting rays from one point strictly inside
the system (Clarkson, "More output-sensitive geometric algorithms", FOCS
1994) or from four strictly interior points displaced from it.  A shot that
crosses another row first is aimed again from the same point, along the
part of its direction orthogonal to every row that blocked it.  Only a
row that none of these decides costs an exact LP.  Larger systems take
the hull route instead, on the same reduced system: its coordinates are
the free distribution and free table coordinates, so the free table
coordinates of each of its vertices (:func:`.dd.vertices`) are an image
point, and the image points, with no filtering, go through a polar double
description (:mod:`.dd`) that returns the facets of their hull.  Both
routes take the reduced system as dense integer rows, every point they
use is in the form of :mod:`.dd`, and the facets leave both canonical and
sorted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .dd import hull_facets, vertices
from .linalg import (EQ, ONE, InternalError, LinRow, canonicalize_row,
                     int_row, positivity_rows, primitive, row_reduce_equalities)
from .ncsystem import LINKING, F2System, dot, fixed_rhs
from .scenario import flatten_coord, p_var
from .simplex import minimize_over_rows
# Unused here; kept importable because tracing wraps projection.solve_standard,
# projection.reduce_modulo and projection.rref.
from .linalg import reduce_modulo, rref  # noqa: F401
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


# --- Fourier-Motzkin on dense integer rows -------------------------------
#
# A dense row is (coeff_0, ..., coeff_{d-1}, const) of ints, meaning
# coeffs . x + const >= 0; sum(map(mul, row, point)) has the row's sign at
# a point (b_0, ..., b_{d-1}, t), meaning b / t (see :mod:`.dd`).


def _combine(pos_row, pos_val, neg_row, neg_val):
    # pos_val > 0 and neg_val < 0: the rows' entries in the eliminated column
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
            combo = _combine(prow, pval, nrow, nval)
            combo = combo[:col] + combo[col + 1:]
            if any(combo[:-1]):
                out.add(combo)
    return out


# --- Irredundancy: certificates and witness points, LPs for the rest ------


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


def _ray_shot(rows, alive, origin, values, direction):
    """The alive row that a ray crosses first, and a point violating it alone.

    The ray from the strictly interior point ``origin`` along ``direction``
    (ints, one per coordinate) crosses each alive row it approaches, at
    speed ``-row . direction > 0``, after the step ``value / speed``, where
    ``values`` holds the positive ``row . origin`` of every row.  Values
    and speeds are ints, so steps are ordered by cross-multiplying.  When
    exactly one row is crossed first, returns that row's index and the
    point halfway to the second crossing (or twice as far, when no other
    row is approached), which violates that row alone; ``(None, None)``
    when rows tie for first or none is approached.
    """
    first = second = None       # (value, speed, row index)
    for k, row in enumerate(rows):
        if not alive[k]:
            continue
        speed = -sum(map(mul, row, direction))
        if speed <= 0:
            continue
        value = values[k]
        if first is None or value * first[1] < first[0] * speed:
            first, second = (value, speed, k), first
        elif second is None or value * second[1] < second[0] * speed:
            second = (value, speed, k)
    if first is None or (second is not None
                         and first[0] * second[1] == second[0] * first[1]):
        return None, None
    v1, s1, k = first
    if second is None:
        scale, step = s1, 2 * v1
    else:
        v2, s2, _ = second
        scale, step = 2 * s1 * s2, v1 * s2 + v2 * s1
    return k, primitive([a * scale + step * b
                         for a, b in zip(origin, direction)]
                        + [origin[-1] * scale])


def _aimed_shot(rows, alive, idx, origin, values):
    """A point that violates alive row ``idx`` alone, or None, by ray shots.

    The first shot goes from ``origin`` along minus the row's coefficients.
    While a single other row is crossed first, the next shot goes from the
    same origin along the component of the direction orthogonal to every
    row crossed so far: those rows stay at their values along it, and the
    row itself is still approached, since minus its coefficients dot the
    direction is the squared length of their orthogonal component.  It
    stops at a tie, at a zero direction or after one shot per coordinate.
    The blocking rows' coefficients are kept as mutually orthogonal int
    vectors ``u`` with their squares ``u . u``, and each projection is
    ``primitive(uu * v - (v . u) * u)``.
    """
    direction = [-a for a in rows[idx][:-1]]
    blockers = []
    for _ in direction:
        first, point = _ray_shot(rows, alive, origin, values, direction)
        if first is None or first == idx:
            return point
        u = rows[first][:-1]
        for w, ww in blockers:
            u = _orthogonal(u, w, ww)
        uu = sum(map(mul, u, u))
        blockers.append((u, uu))
        direction = _orthogonal(direction, u, uu)
        if not any(direction):
            break
    return None


def _orthogonal(v, u, uu):
    """The component of v orthogonal to u, scaled by ``uu = u . u > 0`` and
    made primitive."""
    vu = sum(map(mul, v, u))
    return primitive([uu * a - vu * b for a, b in zip(v, u)])


def irredundant_rows(rows, origins):
    """Sorted minimal subset of dense rows defining the same region.

    Each surviving row is certified non-redundant by a witness point that
    violates it while satisfying all other survivors; each removed row is
    certified implied by an exact two-row certificate
    (:func:`_two_row_certificate`, verified in integers) or, when a row has
    neither a certificate nor a witness, by an exact LP.  Witnesses come
    from ray shots out of ``origins``, points strictly inside every row:
    one along minus the row's coefficients from the first origin, which
    keeps most of the rows that stay for less than a certificate search
    that must fail, then aimed shots (:func:`_aimed_shot`) from each
    origin in turn before the LP.  A shot point counts only if it passes
    the witness check.  Rows with no coefficients hold everywhere
    inside, and duplicates add nothing, so both are dropped first.
    """
    rows = sorted({r for r in rows if any(r[:-1])})
    alive = [True] * len(rows)

    def certifies(point, idx):
        return (sum(map(mul, rows[idx], point)) < 0
                and all(sum(map(mul, r, point)) >= 0
                        for k, r in enumerate(rows) if alive[k] and k != idx))

    values = [[sum(map(mul, r, o)) for r in rows] for o in origins]
    masks = [_sign_masks(row) for row in rows]
    undecided = []
    for idx in range(len(rows)):
        if origins:
            first, point = _ray_shot(rows, alive, origins[0], values[0],
                                     [-a for a in rows[idx][:-1]])
            if first == idx and certifies(point, idx):
                continue
        if _two_row_certificate(rows, alive, idx, masks):
            alive[idx] = False
        else:
            undecided.append(idx)

    for idx in undecided:
        for origin, vals in zip(origins, values):
            shot = _aimed_shot(rows, alive, idx, origin, vals)
            if shot is not None and certifies(shot, idx):
                break
        else:
            row = rows[idx]
            others = [r for k, r in enumerate(rows) if alive[k] and k != idx]
            bound = row[:-1] + (row[-1] + 1,)  # keeps the LP bounded below
            res = minimize_over_rows(others + [bound], row[:-1])
            if res.value + row[-1] >= 0:
                alive[idx] = False
    return [r for k, r in enumerate(rows) if alive[k]]


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
    free, rows, equalities = _affine_hull(f2)
    nu_dim = sum(1 for v in free if v[0] == "nu")
    if nu_dim <= FM_MAX_NU_DIM:
        dense = _fm_facets(f2, free, rows, nu_dim, progress)
    else:
        dense = _hull_facets(rows, len(free), nu_dim, progress)
    # Sorted primitive rows over the free table coordinates, which are in
    # registry order, are canonical LinRows sorted by their dense
    # (coefficients, constant) tuples over the registry.
    facets = [LinRow(dict(zip(free[nu_dim:], r)), r[-1]) for r in dense]
    return NCPolytope(f2.p_vars, equalities, facets)


def _affine_hull(f2: F2System):
    """Equality reduction: free coordinates, nu >= 0 rows, table equalities.

    Columns are table, then distribution coordinates, then the constant.
    An equality reads row . nu - b = 0, where a linking row's b is its p,
    so each pivots on a distribution column when it has one and the pivot
    rows on table columns are the table equalities in rref.  Its sign is
    free: each pivot row is made positive in its pivot column.
    """
    n_p, n = len(f2.p_vars), len(f2.p_vars) + len(f2.nu_vars)
    eqs = []
    for label, dense in zip(f2.eq_labels, f2.eq_matrix):
        *a, rhs, den = int_row(dense + [fixed_rhs(label), ONE])
        row = [0] * n_p + a + [-rhs]
        if label[0] == LINKING:     # b is the table coordinate p
            row[flatten_coord(f2.scenario, label[1]) - 1] = -den
        eqs.append(row)
    pivots = row_reduce_equalities(eqs)
    # Distribution columns first, so the first nu_dim columns are the ones
    # both routes eliminate: the Fourier-Motzkin column choice breaks its
    # ties by column, and its shot origins depend on the column order.
    cols = [c for c in range(n_p, n) if c not in pivots]
    cols += [c for c in range(n_p) if c not in pivots]
    equalities = [canonicalize_row(LinRow(dict(zip(f2.p_vars, p)), p[-1], EQ))
                  for col, p in sorted(pivots.items()) if col < n_p]
    variables = f2.p_vars + f2.nu_vars
    return ([variables[c] for c in cols],
            positivity_rows(pivots, range(n_p, n), cols), equalities)


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
    return int_row([point[v] for v in free] + [ONE])


def _shot_origins(interior, rows):
    """The interior point and four more points near it, for ray shots.

    Each extra point displaces the interior point by plus or minus
    ``2**-m`` times one of two generic vectors, ``k*k + 1`` and
    ``(-1)**k * (2k + 3)`` over the coordinates k, with the least m that
    stays within half the distance to every row along the vector.  Shots
    from them break the ties of shots from the interior point, whose
    weights are symmetric under many relabelings.
    """
    dim, den = len(interior) - 1, interior[-1]
    values = [sum(map(mul, r, interior)) for r in rows]
    out = [interior]
    for vec in ([k * k + 1 for k in range(dim)],
                [(-1) ** k * (2 * k + 3) for k in range(dim)]):
        # the least m with 2**m * value >= 2 * den * |row . vec| on every row
        ratio = max((-(-2 * den * abs(sum(map(mul, r, vec))) // v)
                     for r, v in zip(rows, values)), default=1)
        m = max(ratio - 1, 0).bit_length()
        for sign in (1, -1):
            out.append(primitive([(a << m) + sign * den * b
                                  for a, b in zip(interior, vec)]
                                 + [den << m]))
    return out


def _fm_facets(f2: F2System, free, dense, nu_dim, progress):
    interior = _interior_point(f2, free)
    if any(sum(map(mul, r, interior)) <= 0 for r in dense):
        raise InternalError("Fourier-Motzkin: the interior point is not "
                            "strictly inside every row")
    origins = _shot_origins(interior, dense)
    if any(sum(map(mul, r, o)) <= 0 for o in origins for r in dense):
        raise InternalError("Fourier-Motzkin: a shot origin is not "
                            "strictly inside every row")
    if not nu_dim:
        # The equality reduction alone eliminated every distribution
        # variable; one pass still deduplicates the rows and removes the
        # redundant ones.
        dense = irredundant_rows(dense, origins)
    dim = len(free)
    while nu_dim:
        col = _pick_column(dense, nu_dim)
        dense = fm_step(dense, col)
        nu_dim, dim = nu_dim - 1, dim - 1
        # Projecting an interior point just drops the eliminated coordinate.
        origins = [o[:col] + o[col + 1:] for o in origins]
        dense = irredundant_rows(dense, origins)
        if progress:
            progress(dim, len(dense))
    return dense


# --- Hull engine ----------------------------------------------------------
#
# Vertices of the image of a polytope are images of its vertices.  The
# reduced system's coordinates are the free distribution coordinates, then
# the free table coordinates, so the kernel's vertices of its dense rows,
# with the first nu_dim entries dropped and the last entry t kept, are the
# image points, and a polar double description recovers the facets of
# their hull.  Image points that are not extreme need no filtering; they
# only add redundant polar rows.  The reduced system is bounded and holds
# the interior point, and the equalities are the image points' affine
# hull, so a failure of either kernel call is the kernel's InternalError.
# The vertex call takes the adaptive row order of :mod:`.dd`, which keeps
# its ray lists near the vertex count.


def _hull_facets(rows, dim, nu_dim, progress):
    raw = vertices(rows, dim, "distribution vertices", adaptive=True)
    if progress:
        progress(dim, len(raw))
    points = {primitive(ray[nu_dim:]) for ray in raw}
    if progress:
        progress(dim - nu_dim, len(points))
    # With no free table coordinate every point is (1,).
    return hull_facets(points) if len(points) > 1 else []


def _pick_column(dense, nu_dim):
    """Greedy heuristic: minimize pos*neg - pos - neg over the first
    ``nu_dim`` columns, ties to the lowest (the distribution columns keep
    their registry order)."""
    def score(col):
        pos = sum(1 for r in dense if r[col] > 0)
        neg = sum(1 for r in dense if r[col] < 0)
        return pos * neg - pos - neg
    return min(range(nu_dim), key=score)
