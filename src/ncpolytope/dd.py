"""Exact double description: extreme rays, vertices and hull facets.

The kernel is the incremental method of Motzkin et al. (1953) in the form
of Fukuda & Prodon, "Double description method revisited" (1996).  It
starts from the simplicial cone of the first linearly independent rows,
whose rays it reads off the package's one fraction-free elimination
(:func:`.linalg.add_pivot`), inserts the remaining rows one at a time,
and combines every ray on the positive side of the new row with every
adjacent ray on its negative side.  Adjacency is decided combinatorially:
two extreme rays of a pointed cone are adjacent iff no third extreme ray
is tight on every row that both are tight on.  Tight sets are int bitsets
over the rows inserted so far, and every number in the kernel is a
Python int.

The order of insertion sets the size of the intermediate ray lists
(Fukuda & Prodon; Avis, Bremner & Seidel, "How good are convex hull
algorithms?", 1997).  The hull route's distribution vertices insert, at
each step, the remaining row with the fewest rays on its negative side:
``state_discrimination`` then peaks at 169 rays, against 512 in the given
order.  The polar DD of :func:`hull_facets` inserts its rows far points
first, and the measurement vertices go in their given order: with many
rows, scoring each remaining row on every ray at each step costs more
than it saves.

A dense row is a tuple of ints ``(a_0, ..., a_{n-1}, a_n)`` meaning
``a_0 y_0 + ... + a_{n-1} y_{n-1} + a_n >= 0``.  A rational point is a
ray of the homogenized cone, a primitive int tuple ``(b_0, ..., b_{n-1},
t)`` with ``t > 0`` meaning ``b / t``; ``row . point`` is ``t`` times the
row's value at ``b / t``, so it has that value's sign.  Callers make rows
and points with :func:`.linalg.int_row`, and the kernel keeps its rows and
rays primitive with :func:`.linalg.primitive`.

Every caller guarantees that its rows span the space and that its region
is bounded and nonempty (the polar region holds 0), so the kernel itself
raises :class:`.linalg.InternalError` when any fails ("no vertex" names
the caller's stage).  A ray list past :data:`RAY_CAP` raises
:class:`.linalg.LimitExceeded`, naming the stage: a size limit, not a bug.
"""

from __future__ import annotations

from math import lcm
from operator import mul

from .linalg import (InternalError, LimitExceeded, add_pivot, primitive,
                     reduce_row)

# Cap on the rays kept while a row is inserted.  The largest lists met in
# use are 2768 (the six-preparation polar DD), 1117 (the polar DD of eight
# preparations with four parity equivalences, whose distribution DD peaks
# at 666) and 846 (the six-preparation distribution vertices).  The
# measurement vertices of l two-outcome measurements are the 2**l corners
# of a cube: l = 13 (8192 rays) finishes in a few seconds, and each
# further measurement doubles both the rays and the time, so the cap
# stops l >= 14 within seconds.
RAY_CAP = 10 ** 4


def extreme_rays(rows, D, stage, adaptive=False) -> list:
    """Extreme rays of the cone {x in Q^D : r . x >= 0 for each row r}.

    Rays are primitive int tuples.  The rows must span Q^D (so that the
    cone is pointed); InternalError otherwise.  An empty list means the
    cone is {0}.  ``stage`` names what the rays are, for the message of
    the cap.  The rows after the starting cone are inserted in their given
    order or, with ``adaptive``, in the order of :func:`_fewest_negative`.
    """
    rows = [tuple(r) for r in rows]
    init, rays = _simplicial_start(rows, D)
    # Bits 0..D-1 are the rows of the starting cone, whose k-th ray is
    # tight on all of them but the k-th.
    everything = (1 << D) - 1
    tights = [everything ^ (1 << k) for k in range(D)]
    chosen = set(init)
    rest = [r for k, r in enumerate(rows) if k not in chosen]
    for position in range(D, len(rows)):
        if adaptive:
            k, values = _fewest_negative(rest, rays)
            row = rest.pop(k)
        else:
            row = rest[position - D]
            values = [sum(map(mul, row, ray)) for ray in rays]
        bit = 1 << position
        kept_rays, kept_tights, pos, neg = [], [], [], []
        for k, value in enumerate(values):
            if value >= 0:
                kept_rays.append(rays[k])
                kept_tights.append(tights[k] | bit if value == 0 else tights[k])
                if value:
                    pos.append(k)
            else:
                neg.append(k)
        for i in pos:
            ti, ri, vi = tights[i], rays[i], values[i]
            for j in neg:
                common = ti & tights[j]
                if common.bit_count() < D - 2:
                    continue
                # Adjacent iff no third ray is tight wherever both are.
                if any(t & common == common and k != i and k != j
                       for k, t in enumerate(tights)):
                    continue
                vj, rj = values[j], rays[j]
                kept_rays.append(primitive([vi * b - vj * a
                                            for a, b in zip(ri, rj)]))
                # A positive combination is tight exactly where both are.
                kept_tights.append(common | bit)
            if len(kept_rays) > RAY_CAP:
                raise LimitExceeded(
                    f"{stage}: double description in dimension {D}: more "
                    f"than {RAY_CAP} rays after {position + 1} of "
                    f"{len(rows)} rows")
        rays, tights = kept_rays, kept_tights
        if not rays:
            break
    return rays


def _fewest_negative(rest, rays):
    """The index in ``rest`` of the first row with the fewest rays on its
    negative side, and that row's values on the rays.

    A row with no negative value is taken at once: it only marks the rays
    it is tight on.
    """
    best, best_neg, best_values = None, len(rays) + 1, None
    for k, row in enumerate(rest):
        values = [sum(map(mul, row, ray)) for ray in rays]
        neg = sum(v < 0 for v in values)
        if neg < best_neg:
            best, best_neg, best_values = k, neg, values
            if not neg:
                break
    return best, best_values


def _simplicial_start(rows, D):
    """The first D independent rows and the rays of the cone they bound.

    Those rays are the columns of the inverse of the rows' matrix B.  Each
    row is eliminated as ``(u, row)``, with u the unit vector of its place
    among the chosen rows, and a row whose second half reduces to zero is
    dependent and skipped.  Each pivot row left is ``(u, p * e_c)`` with
    ``u . B = p * e_c``, so ``u / p`` is row c of the inverse.
    """
    init, pivots = [], {}
    for k, row in enumerate(rows):
        unit = tuple(int(j == len(init)) for j in range(D))
        v = reduce_row(unit + row, pivots)
        col = next((c for c in range(2 * D - 1, D - 1, -1) if v[c]), None)
        if col is None:
            continue
        add_pivot(pivots, col, v)
        init.append(k)
        if len(init) == D:
            break
    else:
        raise InternalError(
            "double description: inequality rows do not span the space")
    den = lcm(*(p[c] for c, p in pivots.items()))
    inverse = [[a * (den // p[c]) for a in p[:D]]
               for c, p in sorted(pivots.items())]
    rays = [primitive([r[j] for r in inverse]) for j in range(D)]
    return init, rays


def vertices(ineqs, dim, stage, adaptive=False) -> list:
    """Vertices of the bounded region {y in Q^dim : a . y + a0 >= 0}.

    ``ineqs`` are dense rows; vertices are points.  InternalError if the
    region is empty or unbounded.  ``adaptive`` is passed to
    :func:`extreme_rays`.
    """
    rays = extreme_rays([(0,) * dim + (1,)] + list(ineqs), dim + 1, stage,
                        adaptive)
    if not rays:
        raise InternalError(f"{stage}: no vertex")
    if any(ray[-1] == 0 for ray in rays):
        raise InternalError("double description: region is unbounded")
    return rays


def hull_facets(points) -> list:
    """Facets of the convex hull of points that span their space.

    Returns sorted dense rows.  Points that are not extreme are allowed:
    by polarity around the centroid c, each point p becomes the row
    (p - c) . u <= 1, the facets are the vertices u of that region, and a
    point that is not extreme only adds a redundant row.
    """
    points = sorted(set(points))
    n, dim = len(points), len(points[0]) - 1
    den_all = lcm(*(p[-1] for p in points))
    centre = [sum(p[k] * (den_all // p[-1]) for p in points)
              for k in range(dim)]
    den_c = n * den_all

    def offset(p):   # (p - c) * t * den_c, as ints
        return [a * den_c - c * p[-1] for a, c in zip(p, centre)]

    # Far points first keeps intermediate ray counts close to the output;
    # offset(p) * (den_all // t) is (p - c) * den_all * den_c for every p.
    points.sort(key=lambda p: (sum(x * x for x in offset(p))
                               * (den_all // p[-1]) ** 2), reverse=True)
    polar = [primitive([-x for x in offset(p)] + [p[-1] * den_c])
             for p in points]
    facets = set()
    for *u, t in vertices(polar, dim, "facets of the image points"):
        # (u / t) . (x - c) <= 1 for the vertex u / t, times t * den_c.
        facets.add(primitive([-a * den_c for a in u]
                             + [t * den_c + sum(map(mul, u, centre))]))
    return sorted(facets)
