"""Independent reference implementations used to cross-check the package.

The membership oracles evaluate rows one at a time.  The vertex oracle
enumerates basic solutions by brute force (every full-rank subset of
tight rows), which is exponentially slower than the double description
method but shares no code with it.  The certificate
oracle solves the box LP of the Farkas certificate directly, where the
package solves its LP dual, and the product oracles form y.M and y.b*
densely, where the package skips the zero entries of y.  The orbit
oracles classify rows with Fraction arithmetic, one ``act_on_row`` and
one substitution per group element, where the package works on integer
rows.  Those substitutions, and the vertex oracle's, come from a Gaussian
elimination on Fraction dicts (:func:`eliminate`), where the package
eliminates fraction-free on dense integer rows, and the starting cone of
the double description comes from a Fraction Gauss-Jordan inverse
(:func:`simplicial_start`), where the package takes it from the same
fraction-free pivot step.  The irredundancy oracle
decides every row by its own LP, where the package removes and keeps most
rows by certificates and ray shots.  The table oracles validate a table
and scan its equivalence residuals in Fraction arithmetic, where the
package works on integers over common denominators, and the document
oracle is the standard library's JSON encoder, which the package's
writer reproduces byte for byte.
"""

import json
from fractions import Fraction
from itertools import combinations

from ncpolytope.linalg import (EQ, GEQ, ZERO, InconsistentSystem,
                               InternalError, LinRow, canonicalize_row,
                               int_row)
from ncpolytope.ncsystem import NORMALIZATION, OE_P, build_f2, fixed_rhs
from ncpolytope.scenario import equivalence_rows
from ncpolytope.simplex import OPTIMAL, UNBOUNDED, solve_standard
from ncpolytope.symmetry import OrbitClass, RowNotInOrbitClosure, act_on_row

ONE = Fraction(1)


def evaluate(row, point) -> Fraction:
    """``coeffs . point + const`` of one row at a point, a dict by variable."""
    return sum((c * point[v] for v, c in row.coeffs.items()), row.const)


def row_key(row, variables) -> tuple:
    """A row's dense coefficients over ``variables``, then its constant: the
    order in which the package sorts canonical rows."""
    return tuple(row.coeffs.get(v, ZERO) for v in variables) + (row.const,)


def satisfies(row, point) -> bool:
    """Does a point satisfy one row, read as ``== 0`` or as ``>= 0``?"""
    value = evaluate(row, point)
    return value == 0 if row.kind == EQ else value >= 0


def substitute(row, subs) -> LinRow:
    """The row with each variable of ``subs`` replaced by its affine
    expression ``(coeffs, const)``."""
    coeffs: dict = {}
    const = row.const
    for v, c in row.coeffs.items():
        expr = subs.get(v)
        if expr is None:
            coeffs[v] = coeffs.get(v, ZERO) + c
        else:
            ecoeffs, econst = expr
            const += c * econst
            for w, e in ecoeffs.items():
                coeffs[w] = coeffs.get(w, ZERO) + c * e
    return LinRow(coeffs, const, row.kind)


def linrows(h):
    """A system in standard form, ``(variables, equalities)`` of dense int
    rows over nonnegative variables, as ``(variables, LinRows)``, the form
    of the oracles: the equalities, then ``v >= 0`` for each variable."""
    variables, equalities = h
    return variables, ([LinRow(dict(zip(variables, r)), r[-1], EQ)
                        for r in equalities]
                       + [LinRow({v: 1}, 0, GEQ) for v in variables])


def eliminate(variables, rows):
    """Eliminate the EQ rows among LinRows over ``variables`` by Gaussian
    substitution on Fraction dicts.

    Returns ``(substitutions, free, reduced)``: ``substitutions`` maps
    each eliminated variable to an affine expression ``(coeffs, const)``
    over the ``free`` variables left, and ``reduced`` holds the GEQ rows
    with the substitutions applied.  Each row pivots on its greatest
    variable in ``variables`` order.  Raises InconsistentSystem on a
    contradictory equality.
    """
    order = {v: k for k, v in enumerate(variables)}
    subs: dict = {}
    for row in (r for r in rows if r.kind == EQ):
        row = substitute(row, subs)
        if not row.coeffs:
            if row.const != 0:
                raise InconsistentSystem(f"contradictory equality: {row.const} = 0")
            continue
        pivot = max(row.coeffs, key=order.__getitem__)
        c = row.coeffs[pivot]
        expr_coeffs = {v: -a / c for v, a in row.coeffs.items() if v != pivot}
        expr_const = -row.const / c
        # Back-substitute so every substitution names free variables only.
        for var, (ecoeffs, econst) in subs.items():
            if pivot in ecoeffs:
                factor = ecoeffs.pop(pivot)
                econst += factor * expr_const
                for w, e in expr_coeffs.items():
                    ecoeffs[w] = ecoeffs.get(w, ZERO) + factor * e
                subs[var] = ({w: e for w, e in ecoeffs.items() if e != 0}, econst)
        subs[pivot] = (expr_coeffs, expr_const)
    free = [v for v in variables if v not in subs]
    return subs, free, [substitute(r, subs) for r in rows if r.kind == GEQ]


def simplicial_start(rows, D):
    """The first D independent rows and the rays of the cone they bound.

    Those rays are the columns of the inverse of the rows' matrix.  One
    Gauss-Jordan pass over the rows, each augmented by the unit vector of
    its place among the chosen rows, skips the dependent ones and leaves
    the rows of that inverse in the augmented halves.
    """
    init, pivots = [], []      # pivots: (column, reduced augmented row)
    for k, row in enumerate(rows):
        v = ([Fraction(a) for a in row]
             + [ONE if j == len(init) else ZERO for j in range(D)])
        for col, p in pivots:
            if v[col]:
                f = v[col]
                v = [a - f * b for a, b in zip(v, p)]
        col = next((c for c in range(D) if v[c]), None)
        if col is None:
            continue
        v = [a / v[col] for a in v]
        pivots = [(c, [a - p[col] * b for a, b in zip(p, v)] if p[col] else p)
                  for c, p in pivots]
        pivots.append((col, v))
        init.append(k)
        if len(init) == D:
            break
    else:
        raise InternalError(
            "double description: inequality rows do not span the space")
    inverse = [p[D:] for _, p in sorted(pivots)]   # pivot columns differ
    rays = [int_row([r[j] for r in inverse]) for j in range(D)]
    return init, rays


def violated_row(rows, point):
    """None if the point satisfies every row, else one violated row."""
    return next((r for r in rows if not satisfies(r, point)), None)


def polytope_contains(poly, probs) -> bool:
    """Exact membership of a table, ``{(i, j, m): p}``, in an NCPolytope."""
    point = {("p",) + c: p for c, p in probs.items()}
    return all(satisfies(r, point) for r in poly.equalities + poly.facets)


def irredundant_rows_oracle(rows):
    """The sorted distinct dense rows that the other rows do not imply.

    Rows are coprime ints ``(a..., c)`` meaning ``a . x + c >= 0``, and the
    system must hold a point strictly inside every row.  By the affine
    Farkas lemma, the other rows imply a row exactly when some ``y >= 0``
    has ``sum(y_i a_i) == a`` and ``sum(y_i c_i) <= c``, so one LP,
    ``min sum(y_i c_i)`` over those ``y``, decides each row.  Rows with no
    coefficients hold everywhere and are dropped; in a full-dimensional
    system the rows left are its unique irredundant subset.
    """
    rows = sorted({r for r in rows if any(r[:-1])})
    kept = []
    for idx, row in enumerate(rows):
        others = [r for k, r in enumerate(rows) if k != idx]
        A = [[Fraction(r[k]) for r in others] for k in range(len(row) - 1)]
        res = solve_standard(A, [Fraction(a) for a in row[:-1]],
                             [Fraction(r[-1]) for r in others])
        if res.status != OPTIMAL or res.value > row[-1]:
            kept.append(row)
    return kept


def brute_force_vertices(variables, rows):
    """All vertices of {x: rows}, LinRows over ``variables``, by trying
    every tight-row subset.

    A vertex is a feasible point where the tight rows have full rank, so
    it is the unique solution of the equality rows plus some subset of
    the inequality rows turned into equalities.
    """
    n = len(variables)
    eqs = [r for r in rows if r.kind == EQ]
    ineqs = [r for r in rows if r.kind == GEQ]
    vertices = set()
    for size in range(n + 1):
        for subset in combinations(ineqs, size):
            tight = eqs + [LinRow(r.coeffs, r.const, EQ) for r in subset]
            try:
                subs, free, _ = eliminate(variables, tight)
            except InconsistentSystem:
                continue
            if free:
                continue  # underdetermined: not a candidate basis
            point = {v: const for v, (_, const) in subs.items()}
            if violated_row(rows, point) is None:
                vertices.add(tuple(point[v] for v in variables))
    return sorted(vertices)


def brute_force_f2_points(scn, meas_vertices, free_p):
    """Projections of the distribution-polytope vertices onto free p-coords.

    Vertices come from the brute-force oracle, not double description.
    """
    f2 = build_f2(scn, meas_vertices)
    nu_rows = [LinRow({v: ONE}, ZERO, GEQ) for v in f2.nu_vars]
    nu_rows += [LinRow(dict(zip(f2.nu_vars, row)), -fixed_rhs(label), EQ)
                for label, row in zip(f2.eq_labels, f2.eq_matrix)
                if label[0] in (NORMALIZATION, OE_P)]
    nv = len(meas_vertices)
    points = set()
    for vertex in brute_force_vertices(f2.nu_vars, nu_rows):
        nu = dict(zip(f2.nu_vars, vertex))
        coords = []
        for (_, i, j, m) in free_p:
            coords.append(sum((meas_vertices.component(k, i, m)
                               * nu[("nu", j, k)]
                               for k in range(1, nv + 1)), ZERO))
        points.add(tuple(coords))
    return sorted(points)


def in_convex_hull(point, points) -> bool:
    """Exact LP membership of a point in the convex hull of a point set."""
    dim = len(point)
    A = [[q[r] for q in points] for r in range(dim)]
    A.append([ONE] * len(points))
    b = list(point) + [ONE]
    res = solve_standard(A, b, [ZERO] * len(points))
    return res.status == OPTIMAL


def box_dual_optimum(numeric):
    """min y.b* s.t. 0 <= y.M <= 1, y free, as a primal standard form.

    Returns the exact optimum, or None when it is unbounded below, which
    happens exactly when b* lies outside the column span of M.
    """
    matrix = numeric.f2.eq_matrix
    nrows = len(matrix)
    ncols = len(numeric.f2.nu_vars)
    # Standard form: y = u - w with u, w >= 0; slacks s, t >= 0 with
    # (y.M)_k - s_k = 0 and (y.M)_k + t_k = 1.
    A = []
    b = []
    for k in range(ncols):
        col = [matrix[i][k] for i in range(nrows)]
        A.append(col + [-a for a in col]
                 + [-ONE if q == k else ZERO for q in range(ncols)]
                 + [ZERO] * ncols)
        b.append(ZERO)
    for k in range(ncols):
        col = [matrix[i][k] for i in range(nrows)]
        A.append(col + [-a for a in col]
                 + [ZERO] * ncols
                 + [ONE if q == k else ZERO for q in range(ncols)])
        b.append(ONE)
    c = list(numeric.rhs) + [-v for v in numeric.rhs] + [ZERO] * (2 * ncols)
    res = solve_standard(A, b, c)
    if res.status == UNBOUNDED:
        return None
    assert res.status == OPTIMAL, "y = 0 is feasible"
    return res.value


def document_text(doc) -> str:
    """The text of a result document: indented JSON with sorted keys."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def table_is_valid(scn, table) -> bool:
    """Every entry a probability and every (M_i, P_j) row summing to 1,
    in Fraction arithmetic."""
    probs = table.as_dict()
    return (all(0 <= p <= 1 for p in probs.values())
            and all(sum(probs[i, j, m] for m in scn.outcomes()) == 1
                    for i in scn.measurements() for j in scn.preparations()))


def worst_equivalence_row(scn, table):
    """The equivalence row with the largest |residual| on the table, the
    first in scenario order on ties, as ``(id, slot, weights, residual)``;
    None when every residual is zero."""
    probs = table.as_dict()
    worst, broken = ZERO, None
    for oe, slot, weights in equivalence_rows(scn):
        r = sum((w * probs[c] for c, w in weights.items()), ZERO)
        if abs(r) > worst:
            worst, broken = abs(r), (oe, slot, weights, r)
    return broken


def y_dot_columns(y, numeric):
    """y.M column by column over every row: the dense definition that the
    package's sparse product skips the zero entries of."""
    matrix = numeric.f2.eq_matrix
    return [sum((y[i] * matrix[i][k] for i in range(len(y))), ZERO)
            for k in range(len(numeric.f2.nu_vars))]


def y_dot_rhs(y, numeric):
    """y.b* over every row."""
    return sum((a * b for a, b in zip(y, numeric.rhs)), ZERO)


def _orbit_keys(row, group, subs, variables):
    """Map each reduced-canonical orbit member key to one moved row.

    ``subs`` maps each pivot of the equalities to its substitution.
    """
    out = {}
    for g in group.elements:
        moved = act_on_row(g, row)
        reduced = canonicalize_row(substitute(moved, subs))
        out.setdefault(row_key(reduced, variables), (reduced, moved))
    return out


def _substitutions(equalities, variables):
    return eliminate(variables, equalities)[0]


def classify_orbits_oracle(rows, group, equalities, variables):
    """Partition rows into group orbits modulo the affine-hull equalities."""
    subs = _substitutions(equalities, variables)

    def key(row):
        return row_key(canonicalize_row(substitute(row, subs)), variables)

    index = {}
    for row in rows:
        index[key(row)] = row
    classes = []
    assigned = set()
    for row in rows:
        if key(row) in assigned:
            continue
        orbit = _orbit_keys(row, group, subs, variables)
        missing = [k for k in orbit if k not in index]
        if missing:
            reduced, moved = orbit[missing[0]]
            raise RowNotInOrbitClosure(
                f"group action maps {row} to {moved}, absent from the input set")
        least = min((orbit[k][0] for k in orbit),
                    key=lambda r: row_key(r, variables))
        classes.append(OrbitClass(least, len(orbit)))
        assigned.update(orbit)
    classes.sort(key=lambda c: row_key(c.representative, variables))
    return classes


def expand_orbit_oracle(representative, group, equalities, variables):
    """All distinct images of a row, reduced modulo the equalities."""
    orbit = _orbit_keys(representative, group,
                        _substitutions(equalities, variables), variables)
    return sorted((orbit[k][0] for k in orbit),
                  key=lambda r: row_key(r, variables))
