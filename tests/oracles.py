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
eliminates fraction-free on dense integer rows.
"""

from fractions import Fraction
from itertools import combinations

from ncpolytope.linalg import (EQ, GEQ, ZERO, InconsistentSystem, LinRow,
                               LinearSystem, canonicalize_row)
from ncpolytope.ncsystem import NORMALIZATION, OE_P, build_f2, fixed_rhs
from ncpolytope.simplex import OPTIMAL, UNBOUNDED, solve_standard
from ncpolytope.symmetry import OrbitClass, RowNotInOrbitClosure, act_on_row

ONE = Fraction(1)


def evaluate(row, point) -> Fraction:
    """``coeffs . point + const`` of one row at a point, a dict by variable."""
    return sum((c * point[v] for v, c in row.coeffs.items()), row.const)


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


def eliminate(system: LinearSystem):
    """Eliminate the EQ rows of a system by Gaussian substitution on
    Fraction dicts.

    Returns ``(substitutions, reduced)``: ``substitutions`` maps each
    eliminated variable to an affine expression ``(coeffs, const)`` over
    the remaining variables, and ``reduced`` holds the GEQ rows with the
    substitutions applied.  Each row pivots on its greatest variable in
    registry order.  Raises InconsistentSystem on a contradictory equality.
    """
    order = {v: k for k, v in enumerate(system.variables)}
    subs: dict = {}
    for row in system.eq_rows():
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
    free = [v for v in system.variables if v not in subs]
    return subs, LinearSystem(free, [substitute(r, subs)
                                     for r in system.geq_rows()])


def violated_row(system: LinearSystem, point):
    """None if the point lies in the H-polytope, else one violated row."""
    return next((r for r in system.rows if not satisfies(r, point)), None)


def polytope_contains(poly, probs) -> bool:
    """Exact membership of a table, ``{(i, j, m): p}``, in an NCPolytope."""
    point = {("p",) + c: p for c, p in probs.items()}
    return all(satisfies(r, point) for r in poly.equalities + poly.facets)


def brute_force_vertices(system: LinearSystem):
    """All vertices of {x: rows}, by trying every tight-row subset.

    A vertex is a feasible point where the tight rows have full rank, so
    it is the unique solution of the equality rows plus some subset of
    the inequality rows turned into equalities.
    """
    variables = system.variables
    n = len(variables)
    eqs = [r for r in system.rows if r.kind == EQ]
    ineqs = [r for r in system.rows if r.kind == GEQ]
    vertices = set()
    for size in range(n + 1):
        for subset in combinations(ineqs, size):
            tight = eqs + [LinRow(r.coeffs, r.const, EQ) for r in subset]
            try:
                subs, reduced = eliminate(LinearSystem(variables, tight))
            except InconsistentSystem:
                continue
            if reduced.variables:
                continue  # underdetermined: not a candidate basis
            point = {v: const for v, (_, const) in subs.items()}
            if violated_row(system, point) is None:
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
    nu_system = LinearSystem(list(f2.nu_vars), nu_rows)
    nv = len(meas_vertices)
    points = set()
    for vertex in brute_force_vertices(nu_system):
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
    nrows = len(numeric.matrix)
    ncols = len(numeric.nu_vars)
    # Standard form: y = u - w with u, w >= 0; slacks s, t >= 0 with
    # (y.M)_k - s_k = 0 and (y.M)_k + t_k = 1.
    A = []
    b = []
    for k in range(ncols):
        col = [numeric.matrix[i][k] for i in range(nrows)]
        A.append(col + [-a for a in col]
                 + [-ONE if q == k else ZERO for q in range(ncols)]
                 + [ZERO] * ncols)
        b.append(ZERO)
    for k in range(ncols):
        col = [numeric.matrix[i][k] for i in range(nrows)]
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


def y_dot_columns(y, numeric):
    """y.M column by column over every row: the dense definition that the
    package's sparse product skips the zero entries of."""
    return [sum((y[i] * numeric.matrix[i][k] for i in range(len(y))), ZERO)
            for k in range(len(numeric.nu_vars))]


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
        out.setdefault(reduced.key(variables), (reduced, moved))
    return out


def _substitutions(equalities, variables):
    subs, _ = eliminate(LinearSystem(variables, list(equalities)))
    return subs


def classify_orbits_oracle(rows, group, equalities, variables):
    """Partition rows into group orbits modulo the affine-hull equalities."""
    subs = _substitutions(equalities, variables)

    def key(row):
        return canonicalize_row(substitute(row, subs)).key(variables)

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
                    key=lambda r: r.key(variables))
        classes.append(OrbitClass(least, len(orbit)))
        assigned.update(orbit)
    classes.sort(key=lambda c: c.representative.key(variables))
    return classes


def expand_orbit_oracle(representative, group, equalities, variables):
    """All distinct images of a row, reduced modulo the equalities."""
    orbit = _orbit_keys(representative, group,
                        _substitutions(equalities, variables), variables)
    return sorted((orbit[k][0] for k in orbit), key=lambda r: r.key(variables))
