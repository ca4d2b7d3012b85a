"""Exact rational simplex (Bland's rule, two phases).

Everything here runs on Fractions; Bland's pivoting rule guarantees
termination, and the problem sizes in this package (at most a few hundred
rows) keep the dense tableau tractable.  A tableau of more than
:data:`.linalg.DENSE_CAP` entries raises LimitExceeded before it is built.

Two entry points:

* :func:`solve_standard` -- min c.x subject to A x = b, x >= 0.  Also
  returns the dual multipliers of the equality constraints, which callers
  use both as Farkas certificates and as primal witnesses of dual LPs.
* :func:`minimize_over_rows` -- min c.x over a system of dense inequality
  rows ``a.x + a0 >= 0`` with free x.  Solved through the LP dual, so it
  stays cheap when there are many rows but few variables (the shape of
  every redundancy query in the projection module).  Its caller bounds
  the LP and holds a strictly interior point, so any optimum not reached
  is an InternalError raised here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import DENSE_CAP, ZERO, ONE, InternalError, LimitExceeded

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    status: str
    x: list | None = None
    value: Fraction | None = None
    duals: list | None = None


def solve_standard(A, b, c) -> LPResult:
    """min c.x  s.t.  A x = b, x >= 0, all entries Fractions.

    On OPTIMAL, ``duals`` holds the simplex multipliers y (one per row)
    satisfying y.b == value when the reduced costs vanish on the basis.
    """
    m = len(A)
    n = len(c)
    if (m + 1) * (n + m + 1) > DENSE_CAP:
        raise LimitExceeded(f"simplex tableau: {m + 1} rows of {n + m + 1} "
                            f"columns exceed {DENSE_CAP} entries")
    # Orient rows so the right-hand side is nonnegative; remember flips so
    # dual multipliers can be reported for the original orientation.
    rows = []
    rhs = []
    flipped = []
    for i in range(m):
        if b[i] < 0:
            rows.append([-a for a in A[i]])
            rhs.append(-b[i])
            flipped.append(True)
        else:
            rows.append(list(A[i]))
            rhs.append(b[i])
            flipped.append(False)
    total = n + m  # real variables then one artificial per row
    tableau = []
    for i in range(m):
        row = rows[i] + [ONE if k == i else ZERO for k in range(m)] + [rhs[i]]
        tableau.append(row)
    basis = [n + i for i in range(m)]

    def pivot(r, col):
        prow = tableau[r]
        inv = ONE / prow[col]
        tableau[r] = [a * inv for a in prow]
        prow = tableau[r]
        for k in range(m + 1):
            if k == r:
                continue
            factor = tableau[k][col]
            if factor:
                tableau[k] = [a - factor * p for a, p in zip(tableau[k], prow)]
        basis[r] = col

    def run(blocked) -> str:
        while True:
            enter = -1
            for j in range(total):
                if j not in blocked and tableau[m][j] < 0:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL
            leave = -1
            best = None
            for i in range(m):
                a = tableau[i][enter]
                if a > 0:
                    ratio = tableau[i][total] / a
                    if best is None or ratio < best or \
                            (ratio == best and basis[i] < basis[leave]):
                        best = ratio
                        leave = i
            if leave < 0:
                return UNBOUNDED
            pivot(leave, enter)

    # Phase 1: minimize the sum of artificials.
    cost = [ZERO] * total + [ZERO]
    for j in range(n, total):
        cost[j] = ONE
    tableau.append(cost)
    for i in range(m):  # price out the initial (artificial) basis
        tableau[m] = [a - p for a, p in zip(tableau[m], tableau[i])]
    run(blocked=set())
    if -tableau[m][total] != 0:
        # Phase-1 multipliers: y.b > 0 while y.A <= 0 certifies infeasibility.
        duals = [ONE - tableau[m][n + i] for i in range(m)]
        duals = [-y if f else y for y, f in zip(duals, flipped)]
        return LPResult(INFEASIBLE, duals=duals)
    # Drive any leftover artificials out of the basis where possible.
    for i in range(m):
        if basis[i] >= n:
            for j in range(n):
                if tableau[i][j] != 0:
                    pivot(i, j)
                    break

    # Phase 2 with the real objective.
    cost = list(c) + [ZERO] * m + [ZERO]
    tableau[m] = cost
    for i in range(m):
        cb = c[basis[i]] if basis[i] < n else ZERO
        if cb:
            tableau[m] = [a - cb * p for a, p in zip(tableau[m], tableau[i])]
    if run(blocked=set(range(n, total))) == UNBOUNDED:
        return LPResult(UNBOUNDED)
    x = [ZERO] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tableau[i][total]
    value = -tableau[m][total]
    # Reduced cost of artificial i is -y_i (its phase-2 cost is zero).
    duals = [-tableau[m][n + i] for i in range(m)]
    duals = [-y if f else y for y, f in zip(duals, flipped)]
    return LPResult(OPTIMAL, x=x, value=value, duals=duals)


def minimize_over_rows(rows, c) -> LPResult:
    """min c.x over {x : a.x + a0 >= 0 for each row (a..., a0)}, x free.

    ``rows`` are dense tuples with the constant last.  Solved via the dual
    ``max sum(-a0_i) y_i  s.t.  sum_i y_i a_i = c, y >= 0`` so the tableau
    has one row per dimension rather than one per inequality.  The caller
    must guarantee that the region is nonempty and c.x bounded below on
    it; InternalError otherwise.  ``x`` is the primal minimizer (the
    dual's multipliers).
    """
    dim = len(c)
    nrows = len(rows)
    A = [[Fraction(rows[i][k]) for i in range(nrows)] for k in range(dim)]
    b = [Fraction(v) for v in c]
    cost = [Fraction(rows[i][dim]) for i in range(nrows)]
    res = solve_standard(A, b, cost)
    if res.status != OPTIMAL:   # the region is empty or c.x unbounded
        raise InternalError(f"redundancy LP: the dual is {res.status}")
    # The multipliers pi of the dual satisfy N.pi <= a0, so x* = -pi.
    return LPResult(OPTIMAL, x=[-y for y in res.duals], value=-res.value)
