"""Exact feasibility checking of numeric data tables, with certificates.

A table admits a noncontextual model iff the system ``M x = b*, x >= 0``
over the vertex-distribution unknowns has a solution.  Infeasibility is
certified by a Farkas dual ``y`` with ``0 <= y.M <= 1`` and ``y.b* < 0``.
The most violated such ``y`` comes from the LP dual of that box problem,
``min 1.mu  s.t.  M (lambda - mu) = b*,  lambda, mu >= 0``, whose optimum
is the least total negativity of a quasiprobability representation of
the table (zero exactly when a model exists).  When the table breaks an
operational equivalence, ``b*`` leaves the column span of ``M``; no LP is
solved then, because the broken equality itself is a Farkas vector with
``y.M = 0``; :func:`.ncsystem.bind_table` finds that equality in its one
scan of the residuals (see :func:`_equivalence_certificate`).  Reading the
linking-block entries of ``y`` as coefficients on the table probabilities
turns the certificate into a violated noncontextuality inequality whose
constant term is the sum of the normalization-block entries.  A table
that keeps every equivalence but has no model costs two LPs, the phase-1
LP that finds none and the box LP.  Every verdict is checked exactly
before it is returned.  A model must rebuild the table
(:func:`.ncsystem.reconstruct_table`).  A certificate, from the LP or in
closed form, must have ``y.b* < 0`` and ``0 <= y.M <= 1``, read off one
integer pass over the nonzero entries of ``y`` that gives ``y.[M | b*]``
over one denominator, so a closed-form check costs time in proportion to
the broken equality's support.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .linalg import (GEQ, ONE, ZERO, InputError, InternalError, LinRow,
                     int_row)
from .measurement_polytope import VertexSet
from .ncsystem import (LINKING, NORMALIZATION, OE_P, InvalidDistribution,
                       NumericF2, build_f2, bind_table, fixed_rhs,
                       reconstruct_table)
from .scenario import (PREP, DataTable, DimensionMismatch, Scenario, p_var,
                       validate_table)
from .simplex import OPTIMAL, UNBOUNDED, solve_standard


class PrimalFeasible(Exception):
    """farkas_certificate was called on a feasible system."""


class MalformedTable(InputError):
    """The table fails normalization; it is malformed, not contextual."""


@dataclass
class Certificate:
    """A verified Farkas dual for an infeasible table."""

    y: list                  # indexed like F2System.eq_labels
    row_labels: list
    value: Fraction          # y . b*, strictly negative
    # (PREP, s) or (MEAS, r) when y is the equality of an operational
    # equivalence the table breaks (then y.M = 0); None for an LP certificate
    broken_equivalence: tuple | None = None


@dataclass
class Feasible:
    nu: dict                 # an explicit noncontextual model


@dataclass
class Infeasible:
    certificate: Certificate
    inequality: LinRow       # canonical GEQ row over p-coordinates
    violation: Fraction      # amount by which the table violates it


Verdict = Feasible | Infeasible


def check_table(scn: Scenario, vertices: VertexSet, table: DataTable) -> Verdict:
    """Decide noncontextuality of a numeric table, with witness or certificate."""
    if not validate_table(scn, table):  # raises DimensionMismatch on shape
        raise MalformedTable("table entries are not normalized probabilities")
    f2 = build_f2(scn, vertices)
    numeric = bind_table(f2, table)
    if numeric.broken is None:
        res = solve_standard(f2.eq_matrix, numeric.rhs,
                             [ZERO] * len(f2.nu_vars))
        if res.status == OPTIMAL:
            nu = dict(zip(f2.nu_vars, res.x))
            try:
                rebuilt = reconstruct_table(f2, nu)
            except InvalidDistribution as exc:
                raise InternalError(f"phase-1 model: {exc}") from exc
            if rebuilt.as_dict() != table.as_dict():
                raise InternalError("phase-1 model does not rebuild the table")
            return Feasible(nu)
    try:
        cert = farkas_certificate(numeric)
    except PrimalFeasible as exc:
        raise InternalError(f"phase 1 found no model, yet {exc}") from exc
    inequality, violation = certificate_to_inequality(cert)
    return Infeasible(cert, inequality, violation)


def farkas_certificate(numeric: NumericF2) -> Certificate:
    """Most-violated certificate: min y.b* subject to 0 <= y.M <= 1.

    Solved to optimality through its LP dual (see :func:`_solve_box_dual`),
    so |y.b*| is the largest violation the box normalization allows.  A
    table that breaks an operational equivalence has no most-violated
    certificate (the box LP is unbounded); it gets the broken equality in
    closed form instead, with y.M = 0 (see :func:`_equivalence_certificate`).
    """
    broken = _equivalence_certificate(numeric)
    oe, y = broken if broken else (None, _solve_box_dual(numeric))
    ym, den = _y_dot_system(y, numeric)
    value = Fraction(ym.pop(), den)
    if value >= 0:
        raise PrimalFeasible("the primal system M x = b* has a solution")
    for k, a in enumerate(ym):
        if not 0 <= a <= den:
            raise InternalError("certificate violates box constraint: "
                                f"(y.M)_{k} = {Fraction(a, den)}")
    return Certificate(y, list(numeric.f2.eq_labels), value, oe)


def _equivalence_certificate(numeric: NumericF2):
    """The broken equivalence's id and its equality as a Farkas vector.

    Takes the equality that :func:`.ncsystem.bind_table` stored as
    ``numeric.broken``, the one with the largest |residual| r on the table,
    and returns ``(id, y)`` with y.M = 0 and y.b* = -|r|, or None when the
    table keeps every equivalence.  With c = -sign(r): a preparation
    equivalence s broken at effect (i, m) gives y_linking(i, j, m) =
    c diff_s(j) and y_oe_p(s, k) = -c xi_k(m|M_i), which cancel on every
    column nu_j(k); a measurement equivalence broken at P_j gives
    y_linking(i, j, m) = c diff(i, m), whose column sums vanish because
    every vertex xi_k keeps that equivalence.
    """
    if numeric.broken is None:
        return None
    (kind, s), slot, weights, r = numeric.broken
    labels = numeric.f2.eq_labels
    c = -ONE if r > 0 else ONE
    row = {lab: n for n, lab in enumerate(labels)}
    y = [ZERO] * len(labels)
    for coord, w in weights.items():
        y[row[LINKING, coord]] = c * w
    if kind == PREP:
        i, m = slot
        vertices = numeric.f2.vertices
        for k in range(1, len(vertices) + 1):
            y[row[OE_P, s, k]] = -c * vertices.component(k, i, m)
    return (kind, s), y


def _solve_box_dual(numeric: NumericF2):
    """Exact solution of  min y.b*  s.t.  0 <= y.M <= 1,  y free.

    Solved as its LP dual  min 1.mu  s.t.  M (lambda - mu) = b*,
    lambda, mu >= 0: the least total negative weight of a quasiprobability
    reproducing the table.  Its multipliers satisfy -1 <= y.M <= 0, and
    when b* leaves the column span of M the phase-1 Farkas vector has
    y.M = 0; either way the certificate is minus the multipliers.
    """
    n = len(numeric.f2.nu_vars)
    A = [row + [-a for a in row] for row in numeric.f2.eq_matrix]
    res = solve_standard(A, numeric.rhs, [ZERO] * n + [ONE] * n)
    if res.status == UNBOUNDED:
        raise InternalError("least-negativity LP cannot be unbounded (mu >= 0)")
    return [-v for v in res.duals]


def _y_dot_system(y, numeric: NumericF2):
    """y.[M | b*] as ints over one positive denominator, ``(ym, den)``,
    accumulated row by row over the nonzero y_i only."""
    support = [(v, row + [b]) for v, row, b
               in zip(y, numeric.f2.eq_matrix, numeric.rhs) if v]
    den_y = lcm(*[v.denominator for v, _ in support])
    den_m = lcm(*[a.denominator for _, row in support for a in row if a])
    ym = [0] * (len(numeric.f2.nu_vars) + 1)
    for v, row in support:
        scaled = v.numerator * (den_y // v.denominator)
        for k, a in enumerate(row):
            if a:
                ym[k] += scaled * a.numerator * (den_m // a.denominator)
    return ym, den_y * den_m


def certificate_to_inequality(cert: Certificate):
    """Translate a certificate into a violated noncontextuality inequality.

    The inequality ``sum(gamma.p) + gamma0 >= 0`` holds for every feasible
    table; the violation reported is the (positive) amount by which the
    canonicalized inequality fails on the submitted table.
    """
    terms = [(p_var(label[1]), v) for label, v in zip(cert.row_labels, cert.y)
             if v and label[0] == LINKING]
    gamma0 = sum([v for label, v in zip(cert.row_labels, cert.y)
                  if v and label[0] == NORMALIZATION], ZERO)
    values = [v for _, v in terms] + [gamma0]
    # The canonical row: the coprime ints proportional to (gamma, gamma0).
    ints = int_row(values)
    inequality = LinRow(dict(zip([var for var, _ in terms], ints)), ints[-1],
                        GEQ)
    # It is a positive rescaling of y.b >= 0, so the exact violation is
    # minus its value on the table encoded in the certificate.
    k = next(k for k, v in enumerate(values) if v)
    violation = -cert.value * ints[k] / values[k]
    return inequality, violation


def optimize(scn: Scenario, vertices: VertexSet, objective: LinRow, sense="max"):
    """Exact optimum of a linear functional of the table over the NC polytope.

    Works directly on the vertex-distribution parametrization (no
    projection needed): the objective read through the linking rows is a
    cost on the distributions, minimized by one LP over the other rows.
    Returns the optimal value and a witness table attaining it.
    """
    if sense not in ("max", "min"):
        raise ValueError("sense must be 'max' or 'min'")
    f2 = build_f2(scn, vertices)
    known = set(f2.p_vars)
    bad = [v for v in objective.coeffs if v not in known]
    if bad:
        raise DimensionMismatch("objective mentions unknown coordinates "
                                + ", ".join(str(list(v[1:])) for v in bad[:3]))
    rows = dict(zip(f2.eq_labels, f2.eq_matrix))
    c = [ZERO] * len(f2.nu_vars)
    for v, w in objective.coeffs.items():
        for k, a in enumerate(rows[LINKING, v[1:]]):
            c[k] += w * a
    if sense == "max":
        c = [-a for a in c]
    model = [lab for lab in f2.eq_labels if lab[0] != LINKING]
    res = solve_standard([rows[lab] for lab in model],
                         [fixed_rhs(lab) for lab in model], c)
    if res.status != OPTIMAL:
        raise InternalError(f"optimize LP {res.status} on a nonempty bounded polytope")
    nu = dict(zip(f2.nu_vars, res.x))
    value = (-res.value if sense == "max" else res.value) + objective.const
    try:
        return value, reconstruct_table(f2, nu)
    except InvalidDistribution as exc:
        raise InternalError(f"optimize LP solution: {exc}") from exc
