"""The finite linear system in the vertex-distribution unknowns.

Once the extremal measurement assignments are known, a noncontextual model
is a choice of one probability distribution over them per preparation:
``M x = b*, x >= 0`` over the distributions, where only ``b*`` depends on
the data table.  :func:`build_f2` builds the equalities once, as dense
Fraction rows over the distribution unknowns with a label each; the
linking rows, p(m|M_i,P_j) = sum_k xi_k(m|M_i) nu_j(k), are the one map
from distributions to tables.  Every reader uses these rows, and none makes
symbolic ones: :func:`bind_table` computes ``b*`` and the table's
equivalence residuals, optimization and table reconstruction take the
linking rows by coordinate, and the projection reduces them as integer rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import ONE, ZERO
from .measurement_polytope import VertexSet
from .scenario import (DataTable, DimensionMismatch, Scenario,
                       equivalence_rows, p_vars)

NORMALIZATION = "normalization"
OE_P = "oe_p"
LINKING = "linking"


class InvalidDistribution(Exception):
    pass


def nu_var(j, kappa) -> tuple:
    return ("nu", j, kappa)


def dot(a, b):
    """a.b, skipping the zero entries of a."""
    return sum((x * y for x, y in zip(a, b) if x), ZERO)


def fixed_rhs(label):
    """b of a row that no table changes: 1 for normalization, 0 for OE_P."""
    return ONE if label[0] == NORMALIZATION else ZERO


@dataclass
class F2System:
    scenario: Scenario
    vertices: VertexSet
    nu_vars: list       # j-major, kappa-minor
    p_vars: list        # canonical coordinate order
    # ("normalization", j), ("oe_p", s, kappa) or ("linking", (i, j, m)),
    # parallel to eq_matrix: rows of Fractions over nu_vars with
    # row . nu = b, where b is the table's p(m|M_i,P_j) for a linking row
    # (which holds xi_k(m|M_i) in the nu_j(k) column) and fixed_rhs else.
    eq_labels: list
    eq_matrix: list


@dataclass
class NumericF2:
    """M x = b*, x >= 0, with M and its labels shared with the F2System."""

    f2: F2System
    rhs: list
    # The equivalence row with the largest |residual| r on the table (the
    # first in scenario order on ties) as (id, slot, weights, r), from
    # scenario.equivalence_rows; None when the table keeps them all.
    broken: tuple | None

    @property
    def nu_vars(self):
        return self.f2.nu_vars

    @property
    def matrix(self):
        return self.f2.eq_matrix

    @property
    def row_labels(self):
        return self.f2.eq_labels


def build_f2(scn: Scenario, vertices: VertexSet) -> F2System:
    n = len(vertices)
    nus = [nu_var(j, k) for j in scn.preparations() for k in range(1, n + 1)]
    labels, matrix = [], []

    def add(label, entries):
        """A row from {(j, kappa): coefficient}, in the nu_j(kappa) columns."""
        row = [ZERO] * len(nus)
        for (j, k), a in entries.items():
            row[(j - 1) * n + k - 1] = a
        labels.append(label)
        matrix.append(row)

    for j in scn.preparations():
        add((NORMALIZATION, j), {(j, k): ONE for k in range(1, n + 1)})
    for s, eq in enumerate(scn.oe_p):
        diff = eq.difference()
        for k in range(1, n + 1):
            add((OE_P, s, k), {(j, k): w for j, w in diff.items()})
    for (i, j, m) in scn.coords():
        add((LINKING, (i, j, m)),
            {(j, k): vertices.component(k, i, m) for k in range(1, n + 1)})
    return F2System(scn, vertices, nus, p_vars(scn), labels, matrix)


def bind_table(f2: F2System, table: DataTable) -> NumericF2:
    """b* for a numeric table, and the one scan of its equivalence residuals."""
    probs = table.as_dict()
    if set(probs) != set(f2.scenario.coords()):
        raise DimensionMismatch("table shape does not match the scenario")
    rhs = [probs[label[1]] if label[0] == LINKING else fixed_rhs(label)
           for label in f2.eq_labels]
    worst, broken = ZERO, None
    for oe, slot, weights in equivalence_rows(f2.scenario):
        r = sum((w * probs[c] for c, w in weights.items()), ZERO)
        if abs(r) > worst:
            worst, broken = abs(r), (oe, slot, weights, r)
    return NumericF2(f2, rhs, broken)


def reconstruct_table(f2: F2System, nu: dict) -> DataTable:
    """The data table generated by a valid vertex-distribution assignment."""
    missing = [v for v in f2.nu_vars if v not in nu]
    if missing:
        raise InvalidDistribution(f"missing values for {missing[:3]}...")
    for v in f2.nu_vars:
        if nu[v] < 0:
            raise InvalidDistribution(f"{v} = {nu[v]} is negative")
    x = [nu[v] for v in f2.nu_vars]
    probs = {}
    for label, row in zip(f2.eq_labels, f2.eq_matrix):
        if label[0] == LINKING:
            probs[label[1]] = dot(row, x)
        elif dot(row, x) != fixed_rhs(label):
            raise InvalidDistribution(
                f"distribution for P_{label[1]} is not normalized"
                if label[0] == NORMALIZATION else
                f"OE_P[{label[1]}] violated at vertex {label[2]}")
    return DataTable.make(probs)
