"""The finite linear system in the vertex-distribution unknowns.

Once the extremal measurement assignments are known, a noncontextual model
is a choice of one probability distribution over them per preparation.
This module builds that system symbolically (data-table probabilities as
placeholder variables, ready for projection) and numerically (the
``M x = b*`` form used by the feasibility check).  Its linking rows,
p(m|M_i,P_j) = sum_k xi_k(m|M_i) nu_j(k), are the one place the map from
distributions to tables is built; projection, optimization and table
reconstruction read it through :meth:`F2System.linking_map`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import EQ, GEQ, ONE, ZERO, LinearSystem, LinRow, substitution_map
from .measurement_polytope import VertexSet
from .scenario import DataTable, DimensionMismatch, Scenario, p_var, p_vars

NORMALIZATION = "normalization"
OE_P = "oe_p"
LINKING = "linking"


class InvalidDistribution(Exception):
    pass


def nu_var(j, kappa) -> tuple:
    return ("nu", j, kappa)


@dataclass
class F2System:
    scenario: Scenario
    vertices: VertexSet
    nu_vars: list       # j-major, kappa-minor
    p_vars: list        # canonical coordinate order
    system: LinearSystem
    # Parallel to the EQ rows of `system`: ("normalization", j),
    # ("oe_p", s, kappa), or ("linking", (i, j, m)).
    eq_labels: list

    def eq_rows(self):
        return self.system.eq_rows()

    def linking_map(self) -> dict:
        """Each p-coordinate's expression ``sum_k xi_k(m|M_i) nu_j(kappa)``.

        The substitution map of the linking rows (each pivots on its
        p-coordinate, the latest variable in the registry), ready for
        ``LinRow.substituted``.
        """
        return substitution_map(
            [r for r, lab in zip(self.eq_rows(), self.eq_labels)
             if lab[0] == LINKING], self.system.variables)


@dataclass
class NumericF2:
    """M x = b*, x >= 0, with the data table substituted in."""

    f2: F2System
    matrix: list    # rows of Fractions over the nu variables
    rhs: list
    row_labels: list

    @property
    def nu_vars(self):
        return self.f2.nu_vars


def build_f2(scn: Scenario, vertices: VertexSet) -> F2System:
    nus = [nu_var(j, k) for j in scn.preparations()
           for k in range(1, len(vertices) + 1)]
    ps = p_vars(scn)
    rows = [LinRow({v: ONE}, ZERO, GEQ) for v in nus]
    labels = []
    for j in scn.preparations():
        rows.append(LinRow({nu_var(j, k): ONE
                            for k in range(1, len(vertices) + 1)}, -ONE, EQ))
        labels.append((NORMALIZATION, j))
    for s, eq in enumerate(scn.oe_p):
        diff = eq.difference()
        for k in range(1, len(vertices) + 1):
            rows.append(LinRow({nu_var(j, k): w for j, w in diff.items()}, ZERO, EQ))
            labels.append((OE_P, s, k))
    for (i, j, m) in scn.coords():
        coeffs = {p_var((i, j, m)): ONE}
        for k in range(1, len(vertices) + 1):
            xi = vertices.component(k, i, m)
            if xi:
                coeffs[nu_var(j, k)] = -xi
        rows.append(LinRow(coeffs, ZERO, EQ))
        labels.append((LINKING, (i, j, m)))
    return F2System(scn, vertices, nus, ps, LinearSystem(nus + ps, rows), labels)


def bind_table(f2: F2System, table: DataTable) -> NumericF2:
    """Substitute a numeric table for the placeholders, yielding M x = b*."""
    probs = table.as_dict()
    if set(probs) != set(f2.scenario.coords()):
        raise DimensionMismatch("table shape does not match the scenario")
    index = {v: k for k, v in enumerate(f2.nu_vars)}
    matrix, rhs, labels = [], [], []
    for row, label in zip(f2.eq_rows(), f2.eq_labels):
        dense = [ZERO] * len(f2.nu_vars)
        # Store the linking row as  sum_k xi*nu = p  (positive xi), so
        # certificate entries read off directly as p coefficients.
        flip = label[0] == LINKING
        b = row.const if flip else -row.const
        for v, c in row.coeffs.items():
            if v in index:
                dense[index[v]] = -c if flip else c
            elif flip:
                b += c * probs[v[1], v[2], v[3]]
            else:
                b -= c * probs[v[1], v[2], v[3]]
        matrix.append(dense)
        rhs.append(b)
        labels.append(label)
    return NumericF2(f2, matrix, rhs, labels)


def reconstruct_table(f2: F2System, nu: dict) -> DataTable:
    """The data table generated by a valid vertex-distribution assignment."""
    missing = [v for v in f2.nu_vars if v not in nu]
    if missing:
        raise InvalidDistribution(f"missing values for {missing[:3]}...")
    for v in f2.nu_vars:
        if nu[v] < 0:
            raise InvalidDistribution(f"{v} = {nu[v]} is negative")
    for row, label in zip(f2.eq_rows(), f2.eq_labels):
        if label[0] != LINKING and row.evaluate(nu) != 0:
            raise InvalidDistribution(
                f"distribution for P_{label[1]} is not normalized"
                if label[0] == NORMALIZATION else
                f"OE_P[{label[1]}] violated at vertex {label[2]}")
    return DataTable.make({p[1:]: LinRow(*expr).evaluate(nu)
                           for p, expr in f2.linking_map().items()})
