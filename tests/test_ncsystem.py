from fractions import Fraction

import pytest

from conftest import four_prep_scenario, six_prep_scenario, uniform_table
from ncpolytope.measurement_polytope import build_measurement_h, enumerate_vertices
from ncpolytope.ncsystem import (LINKING, NORMALIZATION, OE_P,
                                 InvalidDistribution, bind_table, build_f2,
                                 nu_var, reconstruct_table)
from ncpolytope.scenario import DataTable, DimensionMismatch, p_var

F = Fraction


@pytest.fixture(scope="module", params=["four", "six"])
def f2(request):
    scn = four_prep_scenario() if request.param == "four" else six_prep_scenario()
    return build_f2(scn, enumerate_vertices(build_measurement_h(scn)))


def test_row_counts(f2):
    scn = f2.scenario
    nverts = len(f2.vertices)
    assert len(f2.nu_vars) == scn.g * nverts
    assert len(f2.system().geq_rows()) == scn.g * nverts
    labels = [lab[0] for lab in f2.eq_labels]
    assert labels.count(NORMALIZATION) == scn.g
    assert labels.count(OE_P) == nverts * len(scn.oe_p)
    assert labels.count(LINKING) == scn.l * scn.g * scn.d
    assert len(f2.eq_matrix) == len(f2.eq_labels)
    assert all(len(row) == len(f2.nu_vars) for row in f2.eq_matrix)
    assert len(f2.system().eq_rows()) == len(f2.eq_labels)


def test_linking_rows_carry_vertex_components(f2):
    """A dense linking row holds xi_k(m|M_i) in the nu_j(k) column; the
    symbolic row that the projection reads is p - sum_k xi_k nu_j(k) = 0."""
    scn = f2.scenario
    nverts = len(f2.vertices)
    column = {v: k for k, v in enumerate(f2.nu_vars)}
    dense = {lab[1]: row for row, lab in zip(f2.eq_matrix, f2.eq_labels)
             if lab[0] == LINKING}
    symbolic = {lab[1]: row for row, lab in
                zip(f2.system().eq_rows(), f2.eq_labels) if lab[0] == LINKING}
    for (i, j, m) in scn.coords():
        row = symbolic[i, j, m]
        assert row.coeffs[p_var((i, j, m))] == 1 and row.const == 0
        for k in range(1, nverts + 1):
            xi = f2.vertices.component(k, i, m)
            assert row.coeffs.get(nu_var(j, k), 0) == -xi
            assert dense[i, j, m][column[nu_var(j, k)]] == xi
        assert sum(1 for a in dense[i, j, m] if a) == \
            sum(1 for v in row.coeffs if v[0] == "nu")


def test_system_matches_dense_rows(f2):
    """Each symbolic equality is its dense row minus b: normalization rows
    read sum nu - 1 = 0 and OE_P rows diff . nu = 0."""
    for row, dense, lab in zip(f2.system().eq_rows(), f2.eq_matrix,
                               f2.eq_labels):
        if lab[0] == LINKING:
            continue
        assert row.coeffs == {v: a for v, a in zip(f2.nu_vars, dense) if a}
        assert row.const == (-1 if lab[0] == NORMALIZATION else 0)


def test_bind_table_produces_matching_system(f2):
    scn = f2.scenario
    numeric = bind_table(f2, uniform_table(scn))
    assert numeric.matrix is f2.eq_matrix
    assert numeric.row_labels is f2.eq_labels
    assert len(numeric.rhs) == len(f2.eq_matrix)
    assert numeric.broken is None
    # non-linking rows keep their constants; linking rows carry the table
    for row, b, lab in zip(numeric.matrix, numeric.rhs, numeric.row_labels):
        if lab[0] == NORMALIZATION:
            assert b == 1
        elif lab[0] == OE_P:
            assert b == 0
        else:
            assert b == F(1, 2)
            assert all(c >= 0 for c in row)


def test_bind_table_rejects_wrong_shape(f2):
    with pytest.raises(DimensionMismatch):
        bind_table(f2, DataTable.make({(1, 1, 0): F(1, 2)}))


def test_reconstruct_uniform_model(f2):
    scn = f2.scenario
    nverts = len(f2.vertices)
    w = F(1, nverts)
    nu = {nu_var(j, k): w for j in scn.preparations()
          for k in range(1, nverts + 1)}
    table = reconstruct_table(f2, nu)
    # the uniform mixture of vertices averages each effect over vertices
    for (i, j, m) in scn.coords():
        avg = sum(f2.vertices.component(k, i, m)
                  for k in range(1, nverts + 1)) * w
        assert table.as_dict()[i, j, m] == avg


def test_reconstruct_rejects_bad_distributions(f2):
    scn = f2.scenario
    nverts = len(f2.vertices)
    good = {nu_var(j, k): F(1, nverts) for j in scn.preparations()
            for k in range(1, nverts + 1)}
    with pytest.raises(InvalidDistribution):
        reconstruct_table(f2, {k: v for k, v in list(good.items())[:-1]})
    bad = dict(good)
    bad[nu_var(1, 1)] = F(-1, nverts)
    with pytest.raises(InvalidDistribution):
        reconstruct_table(f2, bad)
    bad = dict(good)
    bad[nu_var(1, 1)] = F(2)
    with pytest.raises(InvalidDistribution):
        reconstruct_table(f2, bad)


def test_reconstruct_rejects_oe_violation():
    scn = four_prep_scenario()
    f2 = build_f2(scn, enumerate_vertices(build_measurement_h(scn)))
    nverts = len(f2.vertices)
    # point masses on different vertices for P1..P4 break the equivalence
    nu = {nu_var(j, k): F(0) for j in scn.preparations()
          for k in range(1, nverts + 1)}
    nu[nu_var(1, 1)] = F(1)
    nu[nu_var(2, 1)] = F(1)
    nu[nu_var(3, 2)] = F(1)
    nu[nu_var(4, 2)] = F(1)
    with pytest.raises(InvalidDistribution):
        reconstruct_table(f2, nu)
