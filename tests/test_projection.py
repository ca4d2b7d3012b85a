from fractions import Fraction

import pytest

import ncpolytope.projection as projection
from conftest import (contextual_table_41, four_prep_scenario, uniform_table)
from ncpolytope.linalg import EQ, GEQ, InternalError, LinRow, canonicalize_row
from ncpolytope.measurement_polytope import build_measurement_h, enumerate_vertices
from ncpolytope.ncsystem import build_f2
from ncpolytope.projection import (fm_eliminate_var, project_to_nc_polytope,
                                   remove_redundant)
from ncpolytope.scenario import p_var, scenario

F = Fraction
HALF = F(1, 2)


def p(i, j):
    """Shorthand: the probability of outcome 0 for measurement i on
    preparation j."""
    return p_var((i, j, 0))


def upper(coeffs, bound):
    """coeffs . x <= bound as a GEQ LinRow."""
    return LinRow({v: -c for v, c in coeffs.items()}, F(bound), GEQ)


REFERENCE_FACETS_41 = [
    upper({p(1, 2): 1, p(2, 2): 1, p(2, 3): -1, p(1, 4): -1}, 1),
    upper({p(1, 2): 1, p(2, 2): 1, p(1, 3): -1, p(2, 4): -1}, 1),
    upper({p(2, 2): 1, p(1, 3): 1, p(1, 2): -1, p(2, 4): -1}, 1),
    upper({p(1, 2): 1, p(2, 3): 1, p(2, 2): -1, p(1, 4): -1}, 1),
    upper({p(2, 2): 1, p(1, 4): 1, p(1, 2): -1, p(2, 3): -1}, 1),
    upper({p(2, 3): 1, p(1, 4): 1, p(1, 2): -1, p(2, 2): -1}, 1),
    upper({p(1, 2): 1, p(2, 4): 1, p(2, 2): -1, p(1, 3): -1}, 1),
    upper({p(1, 3): 1, p(2, 4): 1, p(1, 2): -1, p(2, 2): -1}, 1),
]

REFERENCE_EQUALITIES_41 = [
    LinRow({p(1, 1): 1, p(1, 2): 1, p(1, 3): -1, p(1, 4): -1}, 0, EQ),
    LinRow({p(2, 1): 1, p(2, 2): 1, p(2, 3): -1, p(2, 4): -1}, 0, EQ),
]


def facet_keys(poly):
    return {f.key(poly.variables) for f in poly.facets}


def reduced_key(poly, row):
    return canonicalize_row(poly.reduce(row)).key(poly.variables)


def test_reference_equalities_hold(poly41):
    for row in REFERENCE_EQUALITIES_41:
        residue = poly41.reduce(row)
        assert not residue.coeffs and residue.const == 0


def test_facets_match_reference_modulo_equalities(poly41):
    keys = facet_keys(poly41)
    covered = set()
    for row in REFERENCE_FACETS_41:
        k = reduced_key(poly41, row)
        assert k in keys
        covered.add(k)
    assert len(covered) == len(REFERENCE_FACETS_41)
    # the remaining facets are exactly the nontrivial 0/1 bounds
    scn = four_prep_scenario()
    for c in scn.coords():
        for row in (LinRow({p_var(c): 1}, 0, GEQ),
                    LinRow({p_var(c): -1}, F(1), GEQ)):
            reduced = canonicalize_row(poly41.reduce(row))
            if reduced.coeffs:
                covered.add(reduced.key(poly41.variables))
    assert covered == keys


def test_sign_pair_structure(poly41):
    # the eight nontrivial facets come in negation pairs: flipping the
    # sign of the coefficient vector (keeping the bound) maps facets to
    # facets
    keys = facet_keys(poly41)
    for row in REFERENCE_FACETS_41:
        flipped = LinRow({v: -c for v, c in row.coeffs.items()}, row.const,
                         GEQ)
        assert reduced_key(poly41, flipped) in keys


def test_membership_of_known_tables(poly41):
    scn = four_prep_scenario()
    assert poly41.contains(uniform_table(scn).as_dict())
    assert not poly41.contains(contextual_table_41().as_dict())


def test_engines_agree_on_small_scenarios(f2_41):
    fm = project_to_nc_polytope(f2_41, engine="fm")
    hull = project_to_nc_polytope(f2_41, engine="hull")
    assert fm.equalities == hull.equalities
    assert fm.facets == hull.facets


def test_engines_agree_without_equivalences():
    scn = scenario(g=2, l=2, d=2)
    f2 = build_f2(scn, enumerate_vertices(build_measurement_h(scn)))
    fm = project_to_nc_polytope(f2, engine="fm")
    hull = project_to_nc_polytope(f2, engine="hull")
    assert fm.equalities == hull.equalities
    assert fm.facets == hull.facets
    # with no equivalences the polytope is the full box
    assert poly_is_unit_box(fm, scn)


def poly_is_unit_box(poly, scn):
    keys = facet_keys(poly)
    expected = set()
    for c in scn.coords():
        for row in (LinRow({p_var(c): 1}, 0, GEQ),
                    LinRow({p_var(c): -1}, F(1), GEQ)):
            reduced = canonicalize_row(poly.reduce(row))
            if reduced.coeffs:
                expected.add(reduced.key(poly.variables))
    return keys == expected


@pytest.mark.parametrize("kernel", ["vertices", "hull_facets"])
def test_hull_dd_failure_is_an_internal_error(f2_41, monkeypatch, kernel):
    # the distribution polytope is bounded and the image points span the
    # free coordinates, so a ValueError from the kernel is a failed invariant
    def fails(*args):
        raise ValueError("inequality rows do not span the space")

    monkeypatch.setattr(projection, kernel, fails)
    with pytest.raises(InternalError, match="do not span"):
        project_to_nc_polytope(f2_41, engine="hull")


def test_unknown_engine_rejected(f2_41):
    with pytest.raises(ValueError):
        project_to_nc_polytope(f2_41, engine="cdd")


def test_fm_eliminate_projects_a_square():
    # project {0 <= x <= 1, 0 <= y <= 1, x + y >= 1/2} along y
    rows = [LinRow({"x": 1}, 0, GEQ), LinRow({"x": -1}, F(1), GEQ),
            LinRow({"y": 1}, 0, GEQ), LinRow({"y": -1}, F(1), GEQ),
            LinRow({"x": 1, "y": 1}, F(-1, 2), GEQ)]
    out = fm_eliminate_var(rows, "y")
    # the shadow is 0 <= x <= 1 (x + 1 - 1/2 >= 0 is implied)
    points = [F(-1), F(0), HALF, F(1), F(2)]
    for x in points:
        inside = 0 <= x <= 1
        assert all(r.satisfied_by({"x": x}) for r in out) == inside


def test_fm_eliminate_rejects_equalities():
    with pytest.raises(ValueError):
        fm_eliminate_var([LinRow({"x": 1}, 0, EQ)], "x")


def test_remove_redundant_keeps_tight_rows():
    rows = [LinRow({"x": 1}, 0, GEQ),          # x >= 0
            LinRow({"x": -1}, F(1), GEQ),      # x <= 1
            LinRow({"x": -1}, F(2), GEQ),      # x <= 2, redundant
            LinRow({"x": 1}, F(1), GEQ)]       # x >= -1, redundant
    out = remove_redundant(rows)
    assert out == rows[:2]


def test_remove_redundant_uses_equalities():
    # modulo x = y, the two bounds coincide
    rows = [LinRow({"x": -1}, F(1), GEQ), LinRow({"y": -1}, F(1), GEQ)]
    eqs = [LinRow({"x": 1, "y": -1}, 0, EQ)]
    out = remove_redundant(rows, eqs)
    assert len(out) == 1
