import time
from fractions import Fraction

import pytest

import ncpolytope.measurement_polytope as measurement_polytope
import ncpolytope.projection as projection
from conftest import (contextual_table_41, four_prep_scenario,
                      six_prep_scenario, uniform_table)
from ncpolytope.linalg import EQ, GEQ, InternalError, LinRow, canonicalize_row
from ncpolytope.measurement_polytope import build_measurement_h, enumerate_vertices
from ncpolytope.ncsystem import build_f2
from ncpolytope.projection import project_to_nc_polytope
from ncpolytope.scenario import p_var, scenario
from oracles import polytope_contains

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
    assert polytope_contains(poly41, uniform_table(scn).as_dict())
    assert not polytope_contains(poly41, contextual_table_41().as_dict())


def fm_and_hull(f2, monkeypatch):
    """The projection by each route, forced through ``FM_MAX_NU_DIM``."""
    out = []
    for limit in (len(f2.nu_vars), -1):
        monkeypatch.setattr(projection, "FM_MAX_NU_DIM", limit)
        out.append(project_to_nc_polytope(f2))
    return out


def test_engines_agree_on_small_scenarios(f2_41, monkeypatch):
    fm, hull = fm_and_hull(f2_41, monkeypatch)
    assert fm.equalities == hull.equalities
    assert fm.facets == hull.facets


def test_engines_agree_without_equivalences(monkeypatch):
    scn = scenario(g=2, l=2, d=2)
    f2 = build_f2(scn, enumerate_vertices(build_measurement_h(scn)))
    fm, hull = fm_and_hull(f2, monkeypatch)
    assert fm.equalities == hull.equalities
    assert fm.facets == hull.facets
    # with no equivalences the polytope is the full box
    assert poly_is_unit_box(fm, scn)


def test_default_route_finishes_with_nine_distribution_coordinates():
    # nine free distribution coordinates: Fourier-Motzkin runs for minutes
    # on this scenario, and the hull route takes a fraction of a second
    scn = scenario(g=4, l=3, d=2,
                   oe_p=[({1: HALF, 2: HALF}, {3: HALF, 4: HALF})],
                   oe_m=six_prep_scenario().oe_m)
    f2 = build_f2(scn, enumerate_vertices(build_measurement_h(scn)))
    start = time.perf_counter()
    poly = project_to_nc_polytope(f2)
    assert time.perf_counter() - start < 60
    assert len(poly.facets) == 144
    assert len(poly.equalities) == 18


def count_lps(monkeypatch):
    """The list that each projection LP appends to, from now on."""
    calls = []
    solve = projection.minimize_over_rows

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(projection, "minimize_over_rows", counting)
    return calls


def f2_without_equivalences(g):
    scn = scenario(g=g, l=2, d=2)
    return scn, build_f2(scn, enumerate_vertices(build_measurement_h(scn)))


@pytest.mark.parametrize("g, facets", [(5, 20), (8, 32)])
def test_facets_are_certified_without_lps(monkeypatch, g, facets):
    # every facet of the unit box is found by a ray shot from the interior
    # point, and no row of these systems is redundant, so no LP runs
    scn, f2 = f2_without_equivalences(g)
    lps = count_lps(monkeypatch)
    start = time.perf_counter()
    poly = project_to_nc_polytope(f2)
    # the hull route would enumerate 4**g distribution vertices
    assert time.perf_counter() - start < 20
    assert len(poly.facets) == facets
    assert poly_is_unit_box(poly, scn)
    assert lps == []


def test_lp_count_on_the_four_preparation_scenario(f2_41, poly41, monkeypatch):
    # most of these LPs prove a row redundant, which a ray shot cannot
    lps = count_lps(monkeypatch)
    assert project_to_nc_polytope(f2_41).facets == poly41.facets
    assert len(lps) == 70


def test_wrong_shot_point_is_rejected_by_the_witness_check(monkeypatch):
    # a shot point that violates every lower bound certifies no row, so
    # the LP decides each row and the facets are unchanged
    scn, f2 = f2_without_equivalences(5)
    expected = project_to_nc_polytope(f2)

    def wrong_shot(rows, alive, idx, interior, values):
        return (-1,) * len(interior[0]), 1

    monkeypatch.setattr(projection, "_ray_shot", wrong_shot)
    lps = count_lps(monkeypatch)
    assert project_to_nc_polytope(f2).facets == expected.facets
    assert lps


def test_boundary_point_is_not_taken_for_interior(f2_41, monkeypatch):
    # the origin is tight on the positivity row of a free distribution
    # coordinate
    monkeypatch.setattr(projection, "_interior_point",
                        lambda f2, free: ((0,) * len(free), 1))
    with pytest.raises(InternalError, match="interior point"):
        project_to_nc_polytope(f2_41)


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


@pytest.mark.parametrize("module, kernel", [
    pytest.param(measurement_polytope, "vertices", id="vertices"),
    pytest.param(projection, "hull_facets", id="hull_facets")])
def test_hull_dd_failure_is_an_internal_error(f2_41, monkeypatch, module,
                                              kernel):
    # the distribution polytope is bounded and the image points span the
    # free coordinates, so a ValueError from the kernel is a failed invariant
    def fails(*args):
        raise ValueError("inequality rows do not span the space")

    monkeypatch.setattr(module, kernel, fails)
    monkeypatch.setattr(projection, "FM_MAX_NU_DIM", -1)
    with pytest.raises(InternalError, match="do not span"):
        project_to_nc_polytope(f2_41)
