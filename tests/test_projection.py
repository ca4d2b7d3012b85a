import time
from dataclasses import replace
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncpolytope.dd as dd
import ncpolytope.projection as projection
from conftest import (SCENARIO_DIR, contextual_table_41, four_prep_scenario,
                      six_prep_scenario, uniform_table)
from ncpolytope.documents import read_document, scenario_from_doc
from ncpolytope.linalg import (EQ, GEQ, InternalError, LinRow,
                               canonicalize_row, primitive, reduce_modulo)
from ncpolytope.measurement_polytope import build_measurement_h, enumerate_vertices
from ncpolytope.ncsystem import NORMALIZATION, build_f2
from ncpolytope.projection import project_to_nc_polytope
from ncpolytope.scenario import p_var, scenario
from ncpolytope.simplex import OPTIMAL, minimize_over_rows
from oracles import irredundant_rows_oracle, polytope_contains, row_key

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
    return {row_key(f, poly.variables) for f in poly.facets}


def reduced_key(poly, row):
    reduced = reduce_modulo(row, poly.equalities, poly.variables)
    return row_key(canonicalize_row(reduced), poly.variables)


def test_reference_equalities_hold(poly41):
    for row in REFERENCE_EQUALITIES_41:
        residue = reduce_modulo(row, poly41.equalities, poly41.variables)
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
            reduced = canonicalize_row(
                reduce_modulo(row, poly41.equalities, poly41.variables))
            if reduced.coeffs:
                covered.add(row_key(reduced, poly41.variables))
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


def canonical_and_sorted(poly):
    keys = [row_key(f, poly.variables) for f in poly.facets]
    return (poly.facets == [canonicalize_row(f) for f in poly.facets]
            and keys == sorted(set(keys)))


@pytest.mark.parametrize("name, hull", [
    ("simplest", False), ("simplest", True), ("state_discrimination", False)],
    ids=["simplest", "simplest-hull", "state_discrimination"])
def test_facets_leave_both_routes_canonical_and_sorted(name, hull,
                                                       monkeypatch):
    # project_to_nc_polytope neither canonicalizes nor sorts the facets;
    # Fourier-Motzkin on state_discrimination would run for minutes
    if hull:
        monkeypatch.setattr(projection, "FM_MAX_NU_DIM", -1)
    scn = scenario_from_doc(read_document(SCENARIO_DIR / f"{name}.json"))
    f2 = build_f2(scn, enumerate_vertices(build_measurement_h(scn)))
    assert canonical_and_sorted(project_to_nc_polytope(f2))


def test_six_preparation_facets_are_canonical_and_sorted(poly63):
    assert canonical_and_sorted(poly63)


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
    # 8 of these LPs prove a row redundant that no two rows imply; the
    # other 4 keep a row whose aimed shots from every origin end in a tie
    # or in a zero direction
    lps = count_lps(monkeypatch)
    assert project_to_nc_polytope(f2_41).facets == poly41.facets
    assert len(lps) == 12


def test_wrong_shot_point_is_rejected_by_the_witness_check(monkeypatch):
    # a shot point that violates every lower bound certifies no row, so
    # the shots from all five origins fail, the LP decides each row and
    # the facets are unchanged
    scn, f2 = f2_without_equivalences(5)
    expected = project_to_nc_polytope(f2)
    origins = []
    shot = projection._ray_shot

    def wrong_shot(rows, alive, origin, values, direction):
        # the row that the real shot crosses first, with a wrong point
        origins.append(origin)
        first, point = shot(rows, alive, origin, values, direction)
        return first, point and (-1,) * (len(origin) - 1) + (1,)

    monkeypatch.setattr(projection, "_ray_shot", wrong_shot)
    lps = count_lps(monkeypatch)
    assert project_to_nc_polytope(f2).facets == expected.facets
    assert lps
    # the aimed shots after a blocked one repeat its origin
    runs = [o for k, o in enumerate(origins) if not k or o != origins[k - 1]]
    assert len(runs) == 5 * len(lps)
    assert all(len(set(runs[k:k + 5])) == 5 for k in range(0, len(runs), 5))


def test_boundary_point_is_not_taken_for_interior(f2_41, monkeypatch):
    # the origin is tight on the positivity row of a free distribution
    # coordinate
    monkeypatch.setattr(projection, "_interior_point",
                        lambda f2, free: (0,) * len(free) + (1,))
    with pytest.raises(InternalError, match="interior point"):
        project_to_nc_polytope(f2_41)


def test_boundary_point_is_not_taken_for_a_shot_origin(f2_41, monkeypatch):
    # the same boundary point, offered as one more origin for ray shots
    shot_origins = projection._shot_origins
    monkeypatch.setattr(projection, "_shot_origins", lambda interior, rows: (
        shot_origins(interior, rows) + [(0,) * (len(interior) - 1) + (1,)]))
    with pytest.raises(InternalError, match="shot origin"):
        project_to_nc_polytope(f2_41)


def poly_is_unit_box(poly, scn):
    keys = facet_keys(poly)
    expected = set()
    for c in scn.coords():
        for row in (LinRow({p_var(c): 1}, 0, GEQ),
                    LinRow({p_var(c): -1}, F(1), GEQ)):
            reduced = canonicalize_row(
                reduce_modulo(row, poly.equalities, poly.variables))
            if reduced.coeffs:
                expected.add(row_key(reduced, poly.variables))
    return keys == expected


def unnormalized(f2, monkeypatch):
    """F2 without its normalization rows: only nu >= 0 bounds it."""
    keep = [k for k, label in enumerate(f2.eq_labels)
            if label[0] != NORMALIZATION]
    return replace(f2, eq_labels=[f2.eq_labels[k] for k in keep],
                   eq_matrix=[f2.eq_matrix[k] for k in keep])


def in_a_hyperplane(f2, monkeypatch):
    """F2 whose hull route keeps only the vertices at which the last free
    table coordinate is 0, so that the image points lie in a hyperplane."""
    real = projection.vertices
    monkeypatch.setattr(projection, "vertices", lambda *args, **order: [
        ray for ray in real(*args, **order) if ray[-2] == 0])
    return f2


@pytest.mark.parametrize("make, message", [
    pytest.param(unnormalized, "region is unbounded", id="vertices"),
    pytest.param(in_a_hyperplane, "do not span", id="hull_facets")])
def test_hull_dd_failure_is_an_internal_error(f2_41, monkeypatch, make,
                                              message):
    # the distribution polytope is bounded and the image points span the
    # free coordinates, so each kernel call of the hull route raises its
    # own InternalError when driven outside that
    monkeypatch.setattr(projection, "FM_MAX_NU_DIM", -1)
    with pytest.raises(InternalError, match=message):
        project_to_nc_polytope(make(f2_41, monkeypatch))


def test_hull_route_with_no_vertex_is_an_internal_error(f2_41, monkeypatch):
    # the reduced system holds the interior point, so an empty vertex list
    # is a failed invariant, not an empty polytope of the user's input,
    # and the kernel raises it naming the hull route's stage
    monkeypatch.setattr(dd, "extreme_rays", lambda *args, **order: [])
    monkeypatch.setattr(projection, "FM_MAX_NU_DIM", -1)
    with pytest.raises(InternalError, match="distribution vertices: no vertex"):
        project_to_nc_polytope(f2_41)


# --- Two-row certificates -------------------------------------------------
#
# Rows over (x, y, z) with the constant last: (a, b, c, k) means
# a x + b y + c z + k >= 0.

X, Y, Z = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)


def certificate(rows, idx, alive=None):
    alive = alive or [True] * len(rows)
    masks = [projection._sign_masks(r) for r in rows]
    return projection._two_row_certificate(rows, alive, idx, masks)


def holds(rows, idx, cert):
    """lam * row == mu1 * s1 + mu2 * s2 on the coefficients, and the
    row's constant is at least the combination's."""
    lam, mu1, k1, mu2, k2 = cert
    combo = [mu1 * a + mu2 * b for a, b in zip(rows[k1], rows[k2])]
    scaled = [lam * a for a in rows[idx]]
    return (lam > 0 and mu1 >= 0 and mu2 >= 0 and idx not in (k1, k2)
            and scaled[:-1] == combo[:-1] and scaled[-1] >= combo[-1])


@pytest.mark.parametrize("rows", [
    pytest.param([X, Y, (1, 2, 0, 3)], id="two rows plus slack"),
    pytest.param([X, Y, Z, (2, 3, 0, 0)], id="two of three rows"),
    pytest.param([(1, -1, 0, 0), Y, (2, -2, 0, 1)], id="parallel weaker row"),
    pytest.param([(1, 1, 0, 0), (0, -1, 1, 1), (2, 1, 1, 3)],
                 id="cancelling signs"),
])
def test_two_row_certificate_removes_an_implied_row(rows):
    cert = certificate(rows, len(rows) - 1)
    assert cert is not None and holds(rows, len(rows) - 1, cert)


@pytest.mark.parametrize("rows", [
    pytest.param([X, Y, (1, -1, 0, 0)], id="negative multiplier"),
    pytest.param([X, Y, (1, 1, 0, -1)], id="constant shortfall"),
    pytest.param([(2, -2, 0, 1), (1, -1, 0, 0)], id="parallel stronger row"),
    pytest.param([(1, 1, 0, 0), (0, 1, 1, 0), (1, 3, 1, 0)],
                 id="coefficient mismatch"),
    pytest.param([X, Y, (1, 1, 1, 0)], id="uncovered coordinate"),
])
def test_two_row_certificate_rejects_a_row_that_is_not_implied(rows):
    assert certificate(rows, len(rows) - 1) is None


def test_two_row_certificate_uses_alive_rows_only():
    rows = [X, Y, (1, 2, 0, 3)]
    assert certificate(rows, 2, alive=[True, False, True]) is None


# Fourier-Motzkin scenarios shaped like the benchmark's random ones, with
# the number of rows their two-row certificates remove: the simplest
# scenario and a relabeling of it, a two-against-one preparation
# equivalence on three measurements, and a measurement equivalence on
# three, whose eliminations leave no row redundant.
AUDITED = {
    "simplest": (four_prep_scenario, 40),
    "g4_l2_p": (lambda: scenario(g=4, l=2, d=2, oe_p=[
        ({1: HALF, 3: HALF}, {2: HALF, 4: HALF})]), 40),
    "g3_l3_p3": (lambda: scenario(g=3, l=3, d=2, oe_p=[
        ({2: HALF, 3: HALF}, {1: 1})]), 22),
    "g4_l3_m": (lambda: scenario(g=4, l=3, d=2, oe_m=[
        ({(2, 1): HALF, (1, 0): HALF}, {(2, 0): HALF, (3, 1): HALF})]), 0),
}


@pytest.mark.parametrize("name", AUDITED)
def test_every_certified_removal_is_confirmed_by_the_lp(name, monkeypatch):
    # each row a two-row certificate removes is redundant, by the LP over
    # the rows alive at that moment, and the facets stay those of the route
    # that decides every row by an LP or a witness
    make, count = AUDITED[name]
    scn = make()
    f2 = build_f2(scn, enumerate_vertices(build_measurement_h(scn)))
    search = projection._two_row_certificate
    removed = []

    def audited(rows, alive, idx, masks):
        cert = search(rows, alive, idx, masks)
        if cert is not None:
            assert holds(rows, idx, cert)
            row = rows[idx]
            others = [r for k, r in enumerate(rows) if alive[k] and k != idx]
            res = minimize_over_rows(others + [row[:-1] + (row[-1] + 1,)],
                                     [F(a) for a in row[:-1]])
            assert res.status == OPTIMAL and res.value + row[-1] >= 0
            removed.append(row)
        return cert

    monkeypatch.setattr(projection, "_two_row_certificate", audited)
    facets = project_to_nc_polytope(f2).facets
    monkeypatch.setattr(projection, "_two_row_certificate",
                        lambda *args: None)
    assert facets == project_to_nc_polytope(f2).facets
    assert len(removed) == count


def unaimed_shot(rows, alive, idx, origin, values):
    """Only the first shot of :func:`projection._aimed_shot`, along minus
    the row's coefficients."""
    direction = [-a for a in rows[idx][:-1]]
    first, point = projection._ray_shot(rows, alive, origin, values, direction)
    return point if first == idx else None


@pytest.mark.parametrize("name", AUDITED)
def test_every_row_kept_by_an_aimed_shot_is_confirmed_by_the_lp(name,
                                                                monkeypatch):
    # each row that a shot keeps is irredundant, by the LP over the rows
    # alive at that moment; some of them only an aimed shot keeps, and
    # shots along minus each row's coefficients alone give the same facets
    make, _ = AUDITED[name]
    scn = make()
    f2 = build_f2(scn, enumerate_vertices(build_measurement_h(scn)))
    shot = projection._aimed_shot
    aimed = []

    def audited(rows, alive, idx, origin, values):
        point = shot(rows, alive, idx, origin, values)
        if point is not None:
            row = rows[idx]
            others = [r for k, r in enumerate(rows) if alive[k] and k != idx]
            res = minimize_over_rows(others + [row[:-1] + (row[-1] + 1,)],
                                     [F(a) for a in row[:-1]])
            assert res.status == OPTIMAL and res.value + row[-1] < 0
            if unaimed_shot(rows, alive, idx, origin, values) is None:
                aimed.append(row)
        return point

    monkeypatch.setattr(projection, "_aimed_shot", audited)
    facets = project_to_nc_polytope(f2).facets
    monkeypatch.setattr(projection, "_aimed_shot", unaimed_shot)
    assert facets == project_to_nc_polytope(f2).facets
    assert aimed


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_irredundant_rows_equal_the_lp_oracle(data):
    # a box around a known interior point plus random rows, each strictly
    # positive there; a pass with no shot origin decides by LP every row
    # that no two-row certificate removes, and keeps the same rows
    dim = data.draw(st.integers(1, 4), label="dim")
    ints = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
    center = data.draw(ints, label="center")
    coeffs = [[s * (k == j) for j in range(dim)]
              for k in range(dim) for s in (1, -1)]
    coeffs += data.draw(st.lists(ints, max_size=10), label="rows")
    rows = [primitive(a + [data.draw(st.integers(1, 4), label="slack")
                           - sum(map(mul, a, center))]) for a in coeffs]
    origins = projection._shot_origins(tuple(center) + (1,), rows)
    kept = projection.irredundant_rows(rows, origins)
    assert kept == irredundant_rows_oracle(rows)
    assert projection.irredundant_rows(rows, []) == kept
