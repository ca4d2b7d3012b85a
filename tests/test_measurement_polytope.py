from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (four_prep_scenario, six_prep_scenario,
                      unnormalized_measurement_h)
from ncpolytope.linalg import InternalError
from ncpolytope.measurement_polytope import (EmptyPolytope,
                                             build_measurement_h,
                                             enumerate_vertices, xi_var)
from ncpolytope.scenario import scenario
from oracles import brute_force_vertices, violated_row

F = Fraction
HALF = F(1, 2)
THIRD = F(1, 3)


def test_two_binary_measurements_has_four_deterministic_vertices():
    scn = four_prep_scenario()
    vs = enumerate_vertices(build_measurement_h(scn))
    got = {(v[xi_var(1, 0)], v[xi_var(2, 0)]) for v in vs.vertices}
    assert got == {(F(0), F(0)), (F(0), F(1)), (F(1), F(0)), (F(1), F(1))}
    for v in vs.vertices:
        for i in (1, 2):
            assert v[xi_var(i, 0)] + v[xi_var(i, 1)] == 1


def test_three_constrained_measurements_has_six_half_integer_vertices():
    scn = six_prep_scenario()
    vs = enumerate_vertices(build_measurement_h(scn))
    got = {(v[xi_var(1, 0)], v[xi_var(2, 0)], v[xi_var(3, 0)])
           for v in vs.vertices}
    assert got == {(F(0), HALF, F(1)), (HALF, F(0), F(1)), (F(1), F(0), HALF),
                   (F(1), HALF, F(0)), (F(0), F(1), HALF), (HALF, F(1), F(0))}


def test_single_trit_measurement_is_a_simplex():
    scn = scenario(g=1, l=1, d=3)
    vs = enumerate_vertices(build_measurement_h(scn))
    assert sorted(vs.as_tuples()) == [
        (F(0), F(0), F(1)), (F(0), F(1), F(0)), (F(1), F(0), F(0))]


def test_component_indexing_matches_vertex_order():
    scn = four_prep_scenario()
    vs = enumerate_vertices(build_measurement_h(scn))
    for kappa in range(1, len(vs) + 1):
        for (i, m) in scn.effects():
            assert vs.component(kappa, i, m) == vs.vertices[kappa - 1][xi_var(i, m)]


def test_membership_detects_violations():
    scn = four_prep_scenario()
    h = build_measurement_h(scn)
    inside = {xi_var(i, m): HALF for (i, m) in scn.effects()}
    assert violated_row(h, inside) is None
    outside = dict(inside)
    outside[xi_var(1, 0)] = F(2)
    assert violated_row(h, outside) is not None


def test_uniform_assignment_is_always_a_member():
    # the uniform assignment satisfies every convex equivalence, so the
    # polytope of a valid scenario is never empty
    scn = six_prep_scenario()
    h = build_measurement_h(scn)
    uniform = {xi_var(i, m): HALF for (i, m) in scn.effects()}
    assert violated_row(h, uniform) is None


def test_empty_polytope_raises():
    # a hand-built system with contradictory equalities has no vertices
    from ncpolytope.linalg import EQ, GEQ, LinRow, LinearSystem
    v = xi_var(1, 0)
    rows = [LinRow({v: F(1)}, F(0), GEQ),
            LinRow({v: F(1)}, F(-2), EQ),
            LinRow({v: F(1)}, F(-3), EQ)]
    h = LinearSystem([v], rows)
    with pytest.raises(EmptyPolytope):
        enumerate_vertices(h)


def test_empty_polytope_from_inequalities():
    from ncpolytope.linalg import GEQ, LinRow, LinearSystem
    v = xi_var(1, 0)
    rows = [LinRow({v: F(1)}, F(-2), GEQ),   # x >= 2
            LinRow({v: F(-1)}, F(1), GEQ)]   # x <= 1
    h = LinearSystem([v], rows)
    with pytest.raises(EmptyPolytope):
        enumerate_vertices(h)


def test_equalities_fixing_every_coordinate_give_one_vertex():
    # xi(0|M1) = xi(1|M1) and normalization leave no free coordinate
    scn = scenario(g=1, l=1, d=2, oe_m=[({(1, 0): 1}, {(1, 1): 1})])
    vs = enumerate_vertices(build_measurement_h(scn))
    assert vs.as_tuples() == [(HALF, HALF)]


def test_equalities_fixing_a_point_outside_positivity_are_empty():
    from ncpolytope.linalg import EQ, GEQ, LinRow, LinearSystem
    x, y = xi_var(1, 0), xi_var(1, 1)
    rows = [LinRow({x: F(1)}, F(0), GEQ), LinRow({y: F(1)}, F(0), GEQ),
            LinRow({x: F(1), y: F(1)}, F(-1), EQ),   # x + y = 1
            LinRow({x: F(1), y: F(-1)}, F(-3), EQ)]  # x - y = 3, so y = -1
    with pytest.raises(EmptyPolytope):
        enumerate_vertices(LinearSystem([x, y], rows))


def oe_m_strategy(l, d):
    effects = [(i, m) for i in range(1, l + 1) for m in range(d)]

    def build(idx_pair):
        a, b = idx_pair
        if a == b:
            return None
        return ({effects[a]: F(1)}, {effects[b]: F(1)})

    return st.builds(build, st.tuples(st.integers(0, len(effects) - 1),
                                      st.integers(0, len(effects) - 1)))


@given(st.integers(1, 3), st.integers(2, 3), st.data())
@settings(max_examples=25, deadline=None)
def test_vertices_match_brute_force_oracle(l, d, data):
    """Double description agrees with tight-row enumeration on small cases."""
    if l * d > 6:
        return
    effects = [(i, m) for i in range(1, l + 1) for m in range(d)]
    oe_m = []
    if data.draw(st.booleans()):
        a, b = data.draw(st.tuples(st.integers(0, len(effects) - 1),
                                   st.integers(0, len(effects) - 1)))
        if a != b:
            lhs, rhs = {effects[a]: F(1)}, {effects[b]: F(1)}
            try:
                scn = scenario(g=1, l=l, d=d, oe_m=[(lhs, rhs)])
                oe_m = [(lhs, rhs)]
            except Exception:
                oe_m = []
    scn = scenario(g=1, l=l, d=d, oe_m=oe_m)
    h = build_measurement_h(scn)
    try:
        vs = enumerate_vertices(h)
    except EmptyPolytope:
        assert brute_force_vertices(h) == []
        return
    got = sorted(vs.as_tuples())
    expected = brute_force_vertices(h)
    assert got == expected


def test_vertices_are_deterministic_without_equivalences():
    # without OE rows every vertex is a 0/1 assignment, d^l of them
    for l, d in [(1, 2), (2, 2), (1, 3), (2, 3)]:
        scn = scenario(g=1, l=l, d=d)
        vs = enumerate_vertices(build_measurement_h(scn))
        assert len(vs) == d ** l
        assert all(x in (0, 1) for t in vs.as_tuples() for x in t)


def test_dd_failure_is_an_internal_error():
    # the bounds 0 <= xi <= 1 make a measurement system bounded, so the
    # kernel's error on an unbounded one is a failed invariant, not bad input
    with pytest.raises(InternalError, match="region is unbounded"):
        enumerate_vertices(unnormalized_measurement_h(four_prep_scenario()))
