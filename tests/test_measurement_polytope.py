from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (four_prep_scenario, six_prep_scenario,
                      unnormalized_measurement_h)
from ncpolytope.linalg import InternalError
from ncpolytope.measurement_polytope import (build_measurement_h,
                                             enumerate_vertices, xi_var)
from ncpolytope.scenario import scenario
from oracles import brute_force_vertices, linrows, violated_row

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
    _, rows = linrows(build_measurement_h(scn))
    inside = {xi_var(i, m): HALF for (i, m) in scn.effects()}
    assert violated_row(rows, inside) is None
    outside = dict(inside)
    outside[xi_var(1, 0)] = F(2)
    assert violated_row(rows, outside) is not None


@st.composite
def oe_m_scenarios(draw):
    """A valid scenario with up to three random measurement equivalences,
    each side a convex combination of up to three effects."""
    l, d = draw(st.integers(1, 3)), draw(st.integers(2, 3))
    effects = [(i, m) for i in range(1, l + 1) for m in range(d)]

    def side():
        keys = draw(st.lists(st.sampled_from(effects), min_size=1,
                             max_size=3, unique=True))
        weights = [draw(st.integers(1, 4)) for _ in keys]
        return {k: F(w, sum(weights)) for k, w in zip(keys, weights)}

    oe_m = [(side(), side()) for _ in range(draw(st.integers(0, 3)))]
    assume(all(lhs != rhs for lhs, rhs in oe_m))
    return scenario(g=1, l=l, d=d, oe_m=oe_m)


@given(oe_m_scenarios())
@settings(max_examples=40, deadline=None)
def test_uniform_assignment_is_always_a_member(scn):
    # the uniform assignment satisfies every convex equivalence, so the
    # polytope of a valid scenario is never empty and always has a vertex
    h = build_measurement_h(scn)
    uniform = {xi_var(i, m): F(1, scn.d) for (i, m) in scn.effects()}
    assert violated_row(linrows(h)[1], uniform) is None
    assert len(enumerate_vertices(h)) > 0


@pytest.mark.parametrize("h", [
    # x >= 2 and x <= 1 with slacks s, t >= 0: x - s = 2 and x + t = 1
    (["x", "s", "t"], [(1, -1, 0, -2), (1, 0, 1, -1)]),
    # x + y = 1 and x - y = 3 fix y = -1, so y >= 0 reduces to -1 >= 0
    (["x", "y"], [(1, 1, -1), (1, -1, -3)]),
], ids=["inequalities", "equalities"])
def test_a_system_with_no_vertex_is_an_internal_error(h):
    # no valid scenario gives such a system; the kernel names the stage
    with pytest.raises(InternalError, match="measurement vertices: no vertex"):
        enumerate_vertices(h)


def test_equalities_fixing_every_coordinate_give_one_vertex():
    # xi(0|M1) = xi(1|M1) and normalization leave no free coordinate
    scn = scenario(g=1, l=1, d=2, oe_m=[({(1, 0): 1}, {(1, 1): 1})])
    vs = enumerate_vertices(build_measurement_h(scn))
    assert vs.as_tuples() == [(HALF, HALF)]


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
    got = sorted(enumerate_vertices(h).as_tuples())
    assert got == brute_force_vertices(*linrows(h))


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
