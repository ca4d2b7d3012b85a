import random
from fractions import Fraction

import pytest

import ncpolytope.symmetry as symmetry
from conftest import four_prep_scenario, six_prep_scenario
from ncpolytope.linalg import EQ, GEQ, LinRow, canonicalize_row
from ncpolytope.scenario import flatten_coord, p_var, scenario
from ncpolytope.symmetry import (GeneratorBreaksOE, GroupTooLarge, Relabeling,
                                 RowNotInOrbitClosure, act_on_row,
                                 classify_orbits, expand_orbit,
                                 flip_outcomes, generate_group,
                                 swap_measurements, swap_preparations)
from oracles import classify_orbits_oracle, expand_orbit_oracle

F = Fraction


def p(i, j):
    return p_var((i, j, 0))


def inverse(rel):
    """The inverse permutation of a relabeling's ``perm``."""
    inv = [0] * len(rel.perm)
    for k, q in enumerate(rel.perm):
        inv[q] = k
    return tuple(inv)


@pytest.fixture(scope="module")
def group41(scn41_module):
    scn = scn41_module
    gens = [swap_measurements(scn, 1, 2), swap_preparations(scn, (1, 2)),
            swap_preparations(scn, [(1, 3), (2, 4)])]
    return generate_group(scn, gens)


@pytest.fixture(scope="module")
def scn41_module():
    return four_prep_scenario()


def test_relabeling_algebra(scn41_module):
    scn = scn41_module
    identity = tuple(range(16))
    s = swap_measurements(scn, 1, 2)
    assert s.perm != identity
    assert tuple(s.perm[q] for q in s.perm) == identity
    assert inverse(s) == s.perm
    t = swap_preparations(scn, (1, 2))
    # disjoint actions commute
    assert tuple(s.perm[q] for q in t.perm) == tuple(t.perm[q] for q in s.perm)


def test_group_order_and_closure(group41):
    assert group41.order == 16
    perms = {g.perm for g in group41.elements}
    assert len(perms) == 16
    for g in group41.elements:
        assert inverse(g) in perms


def test_facets_fall_into_three_orbits(group41, poly41):
    classes = classify_orbits(poly41.facets, group41, poly41.equalities,
                              poly41.variables)
    assert [c.orbit_size for c in classes] == [8, 8, 8]
    assert sum(c.orbit_size for c in classes) == len(poly41.facets)
    for c in classes:
        assert group41.order % c.orbit_size == 0
        members = expand_orbit(c.representative, group41, poly41.equalities,
                               poly41.variables)
        assert len(members) == c.orbit_size
        assert c.representative == min(
            members, key=lambda r: r.key(poly41.variables))


def test_single_inequality_generates_its_orbit(group41, poly41):
    # the nontrivial facet expands to all eight of its relabelings
    row = LinRow({p(1, 3): -1, p(2, 4): -1, p(1, 2): 1, p(2, 2): 1},
                 F(1), GEQ)
    orbit = expand_orbit(row, group41, poly41.equalities, poly41.variables)
    assert len(orbit) == 8
    keys = {f.key(poly41.variables) for f in poly41.facets}
    for member in orbit:
        assert canonicalize_row(member).key(poly41.variables) in keys


def test_classify_round_trips_with_expand(group41, poly41):
    classes = classify_orbits(poly41.facets, group41, poly41.equalities,
                              poly41.variables)
    rebuilt = []
    for c in classes:
        rebuilt.extend(expand_orbit(c.representative, group41,
                                    poly41.equalities, poly41.variables))
    assert len(rebuilt) == len(poly41.facets)


def test_orbit_closure_violation_detected(group41, poly41):
    with pytest.raises(RowNotInOrbitClosure):
        classify_orbits(poly41.facets[:5], group41, poly41.equalities,
                        poly41.variables)


def test_term_outside_variables_rejected(group41, poly41):
    """A coefficient on a coordinate outside the scenario (the term
    [9, 9, 9, "1"] in a polytope document), in a row or in an equality,
    raises instead of being dropped."""
    first = poly41.facets[0]
    row = LinRow({**first.coeffs, ("p", 9, 9, 9): F(1)}, first.const,
                 first.kind)
    with pytest.raises(ValueError, match="9, 9, 9"):
        classify_orbits([row] + poly41.facets[1:], group41,
                        poly41.equalities, poly41.variables)
    with pytest.raises(ValueError, match="9, 9, 9"):
        expand_orbit(row, group41, poly41.equalities, poly41.variables)
    # and the same term in an equality
    eq = poly41.equalities[0]
    equalities = [LinRow({**eq.coeffs, ("p", 9, 9, 9): F(1)}, eq.const,
                         eq.kind)] + poly41.equalities[1:]
    with pytest.raises(ValueError, match="9, 9, 9"):
        classify_orbits(poly41.facets, group41, equalities, poly41.variables)
    with pytest.raises(ValueError, match="9, 9, 9"):
        expand_orbit(first, group41, equalities, poly41.variables)


def assert_same_classes(rows, group, equalities, variables):
    """classify_orbits and expand_orbit agree with the Fraction oracle."""
    got = classify_orbits(rows, group, equalities, variables)
    want = classify_orbits_oracle(rows, group, equalities, variables)
    assert got == want
    for c in got:
        members = expand_orbit(c.representative, group, equalities, variables)
        assert members == expand_orbit_oracle(c.representative, group,
                                              equalities, variables)
        assert members[0] == c.representative
        assert len(members) == c.orbit_size
    return got


def test_classes_match_oracle_41(group41, poly41):
    assert_same_classes(poly41.facets, group41, poly41.equalities,
                        poly41.variables)


def test_classes_match_oracle_63(group63, poly63):
    assert_same_classes(poly63.facets, group63, poly63.equalities,
                        poly63.variables)


def test_shuffled_facets_match_oracle(group41, poly41):
    rows = list(poly41.facets)
    random.Random(5).shuffle(rows)
    shuffled = assert_same_classes(rows, group41, poly41.equalities,
                                   poly41.variables)
    assert shuffled == classify_orbits(poly41.facets, group41,
                                       poly41.equalities, poly41.variables)


def test_rows_equal_modulo_equalities_collapse(group41, poly41):
    # a facet plus a multiple of an equality, scaled, is the same facet
    eq, facet = poly41.equalities[0], poly41.facets[0]
    coeffs = dict(facet.coeffs)
    for v, c in eq.coeffs.items():
        coeffs[v] = coeffs.get(v, 0) + 3 * c
    twin = LinRow({v: F(5, 2) * c for v, c in coeffs.items()},
                  F(5, 2) * (facet.const + 3 * eq.const), GEQ)
    rows = poly41.facets + [twin]
    classes = assert_same_classes(rows, group41, poly41.equalities,
                                  poly41.variables)
    assert sum(c.orbit_size for c in classes) == len(poly41.facets)


def test_eq_rows_follow_the_sign_rule(group41, poly41):
    # images of an EQ row, each given with a negative leading coefficient
    row = LinRow({p(1, 1): F(-2), p(2, 3): F(1), p(1, 4): F(3)}, F(1), EQ)
    images = expand_orbit_oracle(row, group41, poly41.equalities,
                                 poly41.variables)
    rows = [LinRow({v: -c for v, c in r.coeffs.items()}, -r.const, EQ)
            if r.coeffs[min(r.coeffs)] > 0 else r for r in images]
    classes = assert_same_classes(rows, group41, poly41.equalities,
                                  poly41.variables)
    for c in classes:
        for m in expand_orbit(c.representative, group41, poly41.equalities,
                              poly41.variables):
            assert m.kind == EQ and m.coeffs[min(m.coeffs)] > 0
    # an EQ row that reduces to a bare constant is signed by the constant
    eq = poly41.equalities[0]
    constant = LinRow(eq.coeffs, eq.const - 3, EQ)
    classes = assert_same_classes([constant], group41, poly41.equalities,
                                  poly41.variables)
    assert classes[0].representative == LinRow({}, F(1), EQ)


def combination(kind, *parts):
    """The row sum(factor * row) over ``(factor, row)`` pairs."""
    coeffs, const = {}, F(0)
    for factor, row in parts:
        for v, c in row.coeffs.items():
            coeffs[v] = coeffs.get(v, 0) + factor * c
        const += factor * row.const
    return LinRow(coeffs, const, kind)


def normalization(i, j):
    """p(0|Mi,Pj) + p(1|Mi,Pj) = 1, an equality of every two-outcome table."""
    return LinRow({p_var((i, j, 0)): F(1), p_var((i, j, 1)): F(1)}, F(-1), EQ)


def test_mixed_denominators_match_oracle(group41, poly41):
    # one row over denominators 2, 3 and 4 with no value over 12: only
    # their lcm clears them
    rows = list(poly41.facets)
    rows[0] = combination(GEQ, (F(1, 4), rows[0]),
                          (F(-3, 4), normalization(1, 3)),
                          (F(1, 3), normalization(2, 1)))
    assert {c.denominator for c in rows[0].coeffs.values()} == {2, 3, 4}
    assert rows[0].const == F(2, 3)
    rows[2] = combination(GEQ, (F(7, 12), rows[2]),
                          (F(1, 3), poly41.equalities[3]))
    classes = assert_same_classes(rows, group41, poly41.equalities,
                                  poly41.variables)
    assert classes == classify_orbits(poly41.facets, group41,
                                      poly41.equalities, poly41.variables)
    # EQ rows over 4 and 3, each with a negative leading coefficient
    row = LinRow({p(1, 1): F(-2), p(2, 3): F(1), p(1, 4): F(3)}, F(1), EQ)
    rows = [combination(EQ, (F(-3, 4), r), (F(1, 3), normalization(2, 4)))
            for r in expand_orbit_oracle(row, group41, poly41.equalities,
                                         poly41.variables)]
    assert all(r.coeffs[min(r.coeffs)] < 0 for r in rows)
    assert_same_classes(rows, group41, poly41.equalities, poly41.variables)


def test_fractional_substitutions_match_oracle(scn41_module, poly41):
    # a pivot coefficient of 2 puts the substitution map over denominator 2
    eq = LinRow({p(1, 1): F(1), p(2, 2): F(2)}, F(-1), EQ)
    trivial = generate_group(scn41_module, [])
    assert_same_classes(poly41.facets, trivial, [eq], poly41.variables)


def test_orbit_closure_message_matches_oracle(group41, poly41):
    # p(0|M1,P3) >= 0 plus the normalization of P1: the elements that fix
    # M1,P3 give one reduced key but different literal rows, and the
    # message names the row moved by the first of them
    padded = LinRow({p(1, 3): F(1), p(1, 1): F(1), p_var((1, 1, 1)): F(1)},
                    F(-1), GEQ)
    for rows in (poly41.facets[:5], [padded]):
        with pytest.raises(RowNotInOrbitClosure) as got:
            classify_orbits(rows, group41, poly41.equalities,
                            poly41.variables)
        with pytest.raises(RowNotInOrbitClosure) as want:
            classify_orbits_oracle(rows, group41, poly41.equalities,
                                   poly41.variables)
        assert str(got.value) == str(want.value)


def test_act_on_row_permutes_coordinates(scn41_module):
    scn = scn41_module
    s = swap_measurements(scn, 1, 2)
    row = LinRow({p(1, 3): F(2), p(2, 4): F(-1)}, F(1), GEQ)
    moved = act_on_row(s, row)
    assert moved == canonicalize_row(
        LinRow({p(2, 3): F(2), p(1, 4): F(-1)}, F(1), GEQ))


def test_oe_breaking_generators_rejected():
    scn = six_prep_scenario()
    # flipping one measurement alone breaks the three-way measurement
    # equivalence; flipping all three together respects it
    with pytest.raises(GeneratorBreaksOE, match="measurement"):
        generate_group(scn, [flip_outcomes(scn, [1])])
    assert generate_group(scn, [flip_outcomes(scn, [1, 2, 3])]).order == 2
    # exchanging P1 with P3 alone breaks the preparation equivalences
    with pytest.raises(GeneratorBreaksOE, match="preparation"):
        generate_group(scn, [swap_preparations(scn, (1, 3))])
    assert generate_group(
        scn, [swap_preparations(scn, [(1, 3), (2, 4)])]).order == 2


def test_oe_checked_on_every_table_coordinate():
    # P1 and P3 swapped under (M2, outcome 0) only: the map fixes every
    # coordinate of M1 yet breaks 1/2 P1 + 1/2 P2 = 1/2 P3 + 1/2 P4 at (M2, 0)
    scn = four_prep_scenario()
    perm = list(range(16))
    a, b = (flatten_coord(scn, (2, j, 0)) - 1 for j in (1, 3))
    perm[a], perm[b] = b, a
    with pytest.raises(GeneratorBreaksOE, match="preparation"):
        generate_group(scn, [Relabeling(scn, tuple(perm))])


@pytest.mark.parametrize("perm", [(0,) * 16, tuple(range(15))],
                         ids=["constant", "too_short"])
def test_non_permutation_rejected(perm):
    # every equivalence row's weights sum to zero, so a constant map would
    # send each row to zero and pass the equivalence check
    scn = four_prep_scenario()
    with pytest.raises(ValueError, match="not a permutation"):
        generate_group(scn, [Relabeling(scn, perm)])


def six_prep_generators(scn):
    return [swap_measurements(scn, 1, 2), swap_measurements(scn, 1, 3),
            flip_outcomes(scn, [1, 2, 3]), swap_preparations(scn, (1, 2)),
            swap_preparations(scn, [(1, 3), (2, 4)]),
            swap_preparations(scn, [(1, 5), (2, 6)])]


def test_six_preparation_group_order():
    scn = six_prep_scenario()
    group = generate_group(scn, six_prep_generators(scn))
    assert group.order == 576


def test_generators_may_be_a_one_shot_iterable():
    # the generators are read once, so a generator expression gives the
    # same group as a list
    scn = six_prep_scenario()
    group = generate_group(scn, (g for g in six_prep_generators(scn)))
    assert group.order == 576
    assert len(group.generators) == 6


def test_generator_scenario_mismatch():
    scn = four_prep_scenario()
    other = scenario(g=4, l=2, d=2)
    gen = swap_measurements(other, 1, 2)
    with pytest.raises(ValueError):
        generate_group(scn, [gen])


def test_index_validation():
    scn = four_prep_scenario()
    with pytest.raises(ValueError):
        swap_measurements(scn, 1, 3)
    with pytest.raises(ValueError):
        swap_preparations(scn, (0, 1))
    with pytest.raises(ValueError):
        swap_preparations(scn, [(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        flip_outcomes(scn, [5])
    # a bool is an int, but never an index (True is not measurement 1)
    with pytest.raises(ValueError):
        swap_measurements(scn, True, 2)
    with pytest.raises(ValueError):
        swap_preparations(scn, (True, 2))
    with pytest.raises(ValueError):
        flip_outcomes(scn, [True])


def test_group_cap_enforced(monkeypatch, scn41_module):
    scn = scn41_module
    monkeypatch.setattr(symmetry, "GROUP_CAP", 4)
    gens = [swap_measurements(scn, 1, 2), swap_preparations(scn, (1, 2)),
            swap_preparations(scn, [(1, 3), (2, 4)])]
    with pytest.raises(GroupTooLarge):
        generate_group(scn, gens)


def test_trivial_group():
    scn = four_prep_scenario()
    group = generate_group(scn, [])
    assert group.order == 1
    assert group.elements[0].perm == tuple(range(16))
