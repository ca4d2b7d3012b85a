from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import four_prep_scenario, uniform_table
from oracles import table_is_valid, worst_equivalence_row
from ncpolytope.measurement_polytope import build_measurement_h, enumerate_vertices
from ncpolytope.ncsystem import bind_table, build_f2
from ncpolytope.scenario import (MEAS, PREP, DataTable, DimensionMismatch,
                                 Equivalence, InvalidScenario, flatten_coord,
                                 scenario, unflatten_coord, validate_table)

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def test_builder_basic_shape():
    scn = four_prep_scenario()
    assert (scn.g, scn.l, scn.d) == (4, 2, 2)
    assert list(scn.preparations()) == [1, 2, 3, 4]
    assert list(scn.measurements()) == [1, 2]
    assert list(scn.outcomes()) == [0, 1]
    assert len(list(scn.coords())) == 2 * 4 * 2
    assert len(list(scn.effects())) == 2 * 2


def test_equivalence_maps_and_difference():
    oe = Equivalence.make({1: HALF, 2: HALF}, {3: HALF, 4: HALF})
    assert dict(oe.lhs) == {1: HALF, 2: HALF}
    diff = oe.difference()
    assert diff == {1: HALF, 2: HALF, 3: -HALF, 4: -HALF}


def test_nonconvex_weights_rejected():
    with pytest.raises(InvalidScenario) as exc:
        scenario(g=4, l=2, d=2,
                 oe_p=[({1: HALF, 2: Fraction(1, 4)}, {3: HALF, 4: HALF})])
    assert any(code == "NonConvexWeights" for code, _ in exc.value.errors)


def test_out_of_range_indices_rejected():
    with pytest.raises(InvalidScenario) as exc:
        scenario(g=2, l=1, d=2, oe_p=[({1: HALF, 5: HALF}, {2: 1})])
    assert any(code == "IndexOutOfRange" for code, _ in exc.value.errors)


def test_degenerate_equivalence_rejected():
    with pytest.raises(InvalidScenario) as exc:
        scenario(g=2, l=1, d=2, oe_p=[({1: HALF, 2: HALF}, {2: HALF, 1: HALF})])
    assert any(code == "DegenerateEquivalence" for code, _ in exc.value.errors)


def test_all_errors_collected_at_once():
    with pytest.raises(InvalidScenario) as exc:
        scenario(g=2, l=1, d=2,
                 oe_p=[({1: HALF, 2: Fraction(1, 4)}, {1: HALF, 2: HALF}),
                       ({1: 1}, {9: 1})],
                 oe_m=[({(1, 0): 1}, {(1, 5): 1})])
    codes = [code for code, _ in exc.value.errors]
    assert len(codes) >= 3
    assert "NonConvexWeights" in codes
    assert "IndexOutOfRange" in codes


def test_meas_equivalence_on_effects():
    scn = scenario(g=2, l=3, d=2,
                   oe_m=[({(1, 0): THIRD, (2, 0): THIRD, (3, 0): THIRD},
                          {(1, 1): THIRD, (2, 1): THIRD, (3, 1): THIRD})])
    (oe,) = scn.oe_m
    assert isinstance(oe, Equivalence)
    assert oe.difference()[(1, 0)] == THIRD
    assert oe.difference()[(3, 1)] == -THIRD


@given(st.integers(1, 3), st.integers(1, 4), st.integers(2, 4))
def test_flatten_unflatten_round_trip(l, g, d):
    scn = scenario(g=g, l=l, d=d)
    seen = set()
    for coord in scn.coords():
        flat = flatten_coord(scn, coord)
        assert unflatten_coord(scn, flat) == coord
        seen.add(flat)
    assert seen == set(range(1, l * g * d + 1))


def test_flatten_out_of_range():
    scn = scenario(g=2, l=1, d=2)
    with pytest.raises(DimensionMismatch):
        flatten_coord(scn, (2, 1, 0))
    with pytest.raises(DimensionMismatch):
        unflatten_coord(scn, 0)


def test_validate_table_shape_mismatch():
    scn = four_prep_scenario()
    table = DataTable.make({(1, 1, 0): HALF})
    with pytest.raises(DimensionMismatch):
        validate_table(scn, table)
    # 4 * 10**12 coordinates could not be listed; the count settles it
    huge = scenario(g=10 ** 12, l=2, d=2)
    with pytest.raises(DimensionMismatch, match="table has 16 entries, "
                                                "scenario needs 4000000000000$"):
        validate_table(huge, uniform_table(scn))


def broken_row(scn, entries):
    """The worst equivalence row that binding the table stores."""
    vs = enumerate_vertices(build_measurement_h(scn))
    return bind_table(build_f2(scn, vs), DataTable.make(entries)).broken


def test_validate_table_normalization_and_residuals():
    scn = four_prep_scenario()
    table = uniform_table(scn)
    assert validate_table(scn, table) is True
    assert broken_row(scn, table.as_dict()) is None


def test_validate_table_flags_oe_violation():
    scn = four_prep_scenario()
    entries = {c: HALF for c in scn.coords()}
    entries[1, 1, 0] = Fraction(1)
    entries[1, 1, 1] = Fraction(0)
    assert validate_table(scn, DataTable.make(entries)) is True
    # |r| = 1/4 at both effects of M1: the first in scenario order wins
    oe, slot, weights, r = broken_row(scn, entries)
    assert (oe, slot, r) == ((PREP, 0), (1, 0), Fraction(1, 4))
    assert weights == {(1, 1, 0): HALF, (1, 2, 0): HALF,
                       (1, 3, 0): -HALF, (1, 4, 0): -HALF}


def test_validate_table_flags_meas_oe_violation():
    scn = scenario(g=2, l=3, d=2,
                   oe_m=[({(1, 0): THIRD, (2, 0): THIRD, (3, 0): THIRD},
                          {(1, 1): THIRD, (2, 1): THIRD, (3, 1): THIRD})])
    entries = {c: HALF for c in scn.coords()}
    entries[1, 1, 0] = Fraction(1)
    entries[1, 1, 1] = Fraction(0)
    oe, slot, _, r = broken_row(scn, entries)
    assert (oe, slot, r) == ((MEAS, 0), 1, Fraction(1, 3))


def test_validate_table_unnormalized():
    scn = scenario(g=1, l=1, d=2)
    assert validate_table(scn, DataTable.make(
        {(1, 1, 0): HALF, (1, 1, 1): Fraction(3, 4)})) is False
    assert validate_table(scn, DataTable.make(
        {(1, 1, 0): Fraction(3, 2), (1, 1, 1): -HALF})) is False


ENTRIES = [-THIRD, Fraction(0), Fraction(1, 6), THIRD, HALF, Fraction(2, 3),
           Fraction(1), Fraction(4, 3)]


@pytest.mark.parametrize("d", [2, 3])
def test_integer_validation_matches_fraction_validation(d):
    # every row of d entries from ENTRIES, among them rows that sum to 1
    # through a negative entry, such as (4/3, -1/3), and rows over
    # denominators whose lcm is none of them, such as (1/2, 1/3, 1/6)
    scn = scenario(g=1, l=1, d=d)
    verdicts = set()
    for row in product(ENTRIES, repeat=d):
        table = DataTable.make({(1, 1, m): p for m, p in enumerate(row)})
        verdict = validate_table(scn, table)
        assert verdict is table_is_valid(scn, table), row
        verdicts.add((verdict, sum(row) == 1))
    # valid rows, rows with a sum of 1 but a negative entry, and the rest
    assert verdicts == {(True, True), (False, True), (False, False)}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_integer_residuals_match_fraction_scan(data):
    # weights with denominators 2, 3 and 5 on three equivalences, so the
    # residuals of different equivalences are compared across scales
    scn = scenario(
        g=3, l=2, d=2,
        oe_p=[({1: HALF, 2: HALF}, {3: Fraction(1)}),
              ({1: Fraction(2, 5), 2: Fraction(3, 5)}, {3: Fraction(1)})],
        oe_m=[({(1, 0): THIRD, (2, 0): 2 * THIRD},
               {(1, 1): THIRD, (2, 1): 2 * THIRD})])
    probability = st.fractions(0, 1, max_denominator=7)
    entries = {}
    for i, j in product(scn.measurements(), scn.preparations()):
        p = data.draw(probability)
        entries[i, j, 0], entries[i, j, 1] = p, 1 - p
    table = DataTable.make(entries)
    vs = enumerate_vertices(build_measurement_h(scn))
    assert (bind_table(build_f2(scn, vs), table).broken
            == worst_equivalence_row(scn, table))


def test_table_round_trip_and_lookup():
    scn = scenario(g=1, l=1, d=2)
    table = DataTable.make({(1, 1, 0): THIRD, (1, 1, 1): 1 - THIRD})
    assert table.as_dict()[1, 1, 0] == THIRD
    assert table.as_dict() == {(1, 1, 0): THIRD, (1, 1, 1): 1 - THIRD}
    assert DataTable.make(table.as_dict()) == table
