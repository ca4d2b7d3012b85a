from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpolytope.linalg import (EQ, GEQ, ONE, InconsistentSystem, LinRow,
                               canonicalize_row, dense_row, int_row, rat,
                               reduce_modulo, reduce_row,
                               row_reduce_equalities, rref)
from oracles import eliminate, satisfies

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)
VARS = ["a", "b", "c", "d"]


def row_strategy(kind=GEQ):
    return st.builds(
        lambda cs, const: LinRow(dict(zip(VARS, cs)), const, kind),
        st.lists(rationals, min_size=len(VARS), max_size=len(VARS)),
        rationals)


@given(rationals, rationals, rationals)
def test_rational_arithmetic_is_exact(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    s = a + b
    assert s.denominator > 0
    from math import gcd
    assert gcd(s.numerator, s.denominator) == 1


def test_rat_rejects_floats():
    with pytest.raises(TypeError):
        rat(0.5)
    assert rat("3/4") == Fraction(3, 4)
    assert rat(2) == 2


@given(row_strategy())
def test_canonicalize_idempotent(row):
    once = canonicalize_row(row)
    assert canonicalize_row(once) == once


@given(row_strategy(), st.fractions(min_value="1/7", max_value=9,
                                    max_denominator=8))
def test_canonicalize_scale_invariant(row, factor):
    scaled = LinRow({v: c * factor for v, c in row.coeffs.items()},
                    row.const * factor, row.kind)
    assert canonicalize_row(scaled) == canonicalize_row(row)


@given(row_strategy(EQ))
def test_canonicalize_eq_sign_convention(row):
    canon = canonicalize_row(row)
    if canon.coeffs:
        assert canon.coeffs[min(canon.coeffs)] > 0
        negated = LinRow({v: -c for v, c in row.coeffs.items()}, -row.const, EQ)
        assert canonicalize_row(negated) == canon


def test_canonicalize_integer_gcd_one():
    row = LinRow({"a": Fraction(2, 3), "b": Fraction(4, 3)}, Fraction(2), GEQ)
    canon = canonicalize_row(row)
    assert canon.coeffs == {"a": 1, "b": 2}
    assert canon.const == 3


@given(st.lists(rationals, min_size=1, max_size=6))
def test_int_row_is_primitive_proportional_and_gives_points(values):
    ints = int_row(values)
    assert all(isinstance(a, int) for a in ints)
    if any(values):
        assert gcd(*ints) == 1
        # one positive factor maps the values to the ints
        k = next(k for k, v in enumerate(values) if v)
        factor = ints[k] / values[k]
        assert factor > 0
        assert all(a == factor * v for a, v in zip(ints, values))
    else:
        assert ints == (0,) * len(values)
    point = int_row(values + [ONE])
    assert point[-1] == lcm(*(v.denominator for v in values))
    assert all(Fraction(a, point[-1]) == v for a, v in zip(point, values))


@given(st.lists(row_strategy(EQ), max_size=4),
       st.lists(rationals, min_size=len(VARS), max_size=len(VARS)))
@settings(max_examples=60)
def test_row_reduce_preserves_solutions(eq_rows, point_vals):
    """A point satisfying the equalities satisfies every pivot row."""
    try:
        pivots = row_reduce_equalities([dense_row(r, VARS) for r in eq_rows])
    except InconsistentSystem:
        return
    point = dict(zip(VARS, point_vals))
    if not all(satisfies(r, point) for r in eq_rows):
        return
    for col, row in pivots.items():
        assert row[col] > 0
        assert sum(a * x for a, x in zip(row, point_vals)) + row[-1] == 0


@given(st.lists(st.tuples(row_strategy(EQ), st.booleans()), max_size=6))
@settings(max_examples=100)
def test_row_reduce_matches_fraction_oracle(rows):
    """The same pivots as a Gaussian elimination on Fraction dicts, and
    every pivot row and reduced inequality a positive multiple of the
    oracle's."""
    rows = [r if eq else LinRow(r.coeffs, r.const, GEQ) for r, eq in rows]
    try:
        subs, _, reduced = eliminate(VARS, rows)
    except InconsistentSystem:
        with pytest.raises(InconsistentSystem):
            row_reduce_equalities([dense_row(r, VARS) for r in rows
                                   if r.kind == EQ])
        return
    pivots = row_reduce_equalities([dense_row(r, VARS) for r in rows
                                    if r.kind == EQ])
    assert {VARS[col] for col in pivots} == set(subs)
    for col, row in pivots.items():
        coeffs, const = subs[VARS[col]]
        want = LinRow({VARS[col]: -1, **coeffs}, const, EQ)
        assert row == tuple(-a for a in dense_row(want, VARS))
    geq = [reduce_row(dense_row(r, VARS), pivots) for r in rows
           if r.kind == GEQ]
    assert geq == [dense_row(r, VARS) for r in reduced]


def test_row_reduce_pivots_on_the_later_registered_variable():
    # the column order, not the sign of the entry, picks the pivot: the
    # last nonzero column, where the pivot row is signed positive
    for row in [(0, -1, 0, 1, 0), (0, 1, 0, -1, 0)]:
        assert row_reduce_equalities([row]) == {3: (0, -1, 0, 1, 0)}


def test_row_reduce_inconsistent():
    rows = [(1, 0, 0, 0, 0), (1, 0, 0, 0, -1)]
    with pytest.raises(InconsistentSystem):
        row_reduce_equalities(rows)


@given(st.lists(row_strategy(EQ), max_size=4))
@settings(max_examples=60)
def test_rref_is_canonical_under_row_mixing(rows):
    """rref output depends only on the row span, not the presentation."""
    try:
        base = rref(rows, VARS)
    except InconsistentSystem:
        return
    mixed = list(reversed(rows))
    if len(rows) >= 2:
        extra = LinRow(
            {v: rows[0].coeffs.get(v, 0) + rows[1].coeffs.get(v, 0)
             for v in VARS},
            rows[0].const + rows[1].const, EQ)
        mixed.append(extra)
    assert rref(mixed, VARS) == base


def test_rref_pivots_on_late_variables():
    rows = [LinRow({"a": 1, "d": 1}, -1, EQ)]
    (out,) = rref(rows, VARS)
    # d is eliminated, a stays free
    assert out.coeffs == {"a": 1, "d": 1}


def test_reduce_modulo_identifies_complements():
    eqs = rref([LinRow({"a": 1, "b": 1}, -1, EQ)], VARS)
    r1 = LinRow({"a": 1}, Fraction(-1), GEQ)       # a - 1 >= 0
    r2 = LinRow({"b": -1}, 0, GEQ)                 # -b >= 0
    assert reduce_modulo(r1, eqs, VARS) == reduce_modulo(r2, eqs, VARS)


def test_reduce_modulo_takes_equalities_out_of_rref():
    # not in rref: the first row's substitution c = b names b, which the
    # second row pivots on
    eqs = [LinRow({"c": 1, "b": -1}, 0, EQ), LinRow({"b": 1, "a": -1}, 0, EQ)]
    reduced = reduce_modulo(LinRow({"c": 1}, 0, GEQ), eqs, ["a", "b", "c"])
    assert reduced == LinRow({"a": 1}, 0, GEQ)

