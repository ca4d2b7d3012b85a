from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpolytope.linalg import GEQ, InternalError, LinRow
from ncpolytope.simplex import (INFEASIBLE, OPTIMAL, UNBOUNDED,
                                minimize_over_rows, solve_standard)

F = Fraction
small = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def test_solve_basic_optimum():
    # min x1 + x2  s.t.  x1 + 2 x2 = 4,  x >= 0  ->  x = (0, 2)
    res = solve_standard([[F(1), F(2)]], [F(4)], [F(1), F(1)])
    assert res.status == OPTIMAL
    assert res.x == [F(0), F(2)]
    assert res.value == F(2)


def test_solve_degenerate_does_not_cycle():
    # A classic cycling-prone instance; Bland's rule must terminate.
    A = [[F(1, 4), F(-8), F(-1), F(9), F(1), F(0), F(0)],
         [F(1, 2), F(-12), F(-1, 2), F(3), F(0), F(1), F(0)],
         [F(0), F(0), F(1), F(0), F(0), F(0), F(1)]]
    b = [F(0), F(0), F(1)]
    c = [F(-3, 4), F(20), F(-1, 2), F(6), F(0), F(0), F(0)]
    res = solve_standard(A, b, c)
    assert res.status == OPTIMAL
    assert res.value == F(-5, 4)


def test_solve_infeasible():
    # x1 + x2 = -1 has no nonnegative solution
    res = solve_standard([[F(1), F(1)]], [F(-1)], [F(0), F(0)])
    assert res.status == INFEASIBLE


def test_solve_unbounded_has_ray():
    # min -x1  s.t.  x1 - x2 = 0,  x >= 0
    res = solve_standard([[F(1), F(-1)]], [F(0)], [F(-1), F(0)])
    assert res.status == UNBOUNDED


def test_farkas_duals_on_infeasible_system():
    # Infeasible: x1 + x2 = 2 and x1 + x2 = 3. Farkas vector y must
    # satisfy y.A <= 0 componentwise with y.b > 0.
    A = [[F(1), F(1)], [F(1), F(1)]]
    b = [F(2), F(3)]
    res = solve_standard(A, b, [F(0), F(0)])
    assert res.status == INFEASIBLE
    y = res.duals
    for col in range(2):
        assert sum(y[i] * A[i][col] for i in range(2)) <= 0
    assert sum(y[i] * b[i] for i in range(2)) > 0


@given(st.lists(st.tuples(small, small, small), min_size=1, max_size=6),
       st.tuples(small, small))
@settings(max_examples=80, deadline=None)
def test_phase_one_duals_certify_infeasibility(rows, cvals):
    """Whenever the solver reports infeasible, its dual vector is a valid
    Farkas certificate; whenever optimal, the point satisfies A x = b."""
    A = [[a, bb] for a, bb, _ in rows]
    b = [cc for _, _, cc in rows]
    res = solve_standard(A, b, list(cvals))
    if res.status == INFEASIBLE:
        y = res.duals
        for col in range(2):
            assert sum(y[i] * A[i][col] for i in range(len(A))) <= 0
        assert sum(y[i] * b[i] for i in range(len(A))) > 0
    elif res.status == OPTIMAL:
        assert all(x >= 0 for x in res.x)
        for i in range(len(A)):
            assert sum(A[i][k] * res.x[k] for k in range(2)) == b[i]
        assert res.value == sum(c * x for c, x in zip(cvals, res.x))


def test_minimize_over_rows_square():
    # rows are dense (a..., a0) meaning a.x + a0 >= 0; min x + y over the
    # unit square is 0, min -x - 2y is -3
    rows = [(F(1), F(0), F(0)), (F(-1), F(0), F(1)),
            (F(0), F(1), F(0)), (F(0), F(-1), F(1))]
    res = minimize_over_rows(rows, [F(1), F(1)])
    assert res.status == OPTIMAL
    assert res.value == 0

    res = minimize_over_rows(rows, [F(-1), F(-2)])
    assert res.status == OPTIMAL
    assert res.value == -3
    assert res.x == [F(1), F(1)]


def test_minimize_over_rows_unbounded():
    # the caller bounds every LP and holds an interior point, so neither an
    # unbounded objective nor an empty region is an answer
    with pytest.raises(InternalError, match="infeasible"):
        minimize_over_rows([(F(1), F(0))], [F(-1)])
    with pytest.raises(InternalError, match="unbounded"):
        minimize_over_rows([(F(1), F(0)), (F(-1), F(-1))], [F(1)])


nonneg = st.fractions(min_value=0, max_value=4, max_denominator=6)


@given(st.lists(st.tuples(small, small, nonneg), min_size=1, max_size=5),
       st.tuples(small, small))
@settings(max_examples=60, deadline=None)
def test_minimize_over_rows_optimum_is_feasible(triples, cvals):
    # nonnegative constants keep the origin feasible; the box keeps the
    # problem bounded, so an optimum always exists
    rows = list(triples)
    for k in (0, 1):
        for sign in (1, -1):
            unit = [F(0), F(0), F(4)]
            unit[k] = F(sign)
            rows.append(tuple(unit))
    res = minimize_over_rows(rows, list(cvals))
    assert res.status == OPTIMAL
    x = res.x
    assert all(a * x[0] + bb * x[1] + cc >= 0 for a, bb, cc in rows)
    assert res.value == cvals[0] * x[0] + cvals[1] * x[1]
