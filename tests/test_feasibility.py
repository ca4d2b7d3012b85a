import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (SCENARIO_DIR, contextual_table_41, four_prep_scenario,
                      uniform_table)
from ncpolytope import feasibility, ncsystem, scenario
from ncpolytope.documents import read_document, scenario_from_doc, table_from_doc
from ncpolytope.feasibility import (Certificate, Feasible, Infeasible,
                                    MalformedTable, PrimalFeasible,
                                    check_table, farkas_certificate, optimize)
from ncpolytope.linalg import (GEQ, ZERO, InternalError, LinRow,
                               canonicalize_row, reduce_modulo)
from ncpolytope.measurement_polytope import build_measurement_h, enumerate_vertices
from ncpolytope.ncsystem import (OE_P, bind_table, build_f2,
                                 reconstruct_table)
from ncpolytope.projection import project_to_nc_polytope
from ncpolytope.scenario import (DataTable, DimensionMismatch,
                                 equivalence_rows, p_var)
from ncpolytope.simplex import INFEASIBLE, UNBOUNDED, LPResult, solve_standard
from oracles import (box_dual_optimum, evaluate, polytope_contains,
                     y_dot_columns, y_dot_rhs)
from test_acceptance import CHECK_SHAPES, random_small_scenario

F = Fraction
HALF = F(1, 2)


def p(i, j):
    return p_var((i, j, 0))


def test_uniform_table_is_feasible(scn41, verts41):
    verdict = check_table(scn41, verts41, uniform_table(scn41))
    assert isinstance(verdict, Feasible)
    f2 = build_f2(scn41, verts41)
    assert reconstruct_table(f2, verdict.nu) == uniform_table(scn41)


def test_extremal_contextual_table_certificate(scn41, verts41, poly41):
    verdict = check_table(scn41, verts41, contextual_table_41())
    assert isinstance(verdict, Infeasible)
    # modulo the polytope equalities the returned inequality is
    # p13 + p24 - p12 - p22 <= 1, and the table violates it by exactly 1
    expected = LinRow(
        {p(1, 3): -1, p(2, 4): -1, p(1, 2): 1, p(2, 2): 1}, F(1), GEQ)
    assert canonicalize_row(reduce_modulo(
        verdict.inequality, poly41.equalities, poly41.variables)) \
        == canonicalize_row(reduce_modulo(expected, poly41.equalities,
                                          poly41.variables))
    assert verdict.violation == 1


def test_certificate_box_conditions(scn41, verts41):
    verdict = check_table(scn41, verts41, contextual_table_41())
    cert = verdict.certificate
    f2 = build_f2(scn41, verts41)
    numeric = bind_table(f2, contextual_table_41())
    for k in range(len(f2.nu_vars)):
        ym = sum(cert.y[i] * f2.eq_matrix[i][k] for i in range(len(cert.y)))
        assert 0 <= ym <= 1
    assert sum(y * b for y, b in zip(cert.y, numeric.rhs)) == cert.value
    assert cert.value < 0


def test_violation_matches_direct_evaluation(scn41, verts41):
    verdict = check_table(scn41, verts41, contextual_table_41())
    point = {("p",) + c: v for c, v in contextual_table_41().as_dict().items()}
    assert evaluate(verdict.inequality, point) == -verdict.violation


def test_malformed_table_rejected(scn41, verts41):
    entries = {c: HALF for c in scn41.coords()}
    entries[1, 1, 0] = F(2)
    with pytest.raises(MalformedTable):
        check_table(scn41, verts41, DataTable.make(entries))


def test_wrong_shape_rejected(scn41, verts41):
    with pytest.raises(DimensionMismatch):
        check_table(scn41, verts41, DataTable.make({(1, 1, 0): HALF}))


def test_farkas_on_feasible_system_raises(scn41, verts41):
    f2 = build_f2(scn41, verts41)
    numeric = bind_table(f2, uniform_table(scn41))
    with pytest.raises(PrimalFeasible):
        farkas_certificate(numeric)


def multiplexing_objective():
    """Average probability of correctly recovering the queried bit when
    the four preparations encode the bit pairs 00, 11, 01, 10."""
    w = F(1, 8)
    terms = {p_var((1, 1, 0)): w, p_var((2, 1, 0)): w,
             p_var((1, 2, 1)): w, p_var((2, 2, 1)): w,
             p_var((1, 3, 0)): w, p_var((2, 3, 1)): w,
             p_var((1, 4, 1)): w, p_var((2, 4, 0)): w}
    return LinRow(terms, F(0), GEQ)


def test_multiplexing_optimum_is_three_quarters(scn41, verts41):
    value, witness = optimize(scn41, verts41, multiplexing_objective(), "max")
    assert value == F(3, 4)
    # the witness is a genuine table attaining the optimum
    point = {("p",) + c: v for c, v in witness.as_dict().items()}
    assert evaluate(multiplexing_objective(), point) - \
        multiplexing_objective().const == F(3, 4) - multiplexing_objective().const
    verdict = check_table(scn41, verts41, witness)
    assert isinstance(verdict, Feasible)


def test_optimize_min_and_constant(scn41, verts41):
    obj = LinRow({p(1, 1): F(1)}, F(2), GEQ)
    vmax, _ = optimize(scn41, verts41, obj, "max")
    vmin, _ = optimize(scn41, verts41, obj, "min")
    assert vmax == 3 and vmin == 2


def test_optimize_rejects_bad_input(scn41, verts41):
    with pytest.raises(ValueError):
        optimize(scn41, verts41, LinRow({p(1, 1): F(1)}, F(0), GEQ), "sup")
    with pytest.raises(DimensionMismatch):
        optimize(scn41, verts41, LinRow({("p", 9, 9, 0): F(1)}, F(0), GEQ))


def random_table(scn, rng):
    """A random normalized table; it generally breaks the equivalences
    (see :func:`in_span_table` for tables that keep them)."""
    entries = {}
    for i in scn.measurements():
        for j in scn.preparations():
            weights = [F(rng.randint(0, 6)) for _ in scn.outcomes()]
            total = sum(weights) or F(1)
            for m in scn.outcomes():
                entries[i, j, m] = weights[m] / total if sum(weights) else \
                    F(1, scn.d)
    return DataTable.make(entries)


def test_dichotomy_on_random_tables(scn41, verts41, poly41):
    """Either an explicit model exists or a verified certificate does, and
    the verdict always matches polytope membership."""
    rng = random.Random(7)
    f2 = build_f2(scn41, verts41)
    seen_inf = 0
    for _ in range(60):
        table = random_table(scn41, rng)
        verdict = check_table(scn41, verts41, table)
        member = polytope_contains(poly41, table.as_dict())
        if isinstance(verdict, Feasible):
            assert member
            assert reconstruct_table(f2, verdict.nu) == table
        else:
            assert not member
            seen_inf += 1
            assert verdict.violation > 0
            point = {("p",) + c: v for c, v in table.as_dict().items()}
            assert evaluate(verdict.inequality, point) == -verdict.violation
    assert seen_inf > 0


def test_bundled_contextual_table_is_most_violated():
    scn = scenario_from_doc(read_document(SCENARIO_DIR / "simplest.json"))
    table = table_from_doc(read_document(
        SCENARIO_DIR / "simplest_table_contextual.json"))
    vs = enumerate_vertices(build_measurement_h(scn))
    verdict = check_table(scn, vs, table)
    assert isinstance(verdict, Infeasible)
    numeric = bind_table(build_f2(scn, vs), table)
    assert verdict.certificate.value == box_dual_optimum(numeric) == -1


def test_span_breaking_table_gets_farkas_vector(scn41, verts41):
    """A table that breaks the preparation equivalence puts b* outside the
    column span of M; the certificate then annihilates every column."""
    entries = uniform_table(scn41).as_dict()
    entries[1, 1, 0], entries[1, 1, 1] = F(1), F(0)  # P1 alone moves M1
    table = DataTable.make(entries)
    verdict = check_table(scn41, verts41, table)
    assert isinstance(verdict, Infeasible)
    numeric = bind_table(build_f2(scn41, verts41), table)
    assert y_dot_columns(verdict.certificate.y, numeric) == \
        [0] * len(numeric.f2.nu_vars)
    assert verdict.certificate.value < 0
    assert box_dual_optimum(numeric) is None  # the box LP is unbounded


def no_lp(A, b, c):
    raise AssertionError("a table that breaks an equivalence needs no LP")


def binary_table(scn, p0):
    """The uniform table with p(0|M_i,P_j) = p0[i, j] where given."""
    entries = uniform_table(scn).as_dict()
    for (i, j), v in p0.items():
        entries[i, j, 0], entries[i, j, 1] = F(v), 1 - F(v)
    return DataTable.make(entries)


def prep_equality(i, m, diff):
    return {(i, j, m): w for j, w in diff.items()}


def meas_equality(j, l):
    return {(i, j, m): (1 - 2 * m) / F(l) for i in range(1, l + 1)
            for m in (0, 1)}


HALVES = {1: HALF, 2: HALF, 3: -HALF, 4: -HALF}  # 1/2 P1 + 1/2 P2 - 1/2 P3 - 1/2 P4


def assert_broken_equality_certificate(monkeypatch, scn, vs, table, oe,
                                       weights):
    """The verdict, reached without an LP, is the broken equality read
    one-sided: y.M = 0, the inequality is -sign(r) (weights . p) >= 0 made
    canonical, and the violation is |r| at the canonical scale."""
    monkeypatch.setattr(feasibility, "solve_standard", no_lp)
    verdict = check_table(scn, vs, table)
    assert isinstance(verdict, Infeasible)
    assert verdict.certificate.broken_equivalence == oe
    numeric = bind_table(build_f2(scn, vs), table)
    cert = verdict.certificate
    assert y_dot_columns(cert.y, numeric) == [0] * len(numeric.f2.nu_vars)
    probs = table.as_dict()
    r = sum(w * probs[c] for c, w in weights.items())
    raw = LinRow({p_var(c): (-w if r > 0 else w) for c, w in weights.items()},
                 F(0), GEQ)
    assert cert.value == -abs(r)
    assert verdict.inequality == canonicalize_row(raw)
    v = next(iter(raw.coeffs))
    assert verdict.violation == \
        abs(r) * verdict.inequality.coeffs[v] / raw.coeffs[v]
    assert farkas_certificate(numeric) == cert


# A table that breaks one equivalence at two slots with equal |r| gets the
# first slot in scenario order.
BREAKING = {
    # P1 alone answers 0 to M1: residuals 1/4 at (M1, 0), -1/4 at (M1, 1)
    "scn41": ({(1, 1): 1}, ("prep", 0), prep_equality(1, 0, HALVES)),
    # every preparation answers 0 to M1: residual 1/3 at every P_j
    "scn63": ({(1, j): 1 for j in range(1, 7)}, ("meas", 0),
              meas_equality(1, 3)),
}


@pytest.mark.parametrize("name", sorted(BREAKING))
def test_equivalence_breaking_table_needs_no_lp(name, request, monkeypatch):
    scn = request.getfixturevalue(name)
    vs = request.getfixturevalue(name.replace("scn", "verts"))
    p0, oe, weights = BREAKING[name]
    assert_broken_equality_certificate(monkeypatch, scn, vs,
                                       binary_table(scn, p0), oe, weights)


@pytest.mark.parametrize("delta, oe, weights", [
    (F(1, 4), ("prep", 0), prep_equality(1, 0, HALVES)),  # 1/4 > 1/6
    (F(3, 8), ("prep", 0), prep_equality(1, 0, HALVES)),  # tie: prep first
    (F(1, 2), ("meas", 0), meas_equality(5, 3)),          # 1/3 > 1/4
])
def test_largest_residual_picks_the_equivalence(scn63, verts63, delta, oe,
                                                weights, monkeypatch):
    """P1 moves M1 and M2 oppositely, which breaks the first preparation
    equivalence by 1/4 and keeps the measurement one; P5 and P6 move M1
    oppositely, which keeps the preparation equivalences and breaks the
    measurement one by 2 delta / 3."""
    table = binary_table(scn63, {(1, 1): 1, (2, 1): 0, (1, 5): HALF + delta,
                                 (1, 6): HALF - delta})
    probs = table.as_dict()
    broken = {key for key, _, w in equivalence_rows(scn63)
              if sum(c * probs[coord] for coord, c in w.items())}
    assert broken == {("prep", 0), ("meas", 0)}
    stored = bind_table(build_f2(scn63, verts63), table).broken
    assert stored[0] == oe and stored[2] == weights
    assert abs(stored[3]) == max(F(1, 4), 2 * delta / 3)
    assert_broken_equality_certificate(monkeypatch, scn63, verts63, table, oe,
                                       weights)


def test_breaking_table_scans_the_equivalences_once(scn41, verts41,
                                                   monkeypatch):
    """check_table reads the residuals of one scan, made by bind_table,
    for both the branch and the closed-form certificate."""
    calls = []

    def counted(scn):
        calls.append(scn)
        return equivalence_rows(scn)

    for module in (scenario, ncsystem, feasibility):
        if hasattr(module, "equivalence_rows"):
            monkeypatch.setattr(module, "equivalence_rows", counted)
    p0, oe, _ = BREAKING["scn41"]
    verdict = check_table(scn41, verts41, binary_table(scn41, p0))
    assert verdict.certificate.broken_equivalence == oe
    assert len(calls) == 1


def contextual_corners(scn, poly):
    """Tables that keep the polytope's equalities and minimize one facet
    over [0, 1], for each facet such a table violates."""
    coords = list(scn.coords())
    n = len(coords)
    unit = [[F(int(q == k)) for q in range(n)] for k in range(n)]
    A = [[e.coeffs.get(p_var(c), F(0)) for c in coords] + [F(0)] * n
         for e in poly.equalities] + [u + u for u in unit]  # p + slack = 1
    b = [-e.const for e in poly.equalities] + [F(1)] * n
    tables = []
    for facet in poly.facets:
        cost = [facet.coeffs.get(p_var(c), F(0)) for c in coords] + [F(0)] * n
        res = solve_standard(A, b, cost)
        if res.value + facet.const < 0:
            tables.append(dict(zip(coords, res.x)))
    return tables


def in_span_table(scn, corners, rng):
    """A mixture of the uniform table and a corner (uniform alone when there
    is none): it keeps every operational equivalence, so b* stays in the
    column span of M."""
    if not corners:
        return uniform_table(scn)
    v = F(rng.randint(1, 4), 4)
    corner = rng.choice(corners)
    return DataTable.make({c: (1 - v) / scn.d + v * corner[c]
                           for c in scn.coords()})


def oracle_scenario(name):
    if name == "scn41":
        return four_prep_scenario()
    rng = random.Random(20230817)  # the generator seed of criterion 8
    shapes = CHECK_SHAPES[:2]      # drawn first there: (2, 2), then (3, 2)
    scenarios = [random_small_scenario(rng, g, l) for g, l in shapes]
    return scenarios[0 if name == "crit8-2x2" else 1]


# Which verdicts each scenario's tables reach.  The two criterion-8 shapes
# have no preparation equivalence, so every table that keeps their
# equivalences is noncontextual.
ORACLE_CASES = {"scn41": {"feasible", "optimum", "span"},
                "crit8-2x2": {"feasible"},
                "crit8-3x2": {"feasible", "span"}}


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_certificate_matches_box_lp_oracle(name):
    """The certificate reaches the optimum of the box LP solved directly.
    When b* leaves the column span of M the certificate has y.M = 0, which
    itself proves the box LP unbounded."""
    scn = oracle_scenario(name)
    vs = enumerate_vertices(build_measurement_h(scn))
    f2 = build_f2(scn, vs)
    corners = contextual_corners(scn, project_to_nc_polytope(f2))
    rng = random.Random(name)
    seen = set()
    for n in range(100):
        table = (random_table(scn, rng) if n % 4
                 else in_span_table(scn, corners, rng))
        verdict = check_table(scn, vs, table)
        numeric = bind_table(f2, table)
        if isinstance(verdict, Feasible):
            assert box_dual_optimum(numeric) == 0
            seen.add("feasible")
        elif any(y_dot_columns(verdict.certificate.y, numeric)):
            assert verdict.certificate.value == box_dual_optimum(numeric)
            seen.add("optimum")
        else:
            seen.add("span")
    assert seen == ORACLE_CASES[name]


def test_bogus_certificate_lp_raises_internal_error(scn41, verts41,
                                                    monkeypatch):
    calls = []

    def unbounded_certificate_lp(A, b, c):
        calls.append(len(c))
        res = solve_standard(A, b, c)
        return LPResult(UNBOUNDED) if len(calls) == 2 else res

    monkeypatch.setattr(feasibility, "solve_standard", unbounded_certificate_lp)
    with pytest.raises(InternalError):
        check_table(scn41, verts41, contextual_table_41())
    assert len(calls) == 2


def test_certificate_outside_box_raises_internal_error(scn41, verts41,
                                                       monkeypatch):
    def doubled_duals(A, b, c):
        res = solve_standard(A, b, c)
        if res.duals is not None:
            res.duals = [2 * v for v in res.duals]
        return res

    monkeypatch.setattr(feasibility, "solve_standard", doubled_duals)
    with pytest.raises(InternalError, match="box constraint"):
        check_table(scn41, verts41, contextual_table_41())


def test_phase1_false_infeasible_raises_internal_error(scn41, verts41,
                                                       monkeypatch):
    # the uniform table has a model, so no certificate exists for it
    calls = []

    def infeasible_phase1(A, b, c):
        calls.append(len(c))
        res = solve_standard(A, b, c)
        return LPResult(INFEASIBLE) if len(calls) == 1 else res

    monkeypatch.setattr(feasibility, "solve_standard", infeasible_phase1)
    with pytest.raises(InternalError, match="phase 1"):
        check_table(scn41, verts41, uniform_table(scn41))
    assert len(calls) == 2


@pytest.mark.parametrize("tamper, message", [
    # every preparation on the first vertex: a model, of another table
    (lambda x, n: [F(k % n == 0) for k in range(len(x))],
     "does not rebuild the table"),
    (lambda x, n: [F(-1)] + x[1:], "is negative")],
    ids=["other-table", "negative"])
def test_wrong_phase1_model_raises_internal_error(scn41, verts41, monkeypatch,
                                                  tamper, message):
    def wrong_model(A, b, c):
        res = solve_standard(A, b, c)
        res.x = tamper(res.x, len(verts41))
        return res

    monkeypatch.setattr(feasibility, "solve_standard", wrong_model)
    with pytest.raises(InternalError, match=message):
        check_table(scn41, verts41, uniform_table(scn41))


def test_negative_optimize_solution_raises_internal_error(scn41, verts41,
                                                          monkeypatch):
    def negative_entry(A, b, c):
        res = solve_standard(A, b, c)
        res.x = [F(-1)] + res.x[1:]
        return res

    monkeypatch.setattr(feasibility, "solve_standard", negative_entry)
    with pytest.raises(InternalError, match="negative"):
        optimize(scn41, verts41, multiplexing_objective(), "max")


def test_tampered_closed_form_certificate_raises_internal_error(
        scn41, verts41, monkeypatch):
    """A closed-form certificate is re-verified like an LP one: without its
    OE_P entries the broken equality no longer cancels on every column."""
    closed_form = feasibility._equivalence_certificate
    tampered = []

    def without_oe_p(numeric):
        oe, y = closed_form(numeric)
        labels = numeric.f2.eq_labels
        tampered.append(any(v for lab, v in zip(labels, y) if lab[0] == OE_P))
        return oe, [ZERO if lab[0] == OE_P else v
                    for lab, v in zip(labels, y)]

    monkeypatch.setattr(feasibility, "_equivalence_certificate", without_oe_p)
    p0, _, _ = BREAKING["scn41"]
    with pytest.raises(InternalError, match="box constraint"):
        check_table(scn41, verts41, binary_table(scn41, p0))
    assert tampered == [True]


BOUND_CASES = [("simplest.json", "simplest_table_contextual.json"),
               ("simplest.json", None),
               ("six_preparations.json", "six_preparations_table_quantum.json"),
               ("state_discrimination.json", None)]


@functools.cache
def bound_system(case):
    """A bundled scenario's M x = b*, bound to a bundled table or, for
    None, to the uniform table."""
    scenario_file, table_file = case
    scn = scenario_from_doc(read_document(SCENARIO_DIR / scenario_file))
    table = (table_from_doc(read_document(SCENARIO_DIR / table_file))
             if table_file else uniform_table(scn))
    vs = enumerate_vertices(build_measurement_h(scn))
    return bind_table(build_f2(scn, vs), table)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_sparse_products_match_dense_oracle(data):
    numeric = bound_system(data.draw(st.sampled_from(BOUND_CASES)))
    y = [ZERO] * len(numeric.rhs)
    rows = st.integers(0, len(y) - 1)
    for i in data.draw(st.sets(rows, max_size=10)):
        y[i] = data.draw(st.fractions(-3, 3, max_denominator=12))
    ym, den = feasibility._y_dot_system(y, numeric)
    assert den > 0
    assert [F(a, den) for a in ym[:-1]] == y_dot_columns(y, numeric)
    assert F(ym[-1], den) == y_dot_rhs(y, numeric)
