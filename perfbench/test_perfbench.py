"""Tests of the benchmark's own helpers: order statistics, output checks
and the tracer.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import copy
import json
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import ncpolytope  # noqa: E402
from ncpolytope import documents, feasibility  # noqa: E402
from ncpolytope.measurement_polytope import build_measurement_h, enumerate_vertices  # noqa: E402
from ncpolytope.ncsystem import build_f2  # noqa: E402
from ncpolytope.projection import project_to_nc_polytope  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from stats import median, percentile  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import CheckWorkload, OrbitsWorkload  # noqa: E402


# --- order statistics ------------------------------------------------------


def test_median_odd_and_even():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5
    assert median([7]) == 7


def test_percentile_nearest_rank():
    values = list(range(1, 101))           # 1..100
    assert percentile(values, 90) == 90
    assert percentile(values, 50) == 50
    assert percentile(values, 100) == 100
    assert percentile(list(range(1, 114)), 90) == 102   # rank ceil(101.7)
    assert percentile([5, 1], 50) == 1


@pytest.mark.parametrize("bad", [0, -1, 101])
def test_percentile_rejects_rank(bad):
    with pytest.raises(ValueError):
        percentile([1, 2], bad)


def test_empty_samples_rejected():
    with pytest.raises(ValueError):
        median([])
    with pytest.raises(ValueError):
        percentile([], 50)


# --- check verdicts --------------------------------------------------------


@pytest.fixture(scope="module")
def simplest():
    w = CheckWorkload(1)
    doc = w.scenarios["simplest"][0]
    sweep = [(t, json.loads(w.check_one(name, json.dumps(inputs.table_doc(t)))))
             for name, s, t in w.tables if s == "simplest"]
    return doc, w.vertices("simplest"), sweep


def test_untampered_verdicts_pass(simplest):
    doc, vertices, sweep = simplest
    for table, verdict in sweep:
        checks.check_verdict(doc, vertices, table, verdict)
    checks.check_sweep([v["status"] for _, v in sweep])
    assert checks.outcome0_vertex_set(vertices) == checks.SIMPLEST_VERTICES


def _model(sweep):
    return next((t, v) for t, v in sweep if v["status"] == "feasible")


def _certificate(sweep):
    return next((t, v) for t, v in sweep if v["status"] == "infeasible")


def test_model_with_moved_weight_rejected(simplest):
    doc, vertices, sweep = simplest
    table, verdict = _model(sweep)
    bad = copy.deepcopy(verdict)
    # move weight between two vertices of P_1: still normalized, but the
    # table it builds is another one
    a = next(e for e in bad["model"] if e[0] == 1 and F(e[2]) > 0)
    b = next(e for e in bad["model"] if e[0] == 1 and e is not a)
    shift = min(F(a[2]), F(1, 8))
    a[2], b[2] = str(F(a[2]) - shift), str(F(b[2]) + shift)
    with pytest.raises(checks.CheckFailed):
        checks.check_model(doc, vertices, table, bad)


def test_model_with_negative_weight_rejected(simplest):
    doc, vertices, sweep = simplest
    table, verdict = _model(sweep)
    bad = copy.deepcopy(verdict)
    bad["model"][0][2] = "-1/4"
    with pytest.raises(checks.CheckFailed):
        checks.check_model(doc, vertices, table, bad)


def test_model_for_another_table_rejected(simplest):
    doc, vertices, sweep = simplest
    (_, first), (second, _) = sweep[0], sweep[1]
    with pytest.raises(checks.CheckFailed):
        checks.check_model(doc, vertices, second, first)


def test_certificate_with_wrong_violation_rejected(simplest):
    doc, vertices, sweep = simplest
    table, verdict = _certificate(sweep)
    bad = copy.deepcopy(verdict)
    bad["violation"] = str(F(bad["violation"]) * 2)
    with pytest.raises(checks.CheckFailed):
        checks.check_certificate(doc, vertices, table, bad)


def test_certificate_with_scaled_y_rejected(simplest):
    doc, vertices, sweep = simplest
    table, verdict = _certificate(sweep)
    bad = copy.deepcopy(verdict)
    # y.M leaves the box [0, 1] once y is scaled up far enough
    for entry in bad["certificate"]["y"]:
        entry[1] = str(F(entry[1]) * 4)
    with pytest.raises(checks.CheckFailed):
        checks.check_certificate(doc, vertices, table, bad)


def test_certificate_with_other_inequality_rejected(simplest):
    doc, vertices, sweep = simplest
    table, verdict = _certificate(sweep)
    bad = copy.deepcopy(verdict)
    bad["inequality"]["constant"] = str(F(bad["inequality"]["constant"]) + 1)
    bad["violation"] = str(F(bad["violation"]) - 1)
    with pytest.raises(checks.CheckFailed):
        checks.check_certificate(doc, vertices, table, bad)


def test_certificate_for_a_noncontextual_table_rejected(simplest):
    doc, vertices, sweep = simplest
    _, verdict = _certificate(sweep)
    uniform = inputs.uniform_table(doc)
    with pytest.raises(checks.CheckFailed):
        checks.check_certificate(doc, vertices, uniform, verdict)


def test_sweep_switching_back_rejected():
    with pytest.raises(checks.CheckFailed):
        checks.check_sweep(["feasible", "infeasible", "feasible", "infeasible"])
    with pytest.raises(checks.CheckFailed):
        checks.check_sweep(["feasible", "feasible"])


def test_vertex_breaking_an_equivalence_rejected():
    doc = inputs.scenario_doc(2, 2, 2, oe_m=[([(1, 0, "1")], [(2, 0, "1")])])
    good = [{(1, 0): F(1), (1, 1): F(0), (2, 0): F(1), (2, 1): F(0)}]
    checks.check_vertices(doc, good)
    bad = [{(1, 0): F(1), (1, 1): F(0), (2, 0): F(0), (2, 1): F(1)}]
    with pytest.raises(checks.CheckFailed):
        checks.check_vertices(doc, bad)


# --- polytopes -------------------------------------------------------------


def test_membership_tables_lie_on_both_sides():
    doc = json.loads(json.dumps(inputs.scenario_doc(
        4, 2, 2, [([(1, "1/2"), (2, "1/2")], [(3, "1/2"), (4, "1/2")])])))
    scn = documents.scenario_from_doc(doc)
    poly = project_to_nc_polytope(build_f2(scn, enumerate_vertices(build_measurement_h(scn))))
    poly_doc = json.loads(json.dumps(documents.polytope_to_doc(poly)))
    checks.check_simplest_polytope(poly_doc)
    inside, outside = checks.membership_tables(poly_doc, inputs.uniform_table(doc),
                                               random.Random(3))
    assert checks.contains(poly_doc, inside)
    assert outside is not None and not checks.contains(poly_doc, outside)
    assert all(0 <= p <= 1 for p in outside.values())
    # the rays towards the facets find an outside table without random ones
    inside, outside = checks.membership_tables(poly_doc, inputs.uniform_table(doc),
                                               random.Random(3), attempts=0)
    assert checks.contains(poly_doc, inside)
    assert outside is not None and not checks.contains(poly_doc, outside)
    assert all(0 <= p <= 1 for p in outside.values())
    # dropping a paper facet is noticed
    reducer = checks.Reducer(checks.polytope_rows(poly_doc)[0])
    target = reducer.key(checks.SIMPLEST_FACETS[0])
    poly_doc["facets"] = [f for f in poly_doc["facets"]
                          if reducer.key(checks.row_from_doc(f)) != target]
    with pytest.raises(checks.CheckFailed):
        checks.check_simplest_polytope(poly_doc)


# --- orbits ----------------------------------------------------------------


@pytest.fixture(scope="module")
def orbits():
    w = OrbitsWorkload(1)
    assert not w.problems
    return json.loads(w.orbits()), w.poly_doc, w.closure()


def test_untampered_orbits_pass(orbits):
    doc, poly_doc, group = orbits
    checks.check_orbits(doc, poly_doc, group)


def test_orbits_missing_a_class_rejected(orbits):
    doc, poly_doc, group = orbits
    bad = copy.deepcopy(doc)
    bad["classes"].pop()
    with pytest.raises(checks.CheckFailed):
        checks.check_orbits(bad, poly_doc, group)


def test_orbits_with_swapped_sizes_rejected(orbits):
    doc, poly_doc, group = orbits
    bad = copy.deepcopy(doc)
    sizes = [c["orbit_size"] for c in bad["classes"]]
    a = sizes.index(max(sizes))
    b = sizes.index(min(sizes))
    bad["classes"][a]["orbit_size"], bad["classes"][b]["orbit_size"] = sizes[b], sizes[a]
    with pytest.raises(checks.CheckFailed):
        checks.check_orbits(bad, poly_doc, group)


def test_orbits_with_a_repeated_class_rejected(orbits):
    doc, poly_doc, group = orbits
    bad = copy.deepcopy(doc)
    bad["classes"][1]["representative"] = bad["classes"][0]["representative"]
    with pytest.raises(checks.CheckFailed):
        checks.check_orbits(bad, poly_doc, group)


def test_orbits_input_missing_the_paper_facet_rejected(orbits):
    _, poly_doc, _ = orbits
    reducer = checks.Reducer(checks.polytope_rows(poly_doc)[0])
    known = reducer.key(checks.SIX_PREP_KNOWN_FACET)
    bad = dict(poly_doc)
    bad["facets"] = [f for f in poly_doc["facets"]
                     if reducer.key(checks.row_from_doc(f)) != known]
    uniform = {(i, j, m): F(1, 2) for i in (1, 2, 3) for j in range(1, 7) for m in (0, 1)}
    with pytest.raises(checks.CheckFailed):
        checks.check_orbits_input(bad, uniform)


# --- tracer ----------------------------------------------------------------


def test_tracer_attributes_lps_and_restores_functions():
    original = feasibility.check_table
    w = CheckWorkload(1)
    name, _, table = next(t for t in w.tables if t[1] == "simplest"
                          and t[2][1, 1, 0] == 1)   # the extremal table
    tracer = Tracer()
    tracer.install(ncpolytope)
    try:
        verdict = json.loads(w.check_one(name, json.dumps(inputs.table_doc(table))))
    finally:
        tracer.remove()
    assert feasibility.check_table is original
    assert verdict["status"] == "infeasible"
    snap = tracer.snapshot()
    assert snap["calls"]["feasibility.check_table"] == 1
    assert snap["calls"]["simplex.solve_standard.by_feasibility"] == 2
    assert snap["calls"]["feasibility.farkas_certificate"] == 1
    assert "simplex.solve_standard.by_projection" not in snap["calls"]
    assert snap["cells"]["simplex.solve_standard.by_feasibility"] > 0
    assert 0 <= snap["seconds"]["feasibility.phase1"] <= snap["seconds"]["feasibility.check_table"]
