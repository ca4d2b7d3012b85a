"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line (echoed past pytest's capture, and mirrored by the pytest -v status
of the correspondingly numbered test).
"""

import contextlib
import io
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

import conftest
from conftest import (TIMINGS, contextual_table_41, four_prep_scenario,
                      quantum_table_63, six_prep_scenario)
from ncpolytope.documents import polytope_to_doc, write_document
from ncpolytope.feasibility import Feasible, Infeasible, check_table, optimize
from ncpolytope.linalg import (EQ, GEQ, LinRow, canonicalize_row, dense_row,
                               reduce_modulo, rref)
from ncpolytope.measurement_polytope import (build_measurement_h,
                                             enumerate_vertices, xi_var)
from ncpolytope.ncsystem import bind_table, build_f2, reconstruct_table
from ncpolytope.projection import project_to_nc_polytope
from ncpolytope.scenario import DataTable, p_var, scenario
from ncpolytope.symmetry import act_on_row, classify_orbits, expand_orbit
from oracles import (brute_force_f2_points, in_convex_hull,
                     polytope_contains, row_key, satisfies)
from test_projection import (REFERENCE_EQUALITIES_41, REFERENCE_FACETS_41,
                             facet_keys, fm_and_hull, reduced_key)

F = Fraction
HALF = F(1, 2)

SIX_PREP_DOCUMENT = (Path(__file__).parent.parent / "perfbench" / "data"
                     / "six_prep_polytope.json")


def p(i, j):
    return p_var((i, j, 0))


def _announce(line):
    # recorded for the terminal summary, which prints after capture ends
    print(line)
    conftest.CRITERION_LINES.append(line)


@contextlib.contextmanager
def criterion(n, text):
    try:
        yield
    except BaseException:
        _announce(f"CRITERION {n:2d}: FAIL - {text}")
        raise
    _announce(f"CRITERION {n:2d}: PASS - {text}")


# --- 1: vertex enumeration, four-preparation scenario ---------------------


def test_criterion_01_four_prep_vertices():
    with criterion(1, "four deterministic assignment vertices, under 1 s"):
        start = time.perf_counter()
        scn = four_prep_scenario()
        vs = enumerate_vertices(build_measurement_h(scn))
        elapsed = time.perf_counter() - start
        got = {(v[xi_var(1, 0)], v[xi_var(2, 0)]) for v in vs.vertices}
        assert got == {(F(0), F(0)), (F(0), F(1)), (F(1), F(0)), (F(1), F(1))}
        assert elapsed < 1.0


# --- 2: the four-preparation polytope -------------------------------------


def test_criterion_02_four_prep_polytope():
    with criterion(2, "four-preparation facets and equalities, under 10 s"):
        scn = four_prep_scenario()
        start = time.perf_counter()
        f2 = build_f2(scn, enumerate_vertices(build_measurement_h(scn)))
        poly = project_to_nc_polytope(f2)
        elapsed = time.perf_counter() - start
        for row in REFERENCE_EQUALITIES_41:
            residue = reduce_modulo(row, poly.equalities, poly.variables)
            assert not residue.coeffs and residue.const == 0
        keys = facet_keys(poly)
        covered = set()
        for row in REFERENCE_FACETS_41:
            k = reduced_key(poly, row)
            assert k in keys
            covered.add(k)
        assert len(covered) == 8
        for c in scn.coords():
            for row in (LinRow({p_var(c): 1}, 0, GEQ),
                        LinRow({p_var(c): -1}, F(1), GEQ)):
                reduced = canonicalize_row(
                    reduce_modulo(row, poly.equalities, poly.variables))
                if reduced.coeffs:
                    covered.add(row_key(reduced, poly.variables))
        assert covered == keys
        assert elapsed < 10.0


# --- 3: certificate for the extremal contextual table ---------------------


def test_criterion_03_contextual_certificate(poly41):
    with criterion(3, "extremal table infeasible with the known facet, "
                      "violation exactly 1, under 1 s"):
        scn = four_prep_scenario()
        vs = enumerate_vertices(build_measurement_h(scn))
        start = time.perf_counter()
        verdict = check_table(scn, vs, contextual_table_41())
        elapsed = time.perf_counter() - start
        assert isinstance(verdict, Infeasible)
        expected = LinRow({p(1, 3): -1, p(2, 4): -1, p(1, 2): 1, p(2, 2): 1},
                          F(1), GEQ)
        assert canonicalize_row(reduce_modulo(
            verdict.inequality, poly41.equalities, poly41.variables)) \
            == canonicalize_row(reduce_modulo(expected, poly41.equalities,
                                              poly41.variables))
        assert verdict.violation == 1
        assert elapsed < 1.0


# --- 4: multiplexing optimum ----------------------------------------------


def test_criterion_04_multiplexing_optimum():
    with criterion(4, "bit-recovery optimum exactly 3/4, under 1 s"):
        scn = four_prep_scenario()
        vs = enumerate_vertices(build_measurement_h(scn))
        w = F(1, 8)
        objective = LinRow({p_var((1, 1, 0)): w, p_var((2, 1, 0)): w,
                            p_var((1, 2, 1)): w, p_var((2, 2, 1)): w,
                            p_var((1, 3, 0)): w, p_var((2, 3, 1)): w,
                            p_var((1, 4, 1)): w, p_var((2, 4, 0)): w},
                           F(0), GEQ)
        start = time.perf_counter()
        value, witness = optimize(scn, vs, objective, "max")
        elapsed = time.perf_counter() - start
        assert value == F(3, 4)
        assert isinstance(check_table(scn, vs, witness), Feasible)
        assert elapsed < 1.0


# --- 5: vertex enumeration, six-preparation scenario ----------------------


def test_criterion_05_six_prep_vertices():
    with criterion(5, "six half-integer assignment vertices, under 1 s"):
        start = time.perf_counter()
        scn = six_prep_scenario()
        vs = enumerate_vertices(build_measurement_h(scn))
        elapsed = time.perf_counter() - start
        got = {(v[xi_var(1, 0)], v[xi_var(2, 0)], v[xi_var(3, 0)])
               for v in vs.vertices}
        assert got == {(F(0), HALF, F(1)), (HALF, F(0), F(1)),
                       (F(1), F(0), HALF), (F(1), HALF, F(0)),
                       (F(0), F(1), HALF), (HALF, F(1), F(0))}
        assert elapsed < 1.0


# --- 6 and 7: the six-preparation polytope and its symmetry classes -------


REFERENCE_EQUALITIES_63 = [
    # one representative per symmetry class of the inviolable equalities
    LinRow({p(1, 1): 1, p(1, 2): 1, p(1, 3): -1, p(1, 4): -1}, 0, EQ),
    LinRow({p(1, 1): 1, p(2, 1): 1, p(3, 1): 1}, F(-3, 2), EQ),
    LinRow({p(1, 1): 1, p_var((1, 1, 1)): 1}, F(-1), EQ),
]

# bound <-> coefficient table of the seven facet classes; the fourth row
# corrects a one-symbol misprint in the source table (see the negation-pair
# and orbit-sum cross-checks below and notes/decisions.md)
REFERENCE_FACETS_63 = [
    ({p(1, 1): 1}, 1),
    ({p(1, 1): 2, p(2, 3): 2, p(3, 5): 2}, 5),
    ({p(1, 1): 1, p(2, 2): 1, p(3, 5): 1}, F(5, 2)),
    ({p(1, 1): 1, p(1, 3): -1, p(1, 5): -2, p(2, 2): -2, p(2, 3): 2,
      p(3, 5): 2}, 3),
    ({p(1, 1): 2, p(2, 2): -1, p(2, 3): 2}, 3),
    ({p(1, 1): 1, p(1, 5): -1, p(2, 2): 1, p(2, 3): 1, p(3, 5): 2}, 4),
    ({p(1, 1): 1, p(1, 5): -1, p(2, 2): 2, p(3, 5): 2}, 4),
]

REPORTED_ORBIT_SIZES_63 = [35, 48, 72, 576, 144, 576, 144]


def upper63(coeffs, bound):
    return LinRow({v: -c for v, c in coeffs.items()}, F(bound), GEQ)


def test_criterion_06_six_prep_polytope(scn63, poly63, group63):
    with criterion(6, "1596 facets, three equality classes, known facet "
                      "present and certified for the quantum table in "
                      "under 5 s, the committed document byte for byte, "
                      "within the 2 minute budget"):
        assert len(poly63.facets) == 1596
        # the three reference equalities hold ...
        for row in REFERENCE_EQUALITIES_63:
            residue = reduce_modulo(row, poly63.equalities, poly63.variables)
            assert not residue.coeffs and residue.const == 0
        # ... lie in three distinct orbits, and their orbits span the
        # whole equality space
        orbit_rows, keysets = [], []
        for row in REFERENCE_EQUALITIES_63:
            orbit = [act_on_row(g, row) for g in group63.elements]
            orbit_rows.extend(orbit)
            keysets.append({row_key(r, poly63.variables) for r in orbit})
        for a in range(3):
            for b in range(a + 1, 3):
                assert not (keysets[a] & keysets[b])
        assert (rref(orbit_rows, poly63.variables)
                == rref(poly63.equalities, poly63.variables))
        # the known noncontextuality inequality is a facet
        known = upper63({p(1, 1): 2, p(2, 3): 2, p(3, 5): 2}, 5)
        assert reduced_key(poly63, known) in facet_keys(poly63)
        # and the ideal quantum table violates it while breaking no
        # operational equivalence: the certificate is that facet, reached
        # at the box LP's optimum y.b* = -1, within 5 s
        vs63 = enumerate_vertices(build_measurement_h(scn63))
        start = time.perf_counter()
        verdict = check_table(scn63, vs63, quantum_table_63())
        elapsed = time.perf_counter() - start
        assert isinstance(verdict, Infeasible)
        assert verdict.certificate.value == -1
        assert reduced_key(poly63, verdict.inequality) \
            == reduced_key(poly63, known)
        assert elapsed < 5.0
        # the result document equals the one the benchmark classifies
        emitted = io.StringIO()
        write_document(polytope_to_doc(poly63), emitted)
        assert emitted.getvalue().encode() == SIX_PREP_DOCUMENT.read_bytes()
        assert TIMINGS["poly63"] < 120.0
        print(f"  (projection took {TIMINGS['poly63']:.0f} s)")


def test_criterion_07_six_prep_orbits(scn63, poly63, group63):
    with criterion(7, "group order 576, seven facet classes with the "
                      "published sizes and representatives"):
        assert group63.order == 576
        classes = classify_orbits(poly63.facets, group63, poly63.equalities,
                                  poly63.variables)
        assert len(classes) == 7
        keysets = [{row_key(m, poly63.variables)
                    for m in expand_orbit(c.representative, group63,
                                          poly63.equalities, poly63.variables)}
                   for c in classes]
        hits = []
        for coeffs, bound in REFERENCE_FACETS_63:
            k = reduced_key(poly63, upper63(coeffs, bound))
            matches = [ci for ci, ks in enumerate(keysets) if k in ks]
            assert len(matches) == 1
            hits.append(matches[0])
        assert sorted(hits) == list(range(7))  # all classes, each once
        sizes = [classes[ci].orbit_size for ci in hits]
        # six of the published sizes match outright
        assert sizes[1:] == REPORTED_ORBIT_SIZES_63[1:]
        # the first class was reported as 35; the computed orbit has 36
        # members (and only 36 makes the orbit sizes sum to 1596), so the
        # discrepancy is reported rather than hidden
        assert sum(c.orbit_size for c in classes) == 1596
        assert sum(REPORTED_ORBIT_SIZES_63) == 1595  # the reported sum is off
        print(f"  (first class: computed orbit size {sizes[0]}, "
              f"reported {REPORTED_ORBIT_SIZES_63[0]})")
        assert sizes[0] == 36


# --- 8, 9, 10: randomized cross-validation --------------------------------


def random_equivalences(rng, g, effects):
    """Up to two random equivalences, each on preparations or effects."""
    oe_p, oe_m = [], []
    for _ in range(rng.randint(0, 2)):
        if rng.random() < 0.5 and g >= 2:
            size = 2 * rng.randint(1, g // 2)
            chosen = rng.sample(range(1, g + 1), size)
            lhs, rhs = chosen[:size // 2], chosen[size // 2:]
            w = F(1, len(lhs))
            oe_p.append(({j: w for j in lhs}, {j: w for j in rhs}))
        elif len(effects) >= 2:
            size = 2 * rng.randint(1, min(2, len(effects) // 2))
            chosen = rng.sample(effects, size)
            lhs, rhs = chosen[:size // 2], chosen[size // 2:]
            w = F(1, len(lhs))
            oe_m.append(({e: w for e in lhs}, {e: w for e in rhs}))
    return oe_p, oe_m


def random_small_scenario(rng, g, l, d=2):
    effects = [(i, m) for i in range(1, l + 1) for m in range(d)]
    oe_p, oe_m = random_equivalences(rng, g, effects)
    try:
        return scenario(g=g, l=l, d=d, oe_p=oe_p, oe_m=oe_m)
    except Exception:
        return scenario(g=g, l=l, d=d)


def random_table(scn, rng):
    entries = {}
    for i in scn.measurements():
        for j in scn.preparations():
            weights = [rng.randint(0, 6) for _ in scn.outcomes()]
            total = sum(weights)
            for m in scn.outcomes():
                entries[i, j, m] = (F(weights[m], total) if total
                                    else F(1, scn.d))
    return DataTable.make(entries)


def free_p_coords(poly):
    pivots = {max(e.coeffs, key=poly.variables.index)
              for e in poly.equalities}
    return [v for v in poly.variables if v not in pivots]


CHECK_SHAPES = [(2, 2), (3, 2), (4, 2), (2, 3), (4, 1)]


@pytest.fixture(scope="module")
def random_check_scenarios():
    rng = random.Random(20230817)
    out = []
    for g, l in CHECK_SHAPES:
        scn = random_small_scenario(rng, g, l)
        vs = enumerate_vertices(build_measurement_h(scn))
        poly = project_to_nc_polytope(build_f2(scn, vs))
        out.append((scn, vs, poly))
    return out


def test_criterion_08_feasibility_matches_membership(random_check_scenarios):
    with criterion(8, "five random scenarios x 100 random tables: "
                      "feasibility check equals polytope membership"):
        rng = random.Random(11)
        for scn, vs, poly in random_check_scenarios:
            for _ in range(100):
                table = random_table(scn, rng)
                verdict = check_table(scn, vs, table)
                member = polytope_contains(poly, table.as_dict())
                assert isinstance(verdict, Feasible) == member


def test_criterion_09_projection_matches_hull_oracle(monkeypatch):
    with criterion(9, "small-scenario projection equals the "
                      "vertex-enumeration hull oracle"):
        rng = random.Random(20230818)
        shapes = [(2, 1), (1, 2), (1, 1), (2, 1), (1, 2), (2, 1)]
        for g, l in shapes:
            scn = random_small_scenario(rng, g, l)
            vs = enumerate_vertices(build_measurement_h(scn))
            f2 = build_f2(scn, vs)
            # total (nu, p) dimension stays within the oracle budget
            assert len(f2.nu_vars) + len(f2.p_vars) <= 10
            fm, hull = fm_and_hull(f2, monkeypatch)
            assert fm.equalities == hull.equalities
            assert fm.facets == hull.facets
            free = free_p_coords(fm)
            points = brute_force_f2_points(scn, vs, free)
            # every oracle point satisfies the computed facets
            for point in points:
                assignment = dict(zip(free, point))
                assert all(satisfies(r, assignment) for r in fm.facets)
            # every vertex of the computed facet region lies in the hull
            # of the oracle points, so the two polytopes coincide
            if free:
                region = (free, [], [dense_row(f, free) for f in fm.facets])
                for vertex in enumerate_vertices(region).vertices:
                    tup = tuple(vertex[v] for v in free)
                    assert in_convex_hull(tup, points)


def test_criterion_10_certificate_dichotomy(random_check_scenarios):
    with criterion(10, "1000 random tables: every verdict carries an "
                       "independently verified witness or certificate"):
        rng = random.Random(13)
        per_scenario = 200
        for scn, vs, poly in random_check_scenarios:
            f2 = build_f2(scn, vs)
            for _ in range(per_scenario):
                table = random_table(scn, rng)
                verdict = check_table(scn, vs, table)
                if isinstance(verdict, Feasible):
                    # the model reproduces the table exactly (and the
                    # reconstruction validates the distribution itself)
                    assert reconstruct_table(f2, verdict.nu) == table
                else:
                    assert isinstance(verdict, Infeasible)
                    numeric = bind_table(f2, table)
                    y = verdict.certificate.y
                    for k in range(len(f2.nu_vars)):
                        ym = sum(y[i] * f2.eq_matrix[i][k]
                                 for i in range(len(y)))
                        assert 0 <= ym <= 1
                    yb = sum(a * b for a, b in zip(y, numeric.rhs))
                    assert yb < 0
                    assert yb == verdict.certificate.value
