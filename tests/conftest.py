import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ncpolytope.measurement_polytope import build_measurement_h, enumerate_vertices
from ncpolytope.ncsystem import build_f2
from ncpolytope.scenario import scenario

SCENARIO_DIR = Path(__file__).parent.parent / "scenarios"

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def four_prep_scenario():
    """4 preparations, 2 binary measurements, one preparation equivalence."""
    return scenario(g=4, l=2, d=2,
                    oe_p=[({1: HALF, 2: HALF}, {3: HALF, 4: HALF})])


def six_prep_scenario():
    """6 preparations, 3 binary measurements, chained preparation
    equivalences and one coherent measurement equivalence."""
    return scenario(
        g=6, l=3, d=2,
        oe_p=[({1: HALF, 2: HALF}, {3: HALF, 4: HALF}),
              ({3: HALF, 4: HALF}, {5: HALF, 6: HALF})],
        oe_m=[({(1, 0): THIRD, (2, 0): THIRD, (3, 0): THIRD},
               {(1, 1): THIRD, (2, 1): THIRD, (3, 1): THIRD})])


def unnormalized_measurement_h(scn):
    """The measurement system without its normalization rows, the only
    rows with a constant: only xi >= 0 bounds it, so it is unbounded."""
    variables, equalities, inequalities = build_measurement_h(scn)
    return variables, [r for r in equalities if not r[-1]], inequalities


@pytest.fixture(scope="session")
def scn41():
    return four_prep_scenario()


@pytest.fixture(scope="session")
def scn63():
    return six_prep_scenario()


@pytest.fixture(scope="session")
def verts41(scn41):
    return enumerate_vertices(build_measurement_h(scn41))


@pytest.fixture(scope="session")
def verts63(scn63):
    return enumerate_vertices(build_measurement_h(scn63))


@pytest.fixture(scope="session")
def f2_41(scn41, verts41):
    return build_f2(scn41, verts41)


@pytest.fixture(scope="session")
def poly41(f2_41):
    from ncpolytope.projection import project_to_nc_polytope
    return project_to_nc_polytope(f2_41)


TIMINGS = {}

# one line per acceptance criterion, echoed after capture ends
CRITERION_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def poly63(scn63, verts63):
    """The large polytope; computed once per session."""
    import time

    from ncpolytope.projection import project_to_nc_polytope
    start = time.perf_counter()
    poly = project_to_nc_polytope(build_f2(scn63, verts63))
    TIMINGS["poly63"] = time.perf_counter() - start
    return poly


@pytest.fixture(scope="session")
def group63(scn63):
    """The 576-element relabeling group of the six-preparation scenario."""
    from ncpolytope.symmetry import (flip_outcomes, generate_group,
                                     swap_measurements, swap_preparations)
    gens = [swap_measurements(scn63, 1, 2), swap_measurements(scn63, 1, 3),
            flip_outcomes(scn63, [1, 2, 3]), swap_preparations(scn63, (1, 2)),
            swap_preparations(scn63, [(1, 3), (2, 4)]),
            swap_preparations(scn63, [(1, 5), (2, 6)])]
    return generate_group(scn63, gens)


def contextual_table_41():
    """The extremal table that maximally violates the nontrivial facet."""
    entries = {}
    p0 = {(1, 1): 1, (1, 2): 0, (1, 3): 1, (1, 4): 0,
          (2, 1): 1, (2, 2): 0, (2, 3): 0, (2, 4): 1}
    for (i, j), v in p0.items():
        entries[i, j, 0] = Fraction(v)
        entries[i, j, 1] = 1 - Fraction(v)
    from ncpolytope.scenario import DataTable
    return DataTable.make(entries)


def quantum_table_63():
    """Ideal trine-state table: violates the noncontextual bound."""
    from ncpolytope.scenario import DataTable
    entries = {}
    for i in (1, 2, 3):
        for j in range(1, 7):
            k = (j + 1) // 2
            if j % 2 == 1:
                p0 = Fraction(1) if i == k else Fraction(1, 4)
            else:
                p0 = Fraction(0) if i == k else Fraction(3, 4)
            entries[i, j, 0] = p0
            entries[i, j, 1] = 1 - p0
    return DataTable.make(entries)


def uniform_table(scn):
    from ncpolytope.scenario import DataTable
    w = Fraction(1, scn.d)
    return DataTable.make({c: w for c in scn.coords()})
