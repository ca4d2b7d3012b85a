"""Reproduce the six-preparation, three-measurement analysis end to end.

Computes the 1596-facet noncontextual polytope (under ten seconds of exact
arithmetic), classifies its facets under the 576-element relabeling group,
and checks the ideal quantum table against it.  The two progress lines of
the projection count the coordinates that the equalities leave free with
the vertices of the system over them (20, 846), then the free table
coordinates with the distinct image points of those vertices (8, 774),
which include points that are not extreme.

Usage: python3 scripts/six_preparations.py [--output polytope.json]
"""

import argparse
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ncpolytope.documents import polytope_to_doc, write_document
from ncpolytope.feasibility import Infeasible, check_table
from ncpolytope.measurement_polytope import build_measurement_h, enumerate_vertices
from ncpolytope.ncsystem import build_f2
from ncpolytope.projection import project_to_nc_polytope
from ncpolytope.scenario import DataTable, scenario
from ncpolytope.symmetry import (classify_orbits, flip_outcomes,
                                 generate_group, swap_measurements,
                                 swap_preparations)

F = Fraction
HALF = F(1, 2)
THIRD = F(1, 3)


def ideal_quantum_table(scn):
    """The trine-state table: each measurement identifies its own source
    pair perfectly and sees the other pairs at 1/4 versus 3/4."""
    entries = {}
    for i in scn.measurements():
        for j in scn.preparations():
            k = (j + 1) // 2
            if j % 2 == 1:
                p0 = F(1) if i == k else F(1, 4)
            else:
                p0 = F(0) if i == k else F(3, 4)
            entries[i, j, 0] = p0
            entries[i, j, 1] = 1 - p0
    return DataTable.make(entries)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--output", help="write the polytope document here")
    args = parser.parse_args()

    scn = scenario(
        g=6, l=3, d=2,
        oe_p=[({1: HALF, 2: HALF}, {3: HALF, 4: HALF}),
              ({3: HALF, 4: HALF}, {5: HALF, 6: HALF})],
        oe_m=[({(1, 0): THIRD, (2, 0): THIRD, (3, 0): THIRD},
               {(1, 1): THIRD, (2, 1): THIRD, (3, 1): THIRD})])

    vs = enumerate_vertices(build_measurement_h(scn))
    print(f"extremal measurement assignments ({len(vs)}):")
    for v in vs.as_tuples():
        print("   ", tuple(str(x) for x in v))

    start = time.perf_counter()
    poly = project_to_nc_polytope(
        build_f2(scn, vs),
        progress=lambda dim, rows: print(f"    ... {dim} coordinates, "
                                         f"{rows} rows", flush=True))
    print(f"polytope: {len(poly.equalities)} equalities, "
          f"{len(poly.facets)} facets "
          f"({time.perf_counter() - start:.0f} s)")

    gens = [swap_measurements(scn, 1, 2), swap_measurements(scn, 1, 3),
            flip_outcomes(scn, [1, 2, 3]), swap_preparations(scn, (1, 2)),
            swap_preparations(scn, [(1, 3), (2, 4)]),
            swap_preparations(scn, [(1, 5), (2, 6)])]
    group = generate_group(scn, gens)
    print("relabeling group order:", group.order)
    classes = classify_orbits(poly.facets, group, poly.equalities,
                              poly.variables)
    print(f"facet classes ({len(classes)}):")
    for c in classes:
        print(f"    orbit size {c.orbit_size:4d}:", c.representative)

    verdict = check_table(scn, vs, ideal_quantum_table(scn))
    assert isinstance(verdict, Infeasible)
    print("ideal quantum table verdict: infeasible")
    print("    inequality:", verdict.inequality)
    print("    violation: ", verdict.violation)

    if args.output:
        with open(args.output, "w") as fh:
            write_document(polytope_to_doc(poly), fh)
        print("polytope written to", args.output)


if __name__ == "__main__":
    main()
