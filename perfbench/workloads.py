"""Set-up, operations and output checks of the three workloads.

Each operation goes in process from an input document (JSON text) to a
result document (JSON text), through the same library calls the
``ncpolytope`` command line makes.  Set-up is what a user pays once per
session: parsing the scenarios, the measurement vertices that ``check``
reuses, and reading, validating and closing the group for ``orbits``.
Functions of the program are reached through their modules, so that the
tracer's wrappers see the calls.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import nullcontext
from pathlib import Path

from ncpolytope import (documents, feasibility, measurement_polytope, ncsystem,
                        projection, symmetry)
from ncpolytope.scenario import p_vars

import checks
import inputs

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
SIX_PREP_POLYTOPE = Path(__file__).resolve().parent / "data" / "six_prep_polytope.json"


def _read(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _emit(doc) -> str:
    stream = io.StringIO()
    documents.write_document(doc, stream)
    return stream.getvalue()


class Op:
    """One timed operation: an input document and the call that answers it."""

    def __init__(self, name, run):
        self.name = name
        self.run = run


class Workload:
    def __init__(self, seed, tracer=None):
        self.seed = seed
        self._span = tracer.span if tracer else nullcontext
        self.ops = []
        self.problems = []   # set-up checks that failed
        self.setup()

    def check(self, outputs) -> None:
        """Check the outputs of one round (None for a failed operation)."""
        raise NotImplementedError

    def classes(self, outputs) -> list:
        """The latency class of each operation, None where there is none."""
        return [None] * len(outputs)


class PolytopeWorkload(Workload):
    def setup(self):
        self.docs = [(name, _read(SCENARIOS / f"{name}.json"))
                     for name in ("simplest", "state_discrimination")]
        self.docs += inputs.polytope_inputs(self.seed)
        self.ops = [Op(name, lambda text=json.dumps(doc): self.polytope(text))
                    for name, doc in self.docs]

    def polytope(self, text):
        with self._span("documents.parse"):
            scn = documents.scenario_from_doc(json.loads(text))
        h = measurement_polytope.build_measurement_h(scn)
        vs = measurement_polytope.enumerate_vertices(h)
        poly = projection.project_to_nc_polytope(ncsystem.build_f2(scn, vs))
        with self._span("documents.emit"):
            return _emit(documents.polytope_to_doc(poly))

    def check(self, outputs):
        rng = random.Random(f"membership-{self.seed}")
        sides = {}
        for (name, doc), out in zip(self.docs, outputs):
            if out is None:
                continue
            poly_doc = json.loads(out)
            uniform = inputs.uniform_table(doc)
            checks.check_uniform_inside(poly_doc, uniform)
            if name == "simplest":
                checks.check_simplest_polytope(poly_doc)
            scn = documents.scenario_from_doc(doc)
            vs = measurement_polytope.enumerate_vertices(
                measurement_polytope.build_measurement_h(scn))
            inside, outside = checks.membership_tables(poly_doc, uniform, rng)
            sides[name] = outside is not None
            for table in (inside, outside):
                if table is None:
                    continue
                verdict = feasibility.check_table(
                    scn, vs, documents.table_from_doc(inputs.table_doc(table)))
                checks.require(
                    checks.contains(poly_doc, table)
                    == isinstance(verdict, feasibility.Feasible),
                    f"{name}: polytope membership and the LP verdict differ")
        checks.require(sides.get("simplest") and sides.get("state_discrimination"),
                       "no table outside the bundled scenarios' polytopes")


class CheckWorkload(Workload):
    def setup(self):
        named = [(name, _read(SCENARIOS / f"{name}.json"))
                 for name in ("simplest", "six_preparations")]
        named += inputs.check_random_scenarios()
        self.scenarios = {}
        for name, doc in named:
            with self._span("documents.parse"):
                scn = documents.scenario_from_doc(doc)
            vs = measurement_polytope.enumerate_vertices(
                measurement_polytope.build_measurement_h(scn))
            self.scenarios[name] = (doc, scn, vs)
        self.tables = []   # (scenario name, sweep name or None, table)
        for name, target_file, grid in (
                ("simplest", "simplest_table_contextual", inputs.SIMPLEST_SWEEP),
                ("six_preparations", "six_preparations_table_quantum",
                 inputs.SIX_PREP_SWEEP)):
            target = inputs.parse_table_doc(_read(SCENARIOS / f"{target_file}.json"))
            uniform = inputs.uniform_table(self.scenarios[name][0])
            self.tables += [(name, name, inputs.mix(target, uniform, v)) for v in grid]
        rng = random.Random(self.seed)
        for (name, doc), count in zip(named[2:], inputs.TABLES_PER_RANDOM_SCENARIO):
            self.tables += [(name, None, inputs.random_table(doc, rng))
                            for _ in range(count)]
        self.ops = [Op(name, lambda name=name, text=json.dumps(inputs.table_doc(t)):
                       self.check_one(name, text))
                    for name, _, t in self.tables]

    def check_one(self, name, text):
        _, scn, vs = self.scenarios[name]
        with self._span("documents.parse"):
            table = documents.table_from_doc(json.loads(text))
        verdict = feasibility.check_table(scn, vs, table)
        with self._span("documents.emit"):
            return _emit(documents.verdict_to_doc(verdict))

    def vertices(self, name):
        vs = self.scenarios[name][2]
        return [{(i, m): v for (_, i, m), v in vertex.items()} for vertex in vs.vertices]

    def check(self, outputs):
        for name, (doc, _, _) in self.scenarios.items():
            checks.check_vertices(doc, self.vertices(name))
        checks.require(checks.outcome0_vertex_set(self.vertices("simplest"))
                       == checks.SIMPLEST_VERTICES, "four-preparation vertices")
        checks.require(checks.outcome0_vertex_set(self.vertices("six_preparations"))
                       == checks.SIX_PREP_VERTICES, "six-preparation vertices")
        sweeps = {}
        for (name, sweep, table), out in zip(self.tables, outputs):
            if out is None:
                continue
            verdict = json.loads(out)
            checks.check_verdict(self.scenarios[name][0], self.vertices(name), table, verdict)
            if sweep:
                sweeps.setdefault(sweep, []).append(verdict["status"])
            if name == "six_preparations" and checks.six_prep_bound_violated(table):
                checks.require(verdict["status"] == "infeasible",
                               "a table violating the paper's bound got a model")
        for statuses in sweeps.values():
            checks.check_sweep(statuses)

    def classes(self, outputs):
        """'model' or 'certificate' for each table."""
        return ["model" if out and json.loads(out)["status"] == "feasible" else "certificate"
                for out in outputs]


class OrbitsWorkload(Workload):
    def setup(self):
        self.scn_doc = _read(SCENARIOS / "six_preparations.json")
        with open(SIX_PREP_POLYTOPE) as fh:
            text = fh.read()
        with self._span("documents.parse"):
            self.scn = documents.scenario_from_doc(self.scn_doc)
            self.poly_doc = json.loads(text)
        uniform = inputs.uniform_table(self.scn_doc)
        try:
            checks.check_orbits_input(self.poly_doc, uniform)
        except checks.CheckFailed as exc:
            self.problems.append(f"orbits input: {exc}")
        # The seed only orders the facet list that the program reads.
        shuffled = dict(self.poly_doc)
        shuffled["facets"] = list(self.poly_doc["facets"])
        random.Random(self.seed).shuffle(shuffled["facets"])
        with self._span("documents.parse"):
            self.poly = documents.polytope_from_doc(shuffled, self.scn)
            self.gen_doc = _read(SCENARIOS / "six_preparations_generators.json")
            generators = documents.generators_from_doc(self.gen_doc, self.scn)
        self.group = symmetry.generate_group(self.scn, generators)
        if self.group.order != checks.SIX_PREP_GROUP_ORDER:
            self.problems.append(f"group order {self.group.order}")
        self.ops = [Op("six_preparations", self.orbits)]

    def orbits(self):
        classes = symmetry.classify_orbits(self.poly.facets, self.group,
                                           self.poly.equalities, p_vars(self.scn))
        with self._span("documents.emit"):
            return _emit(documents.orbits_to_doc(classes))

    def closure(self):
        """The relabeling group, closed by the benchmark's own code."""
        coords = sorted(inputs.uniform_table(self.scn_doc))
        return checks.group_closure(coords, self.gen_doc)

    def check(self, outputs):
        if outputs[0] is not None:
            checks.check_orbits(json.loads(outputs[0]), self.poly_doc, self.closure())


WORKLOADS = {"polytope": PolytopeWorkload, "check": CheckWorkload,
             "orbits": OrbitsWorkload}
