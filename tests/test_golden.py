"""Byte-identity of the result documents on every bundled scenario, and
of the ``polytope`` documents of inline scenarios on both projection routes.

Each case runs one CLI command and compares the sha256 of the document it
writes with a stored digest, so a refactor that changes any byte of a
``vertices``, ``polytope``, ``check``, ``optimize`` or ``orbits`` document
fails here.  The six-preparation polytope (about 8 s) is not recomputed:
acceptance criterion 6 pins its bytes, and its ``orbits`` case reads the
committed copy in ``perfbench/data``.  Run ``python tests/test_golden.py``
to print the current digests.
"""

import hashlib
import json
from itertools import product
from pathlib import Path

import pytest

import ncpolytope.projection as projection
from ncpolytope.cli import EXIT_INFEASIBLE, EXIT_OK, main

ROOT = Path(__file__).parent.parent
SCN = ROOT / "scenarios"
SIX_PREP_POLYTOPE = ROOT / "perfbench" / "data" / "six_prep_polytope.json"
OBJECTIVE = SCN / "simplest_pom_objective.json"

GENERATORS = {
    "simplest": [
        {"type": "swap_measurements", "args": [1, 2]},
        {"type": "swap_preparations", "args": [1, 2]},
        {"type": "swap_preparations", "args": [[1, 3], [2, 4]]},
    ],
    "state_discrimination": [
        {"type": "swap_measurements", "args": [1, 2]},
        {"type": "swap_measurements", "args": [2, 3]},
        {"type": "flip_outcomes", "args": [1, 2, 3]},
        {"type": "swap_preparations", "args": [[1, 3], [2, 4]]},
    ],
}

BUNDLED_TABLES = {
    "simplest": SCN / "simplest_table_contextual.json",
    "six_preparations": SCN / "six_preparations_table_quantum.json",
}

# (scenario, document) -> sha256 of the bytes the CLI writes.
DIGESTS = {
    ("simplest", "vertices"):
        "1e67a5ade5969214e434a1ed69ae159602d4d4f5044cb7410d733f9ac5370804",
    ("simplest", "check_uniform"):
        "8603cdb5ce2b366044e2d7acf59a6928a8ac6abace476519c13c1467627d923a",
    ("simplest", "optimize"):
        "41c409d20085f25af087caf7aa52d3c2af84c0c24126ebdfb7f1abb904e91092",
    ("simplest", "check_bundled"):
        "9a71414c9fac58150c842d317a91cebfbeb1f6456a09bd53968f460d6b7bc52d",
    ("simplest", "polytope"):
        "19b25a638c63747acf5015ef83eadf58830ff373573d9449cc9f66960a17b6fa",
    ("simplest", "orbits"):
        "0faa5901bf02b98390ee8fd848d86e31049fbd257e4578b843215b1a1a5b6a4c",
    ("state_discrimination", "vertices"):
        "6c046713bec28209c456c075b6cbb10e53f9291f7c4b2dfca1284175c2acb2c7",
    ("state_discrimination", "check_uniform"):
        "efb3ef5b1330ee458cd37774e184958da1dfa656578ecc4e19cfb0a42ba854c4",
    ("state_discrimination", "optimize"):
        "daffa8c18791dfd5b628d60237aefe8892e3837fa6c73a2ea31861f546b0e631",
    ("state_discrimination", "polytope"):
        "c55bd97dfee54b24290d6762d3e9a21bb078392b2f36685f61570026baebc22a",
    ("state_discrimination", "orbits"):
        "2eca60dc554c48ad84aeef42acc59b3ef0a89e1cd99f7c48faaceb0247ca6549",
    ("six_preparations", "vertices"):
        "40ed1318110cf6310ce4f9312f26603a9425d29d30c7d6c4266717658bf3f00a",
    ("six_preparations", "check_uniform"):
        "8879863bf202ca60458281db1cd37687c95626c34b7c1a2ba4aef1fd1d385f37",
    ("six_preparations", "optimize"):
        "071ca29cc176e9ffd27354ba603e7bb64589c9aeb1327ff7ff67be8db6a26381",
    ("six_preparations", "check_bundled"):
        "29573919bf8d95ca6a811c28a6c2d1da185d48a21cc2486fdd11f3f8952611ee",
    ("six_preparations", "orbits"):
        "197c88e444995c57b9350b238cfa51245e6d99836ef9f374ba797981a9a8c061",
}


def uniform_table_doc(scenario_path):
    doc = json.loads(scenario_path.read_text())
    w = f"1/{doc['outcomes']}"
    return {"probabilities": [[i, j, m, w]
                              for i in range(1, doc["measurements"] + 1)
                              for j in range(1, doc["preparations"] + 1)
                              for m in range(doc["outcomes"])]}


def commands(name, tmp):
    """The CLI argument lists of every document for one scenario."""
    scenario = SCN / f"{name}.json"
    uniform = tmp / "uniform.json"
    uniform.write_text(json.dumps(uniform_table_doc(scenario)))
    out = {
        "vertices": ["vertices", scenario],
        "check_uniform": ["check", scenario, uniform],
        "optimize": ["optimize", scenario, OBJECTIVE],
    }
    if name in BUNDLED_TABLES:
        out["check_bundled"] = ["check", scenario, BUNDLED_TABLES[name]]
    if name == "six_preparations":
        out["orbits"] = ["orbits", scenario, SIX_PREP_POLYTOPE,
                         SCN / "six_preparations_generators.json"]
    else:
        gens = tmp / "generators.json"
        gens.write_text(json.dumps({"generators": GENERATORS[name]}))
        out["polytope"] = ["polytope", scenario]
        # Reads the document written by the "polytope" command above.
        out["orbits"] = ["orbits", scenario, tmp / "polytope.json", gens]
    return out


def documents(name, tmp):
    """sha256 of every document of one scenario, in command order."""
    digests = {}
    for what, argv in commands(name, tmp).items():
        path = tmp / f"{what}.json"
        code = main([str(a) for a in argv] + ["--output", str(path)])
        assert code in (EXIT_OK, EXIT_INFEASIBLE), (name, what, code)
        digests[what] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("name", ["simplest", "state_discrimination",
                                  "six_preparations"])
def test_documents_byte_identical(name, tmp_path):
    got = documents(name, tmp_path)
    want = {what: d for (scn, what), d in DIGESTS.items() if scn == name}
    assert got == want


H = "1/2"

# Scenarios that take the Fourier-Motzkin route, where the irredundancy
# passes decide most of the facets, with the sha256 of their ``polytope``
# documents.  Each has preparation or measurement equivalences, so the
# eliminations produce redundant rows; ``simplest`` is the only bundled
# scenario on this route.
FM_ROUTE = {
    "g3_l3_p3": (
        {"preparations": 3, "measurements": 3, "outcomes": 2,
         "prep_equivalences": [{"lhs": [[1, H], [2, H]], "rhs": [[3, "1"]]}],
         "meas_equivalences": []},
        "660095fd4bfbb58cda8383b314f20f623cc679a2ae18ab1224be0023682fc823"),
    "g3_l3_pm": (
        {"preparations": 3, "measurements": 3, "outcomes": 2,
         "prep_equivalences": [{"lhs": [[1, H], [2, H]], "rhs": [[3, "1"]]}],
         "meas_equivalences": [{"lhs": [[1, 0, H], [2, 0, H]],
                                "rhs": [[1, 1, H], [3, 0, H]]}]},
        "ad3f159789311a73bd23568bb016e1c1f468fa255678a94c67d8bc54fd56478c"),
    "g5_l2_p2": (
        {"preparations": 5, "measurements": 2, "outcomes": 2,
         "prep_equivalences": [{"lhs": [[1, H], [2, H]],
                                "rhs": [[3, H], [4, H]]},
                               {"lhs": [[1, "1"]], "rhs": [[5, "1"]]}],
         "meas_equivalences": []},
        "d35c709d960ec3cdf9e35695edf7141cab22ef6f802649d92a8cc99668334e8b"),
}


def parity_equivalences(n):
    """The parity-oblivious multiplexing equivalences of n bits.

    Preparation j encodes the bits of j - 1, most significant first.  For
    each parity s of weight two or more, the even preparations mixed
    equally equal the odd ones mixed equally.
    """
    xs = list(product((0, 1), repeat=n))
    w = f"1/{2 ** (n - 1)}"
    out = []
    for s in product((0, 1), repeat=n):
        if sum(s) >= 2:
            odd = [sum(a * b for a, b in zip(s, x)) % 2 for x in xs]
            out.append({"lhs": [[j, w] for j, p in enumerate(odd, 1) if not p],
                        "rhs": [[j, w] for j, p in enumerate(odd, 1) if p]})
    return out


# Scenarios that take the hull route.  ``g4_l3_pm`` has nine free
# distribution coordinates, one more than ``FM_MAX_NU_DIM``;
# Fourier-Motzkin would run for minutes on it.  ``pom3`` is three-bit
# parity-oblivious multiplexing (eight preparations, four equivalences),
# whose distribution DD peaks at 2920 rays in the given row order and at
# 666 in the adaptive one.
HULL_ROUTE = {
    "g4_l3_pm": (
        {"preparations": 4, "measurements": 3, "outcomes": 2,
         "prep_equivalences": [{"lhs": [[1, H], [2, H]],
                                "rhs": [[3, H], [4, H]]}],
         "meas_equivalences": [{"lhs": [[1, 0, "1/3"], [2, 0, "1/3"],
                                        [3, 0, "1/3"]],
                                "rhs": [[1, 1, "1/3"], [2, 1, "1/3"],
                                        [3, 1, "1/3"]]}]},
        "fd0a9dad35860f9b8863769beff25f02fb6e3e482f8686b1bfecec0d8fc643f1"),
    "pom3": (
        {"preparations": 8, "measurements": 3, "outcomes": 2,
         "prep_equivalences": parity_equivalences(3),
         "meas_equivalences": []},
        "466c7a32873832589231cee4fc036bd00cc7bc15372089ccddafba540f48c605"),
}


def polytope_digest(doc, tmp):
    scenario, out = tmp / "scenario.json", tmp / "polytope.json"
    scenario.write_text(json.dumps(doc))
    assert main(["polytope", str(scenario), "--output", str(out)]) == EXIT_OK
    return hashlib.sha256(out.read_bytes()).hexdigest()


def refuse(route):
    def fails(*args):
        raise AssertionError(f"took the {route} route")
    return fails


@pytest.mark.parametrize("name", sorted(FM_ROUTE))
def test_fm_route_polytope_byte_identical(name, tmp_path, monkeypatch):
    monkeypatch.setattr(projection, "_hull_facets", refuse("hull"))
    doc, digest = FM_ROUTE[name]
    assert polytope_digest(doc, tmp_path) == digest


@pytest.mark.parametrize("name", sorted(FM_ROUTE))
def test_fm_route_scenario_through_the_hull_route(name, tmp_path,
                                                  monkeypatch):
    # the hull route gives the same bytes as Fourier-Motzkin
    monkeypatch.setattr(projection, "FM_MAX_NU_DIM", -1)
    monkeypatch.setattr(projection, "_fm_facets", refuse("Fourier-Motzkin"))
    doc, digest = FM_ROUTE[name]
    assert polytope_digest(doc, tmp_path) == digest


@pytest.mark.parametrize("name", sorted(HULL_ROUTE))
def test_hull_route_polytope_byte_identical(name, tmp_path, monkeypatch):
    monkeypatch.setattr(projection, "_fm_facets", refuse("Fourier-Motzkin"))
    doc, digest = HULL_ROUTE[name]
    assert polytope_digest(doc, tmp_path) == digest


if __name__ == "__main__":
    import tempfile
    for name in ("simplest", "state_discrimination", "six_preparations"):
        with tempfile.TemporaryDirectory() as tmp:
            for what, digest in documents(name, Path(tmp)).items():
                print(f'    ("{name}", "{what}"):\n        "{digest}",')
    for name, (doc, _) in sorted({**FM_ROUTE, **HULL_ROUTE}.items()):
        with tempfile.TemporaryDirectory() as tmp:
            print(f'    "{name}": {polytope_digest(doc, Path(tmp))}')
    projection.FM_MAX_NU_DIM = -1
    for name, (doc, _) in sorted(FM_ROUTE.items()):
        with tempfile.TemporaryDirectory() as tmp:
            print(f'    "{name}", hull route: '
                  f'{polytope_digest(doc, Path(tmp))}')
