import errno
import hashlib
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ncpolytope
from conftest import SCENARIO_DIR, unnormalized_measurement_h
from ncpolytope import cli, dd, feasibility, measurement_polytope, simplex
from ncpolytope.cli import (EXIT_INFEASIBLE, EXIT_INTERNAL, EXIT_LIMIT,
                            EXIT_OK, EXIT_PARSE, main)
from ncpolytope.feasibility import PrimalFeasible
from ncpolytope.linalg import (InconsistentSystem, InputError, InternalError,
                               LimitExceeded)
from ncpolytope.ncsystem import InvalidDistribution
from ncpolytope.simplex import UNBOUNDED, LPResult, solve_standard
from test_golden import DIGESTS

F = Fraction

SIMPLEST = str(SCENARIO_DIR / "simplest.json")
CONTEXTUAL = str(SCENARIO_DIR / "simplest_table_contextual.json")
OBJECTIVE = str(SCENARIO_DIR / "simplest_pom_objective.json")


@pytest.fixture
def uniform(tmp_path):
    """The path of the simplest scenario's uniform table, which has a model."""
    path = tmp_path / "uniform.json"
    path.write_text(json.dumps({"probabilities": [
        [i, j, m, "1/2"] for i in (1, 2) for j in (1, 2, 3, 4)
        for m in (0, 1)]}))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_vertices(capsys):
    code, out, _ = run(capsys, "vertices", SIMPLEST)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert len(doc["vertices"]) == 4


def test_polytope_and_output_file(capsys, tmp_path):
    target = tmp_path / "poly.json"
    code, out, _ = run(capsys, "polytope", SIMPLEST, "--output", str(target))
    assert code == EXIT_OK
    assert out == ""
    doc = json.loads(target.read_text())
    assert len(doc["facets"]) == 24
    assert len(doc["equalities"]) == 10


def test_polytope_stdout_deterministic(capsys):
    code1, out1, _ = run(capsys, "polytope", SIMPLEST)
    code2, out2, _ = run(capsys, "polytope", SIMPLEST)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_check_contextual_table(capsys):
    code, out, _ = run(capsys, "check", SIMPLEST, CONTEXTUAL)
    assert code == EXIT_INFEASIBLE
    doc = json.loads(out)
    assert doc["status"] == "infeasible"
    assert F(doc["violation"]) == 1


def test_check_feasible_table(capsys, uniform):
    code, out, _ = run(capsys, "check", SIMPLEST, uniform)
    assert code == EXIT_OK
    assert json.loads(out)["status"] == "feasible"


def test_check_equivalence_breaking_table(capsys, tmp_path):
    table = {"probabilities": [[i, j, m, "1/2"]
                               for i in (1, 2) for j in (1, 2, 3, 4)
                               for m in (0, 1)]}
    table["probabilities"][:2] = [[1, 1, 0, "1"], [1, 1, 1, "0"]]
    path = tmp_path / "breaking.json"
    path.write_text(json.dumps(table))
    code, out, _ = run(capsys, "check", SIMPLEST, str(path))
    assert code == EXIT_INFEASIBLE
    assert "broken_equivalence" in out
    doc = json.loads(out)
    assert doc["broken_equivalence"] == ["prep", 0]
    assert F(doc["violation"]) == F(1, 2)
    code, out, _ = run(capsys, "check", SIMPLEST, CONTEXTUAL)
    assert "broken_equivalence" not in json.loads(out)


def test_optimize(capsys):
    code, out, _ = run(capsys, "optimize", SIMPLEST, OBJECTIVE)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert F(doc["value"]) == F(3, 4)
    assert len(doc["witness_table"]) == 16


def orbits_inputs(tmp_path):
    """The simplest scenario's polytope and generators documents."""
    poly_path = tmp_path / "poly.json"
    assert main(["polytope", SIMPLEST, "--output", str(poly_path)]) == EXIT_OK
    gens = {"generators": [
        {"type": "swap_measurements", "args": [1, 2]},
        {"type": "swap_preparations", "args": [1, 2]},
        {"type": "swap_preparations", "args": [[1, 3], [2, 4]]},
    ]}
    gens_path = tmp_path / "gens.json"
    gens_path.write_text(json.dumps(gens))
    return SIMPLEST, str(poly_path), str(gens_path)


def test_orbits_pipeline(capsys, tmp_path):
    paths = orbits_inputs(tmp_path)
    capsys.readouterr()
    code, out, _ = run(capsys, "orbits", *paths)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert sorted(c["orbit_size"] for c in doc["classes"]) == [8, 8, 8]


@pytest.mark.parametrize("block, term, constant", [
    ("facets", [9, 9, 9, "1"], None),       # coordinate outside the scenario
    ("equalities", [9, 9, 9, "1"], None),
    ("equalities", None, "1"),              # 0 = 1
    ("equalities", None, None),             # not a list of rows
])
def test_orbits_rejects_malformed_polytope(capsys, tmp_path, block, term,
                                           constant):
    scn, poly, gens = orbits_inputs(tmp_path)
    doc = json.loads(Path(poly).read_text())
    if term:
        doc[block][0]["terms"].append(term)
    elif constant:
        doc[block].append({"constant": constant, "terms": []})
    else:
        doc[block] = 5
    Path(poly).write_text(json.dumps(doc))
    capsys.readouterr()
    code, out, err = run(capsys, "orbits", scn, poly, gens)
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("error: polytope")


def test_orbits_rejects_unreduced_facet(capsys, tmp_path):
    # facet 0 + equality 0: the same halfspace on the polytope's affine
    # hull, written with terms on pivot coordinates
    scn, poly, gens = orbits_inputs(tmp_path)
    doc = json.loads(Path(poly).read_text())
    facet, eq = doc["facets"][0], doc["equalities"][0]
    terms = {tuple(t[:3]): F(t[3]) for t in facet["terms"]}
    for *coord, c in eq["terms"]:
        terms[tuple(coord)] = terms.get(tuple(coord), 0) + F(c)
    facet["terms"] = [[*coord, str(c)] for coord, c in sorted(terms.items())
                      if c]
    facet["constant"] = str(F(facet["constant"]) + F(eq["constant"]))
    Path(poly).write_text(json.dumps(doc))
    capsys.readouterr()
    code, out, err = run(capsys, "orbits", scn, poly, gens)
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("error: polytope document: facet 0 has a term on")


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run(capsys, "vertices", str(bad))
    assert code == EXIT_PARSE
    assert "error:" in err


def test_non_utf8_input_is_a_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, "vertices", str(bad))
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_deeply_nested_input_is_a_parse_error(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text('{"probabilities": ' + "[" * 1500 + "]" * 1500 + "}")
    code, out, err = run(capsys, "check", SIMPLEST, str(deep))
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "nested too deeply" in err and "Traceback" not in err


def test_overlong_number_is_a_parse_error(capsys, tmp_path):
    # json reads int literals of at most 4300 digits; a longer one raises
    # a plain ValueError while loading
    big = tmp_path / "big.json"
    big.write_text('{"probabilities": [[1, 1, 0, ' + "1" * 5000 + "]]}")
    code, out, err = run(capsys, "check", SIMPLEST, str(big))
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_overlong_result_rational_is_an_error_line(capsys, tmp_path):
    # the optimum has a 4300-digit numerator, which str() refuses to write
    doc = json.loads(Path(OBJECTIVE).read_text())
    doc["terms"][0][3] = "1e4300"
    objective = tmp_path / "objective.json"
    objective.write_text(json.dumps(doc))
    code, out, err = run(capsys, "optimize", SIMPLEST, str(objective))
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "4300-digit" in err and "Traceback" not in err


def test_boolean_generator_index_is_a_parse_error(capsys, tmp_path):
    # true is not measurement 1, though bool is a subclass of int
    scn, poly, gens = orbits_inputs(tmp_path)
    Path(gens).write_text(json.dumps({"generators": [
        {"type": "swap_measurements", "args": [True, 2]}]}))
    capsys.readouterr()
    code, out, err = run(capsys, "orbits", scn, poly, gens)
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("error: malformed generator entry")


def test_long_value_in_parse_error_is_clipped(tmp_path):
    # A probability nested 980 lists deep loads, but is not a rational.  A
    # fresh process starts on a shallow stack, as the command does.
    deep = tmp_path / "deep.json"
    deep.write_text('{"probabilities": [[1, 1, 0, ' + "[" * 980 + "]" * 980
                    + "]]}")
    proc = run_optimized("check", SIMPLEST, str(deep))
    assert proc.returncode == EXIT_PARSE
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: expected a rational string")
    assert proc.stderr.count("\n") == 1 and len(proc.stderr.encode()) < 200


def test_invalid_scenario_exit_code(capsys, tmp_path):
    doc = {"preparations": 2, "measurements": 1, "outcomes": 2,
           "prep_equivalences": [
               {"lhs": [[1, "1/2"], [2, "1/4"]], "rhs": [[1, "1"]]}]}
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "vertices", str(path))
    assert code == EXIT_PARSE


def test_malformed_table_exit_code(capsys, tmp_path):
    table = {"probabilities": [[i, j, m, "2" if (i, j, m) == (1, 1, 0)
                                else "1/2"]
                               for i in (1, 2) for j in (1, 2, 3, 4)
                               for m in (0, 1)]}
    path = tmp_path / "t.json"
    path.write_text(json.dumps(table))
    code, _, err = run(capsys, "check", SIMPLEST, str(path))
    assert code == EXIT_PARSE


def test_group_cap_exit_code(capsys, tmp_path, monkeypatch):
    # the four elements of this group, each over the simplest scenario's
    # 16 coordinates, fit a cap of 64 entries; at 63 the closure stops
    # when it meets its fourth element
    import ncpolytope.symmetry as symmetry
    poly_path = tmp_path / "poly.json"
    assert main(["polytope", SIMPLEST, "--output", str(poly_path)]) == EXIT_OK
    gens = {"generators": [
        {"type": "swap_measurements", "args": [1, 2]},
        {"type": "swap_preparations", "args": [1, 2]},
    ]}
    gens_path = tmp_path / "gens.json"
    gens_path.write_text(json.dumps(gens))
    capsys.readouterr()
    argv = ["orbits", SIMPLEST, str(poly_path), str(gens_path)]
    monkeypatch.setattr(symmetry, "DENSE_CAP", 4 * 16)
    assert run(capsys, *argv)[0] == EXIT_OK
    monkeypatch.setattr(symmetry, "DENSE_CAP", 4 * 16 - 1)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_LIMIT
    assert out == ""
    assert err == ("error: group closure: 4 elements of 16 coordinates "
                   "exceed 63 entries\n")


@pytest.mark.parametrize("argv", [
    ("polytope", SIMPLEST), ("check", SIMPLEST, CONTEXTUAL),
    ("optimize", SIMPLEST, OBJECTIVE)], ids=lambda argv: argv[0])
def test_f2_size_cap_exit_code(capsys, monkeypatch, argv):
    # the simplest F2 system has 4 + 4 + 16 rows of 4 * 4 columns: at the
    # cap it is built, one entry below it the stage stops with exit 2
    import ncpolytope.ncsystem as ncsystem
    monkeypatch.setattr(ncsystem, "DENSE_CAP", 24 * 16)
    assert run(capsys, *argv)[0] in (EXIT_OK, EXIT_INFEASIBLE)
    monkeypatch.setattr(ncsystem, "DENSE_CAP", 24 * 16 - 1)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_LIMIT
    assert out == ""
    assert err == ("error: F2 system: 24 rows of 16 columns exceed 383 "
                   "entries\n")


@pytest.mark.parametrize("module, command, stage, rows, columns", [
    # the simplest H-system: 4 positivity and 2 normalization rows over 4
    # coordinates and the constant
    (measurement_polytope, "vertices", "measurement vertices", 6, 5),
    # the phase-1 tableau of a table with a model: the 24 F2 rows and the
    # cost row, over 16 distributions, 24 artificials and the right side
    (simplex, "check", "simplex tableau", 25, 41)],
    ids=["vertices", "check"])
def test_dense_size_caps_exit_code(capsys, monkeypatch, uniform, module,
                                   command, stage, rows, columns):
    # at the cap the stage runs, one entry below it it stops with exit 2
    argv = [command, SIMPLEST] + ([uniform] if command == "check" else [])
    monkeypatch.setattr(module, "DENSE_CAP", rows * columns)
    assert run(capsys, *argv)[0] == EXIT_OK
    monkeypatch.setattr(module, "DENSE_CAP", rows * columns - 1)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_LIMIT
    assert out == ""
    assert err == (f"error: {stage}: {rows} rows of {columns} columns "
                   f"exceed {rows * columns - 1} entries\n")


# the stage that each command below stops at, named in its error line
STOPPED_STAGE = {"vertices": "measurement vertices",
                 "polytope": "distribution vertices"}


@pytest.mark.parametrize("command, name, cap, dim", [
    # the simplest scenario's four measurement vertices need four rays
    ("vertices", "simplest", 3, 3),
    # its measurement vertices fit in 8 rays, so the hull route's later
    # double description of the distribution vertices is the one stopped
    ("polytope", "state_discrimination", 8, 22)])
def test_ray_cap_exit_code(capsys, monkeypatch, command, name, cap, dim):
    monkeypatch.setattr(dd, "RAY_CAP", cap)
    code, out, err = run(capsys, command, str(SCENARIO_DIR / f"{name}.json"))
    assert code == EXIT_LIMIT
    assert out == ""
    # the count of rows inserted so far, not a position in the input
    assert re.fullmatch(f"error: {STOPPED_STAGE[command]}: double "
                        f"description in dimension {dim}: more than {cap} "
                        r"rays after \d+ of \d+ rows\n", err)


def test_distribution_vertices_fit_under_a_small_ray_cap(capsys, monkeypatch,
                                                         tmp_path):
    # inserting the row with the fewest rays on its negative side first
    # keeps state_discrimination's distribution DD at 169 rays, where the
    # given order needs 512; the measurement and polar DDs need 8 and 119
    monkeypatch.setattr(dd, "RAY_CAP", 300)
    out = tmp_path / "polytope.json"
    code, _, err = run(capsys, "polytope",
                       str(SCENARIO_DIR / "state_discrimination.json"),
                       "--output", str(out))
    assert (code, err) == (EXIT_OK, "")
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == DIGESTS[("state_discrimination", "polytope")]


@pytest.mark.parametrize("name, lines", [
    # Fourier-Motzkin: one line per eliminated distribution coordinate,
    # with the coordinates and rows left after it
    ("simplest", [(8, 24), (7, 24), (6, 24)]),
    # hull route: the reduced system's free coordinates and its vertices,
    # then the free table coordinates and the distinct image points
    ("state_discrimination", [(21, 120), (9, 120)])],
    ids=["simplest", "state_discrimination"])
def test_verbose_progress_on_stderr(capsys, name, lines):
    code, out, err = run(capsys, "polytope",
                         str(SCENARIO_DIR / f"{name}.json"), "-v")
    assert code == EXIT_OK
    assert err.splitlines() == [f"# {dim} coordinates left, {rows} rows"
                                for dim, rows in lines]


def test_every_error_class_has_an_exit_code():
    """main catches InputError (exit 1), LimitExceeded (2) and
    InternalError (4); the package converts the other three classes before
    main sees them.  So a new error class that derives from none of these
    fails here instead of reaching the user as a traceback."""
    handled = (InputError, LimitExceeded, InternalError, InconsistentSystem,
               PrimalFeasible, InvalidDistribution)
    modules = [importlib.import_module(f"ncpolytope.{info.name}")
               for info in pkgutil.iter_modules(ncpolytope.__path__)]
    defined = [obj for module in modules for obj in vars(module).values()
               if isinstance(obj, type) and issubclass(obj, Exception)
               and obj.__module__ == module.__name__]
    assert set(handled) <= set(defined)
    assert [cls for cls in defined if not issubclass(cls, handled)] == []


def test_internal_error_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(feasibility, "solve_standard",
                        lambda A, b, c: LPResult(UNBOUNDED))
    code, out, err = run(capsys, "check", SIMPLEST, CONTEXTUAL)
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err.startswith("internal error:")
    assert "Traceback" not in err


def test_dd_failure_exit_code(capsys, monkeypatch):
    # an unbounded measurement system makes the kernel itself fail
    monkeypatch.setattr(cli, "build_measurement_h", unnormalized_measurement_h)
    code, out, err = run(capsys, "vertices", SIMPLEST)
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err.startswith("internal error:") and err.count("\n") == 1
    assert "region is unbounded" in err and "Traceback" not in err


def run_optimized(*argv):
    """The command line under python -O, which strips every assert."""
    src = str(Path(ncpolytope.__file__).parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-O", "-m", "ncpolytope.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120)


def test_check_under_optimize_flag(capsys):
    """With assertions stripped (python -O) the verdict document is the same."""
    _, expected, _ = run(capsys, "check", SIMPLEST, CONTEXTUAL)
    proc = run_optimized("check", SIMPLEST, CONTEXTUAL)
    assert proc.returncode == EXIT_INFEASIBLE
    assert proc.stdout == expected


def test_orbits_under_optimize_flag(capsys, tmp_path):
    """With assertions stripped (python -O) the orbits document is the same."""
    paths = orbits_inputs(tmp_path)
    capsys.readouterr()
    code, expected, _ = run(capsys, "orbits", *paths)
    assert code == EXIT_OK
    proc = run_optimized("orbits", *paths)
    assert proc.returncode == EXIT_OK
    assert proc.stdout == expected


def test_negative_optimize_solution_exit_code(capsys, monkeypatch):
    def negative_entry(A, b, c):
        res = solve_standard(A, b, c)
        res.x = [F(-1)] + res.x[1:]
        return res

    monkeypatch.setattr(feasibility, "solve_standard", negative_entry)
    code, out, err = run(capsys, "optimize", SIMPLEST, OBJECTIVE)
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err.startswith("internal error:")


def test_tampered_model_exit_code(capsys, monkeypatch, uniform):
    # every preparation on the first measurement vertex keeps each
    # distribution row, but rebuilds another table than the uniform one
    def first_vertex(A, b, c):
        res = solve_standard(A, b, c)
        res.x = [F(k % 4 == 0) for k in range(len(res.x))]
        return res

    monkeypatch.setattr(feasibility, "solve_standard", first_vertex)
    code, out, err = run(capsys, "check", SIMPLEST, uniform)
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == "internal error: phase-1 model does not rebuild the table\n"


def test_unwritable_output_exit_code(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "vertices", SIMPLEST, "--output", str(target))
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith(f"error: cannot write {target}:")


class ClosedPipe:
    """A stdout whose reader has gone away, as under ``| head -1``."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def test_closed_stdout_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(["vertices", SIMPLEST])
    err = capsys.readouterr().err
    assert code == EXIT_PARSE
    assert err == "error: cannot write <stdout>: Broken pipe\n"


@pytest.mark.parametrize("argv, code", [
    (["check", SIMPLEST], EXIT_PARSE),            # missing the table
    (["vertices", SIMPLEST, "-v"], EXIT_PARSE),   # -v is polytope's only
    (["--bogus"], EXIT_PARSE),
    (["-h"], EXIT_OK),
    (["check", "-h"], EXIT_OK),
    (["--version"], EXIT_OK),
])
def test_usage_exit_codes(capsys, argv, code):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
