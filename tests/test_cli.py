import errno
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ncpolytope
from conftest import SCENARIO_DIR, unnormalized_measurement_h
from ncpolytope import cli, feasibility
from ncpolytope.cli import (EXIT_INFEASIBLE, EXIT_INTERNAL, EXIT_LIMIT,
                            EXIT_OK, EXIT_PARSE, main)
from ncpolytope.feasibility import PrimalFeasible
from ncpolytope.linalg import InconsistentSystem, InputError, InternalError
from ncpolytope.ncsystem import InvalidDistribution
from ncpolytope.simplex import UNBOUNDED, LPResult, solve_standard
from ncpolytope.symmetry import GroupTooLarge

F = Fraction

SIMPLEST = str(SCENARIO_DIR / "simplest.json")
CONTEXTUAL = str(SCENARIO_DIR / "simplest_table_contextual.json")
OBJECTIVE = str(SCENARIO_DIR / "simplest_pom_objective.json")


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


def test_check_feasible_table(capsys, tmp_path):
    table = {"probabilities": [[i, j, m, "1/2"]
                               for i in (1, 2) for j in (1, 2, 3, 4)
                               for m in (0, 1)]}
    path = tmp_path / "uniform.json"
    path.write_text(json.dumps(table))
    code, out, _ = run(capsys, "check", SIMPLEST, str(path))
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
    import ncpolytope.symmetry as symmetry
    monkeypatch.setattr(symmetry, "GROUP_CAP", 2)
    poly_path = tmp_path / "poly.json"
    assert main(["polytope", SIMPLEST, "--output", str(poly_path)]) == EXIT_OK
    gens = {"generators": [
        {"type": "swap_measurements", "args": [1, 2]},
        {"type": "swap_preparations", "args": [1, 2]},
    ]}
    gens_path = tmp_path / "gens.json"
    gens_path.write_text(json.dumps(gens))
    capsys.readouterr()
    code, _, err = run(capsys, "orbits", SIMPLEST, str(poly_path),
                       str(gens_path))
    assert code == EXIT_LIMIT


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
    """main catches InputError (exit 1), GroupTooLarge (2) and
    InternalError (4); the package converts the other three classes
    before main sees them.  So a new error class that derives from none
    of these fails here instead of reaching the user as a traceback."""
    handled = (InputError, GroupTooLarge, InternalError,
               InconsistentSystem, PrimalFeasible, InvalidDistribution)
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
