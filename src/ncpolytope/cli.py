"""Command-line front end.

Exit codes: 0 success, 1 usage, parse, validation or write failure, 2
internal limit exceeded (the size of a dense matrix or of a group
closure, or double description rays; the message names the stage), 3
contextual table (a result, not a failure; distinguished so shell scripts
can branch on it), 4 internal error (a failed invariant).
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .documents import (generators_from_doc, objective_from_doc,
                        optimum_to_doc, orbits_to_doc, polytope_from_doc,
                        polytope_to_doc, read_document, scenario_from_doc,
                        table_from_doc, verdict_to_doc, vertices_to_doc,
                        write_document)
from .feasibility import Feasible, check_table, optimize
from .linalg import InputError, InternalError, LimitExceeded
from .measurement_polytope import build_measurement_h, enumerate_vertices
from .ncsystem import build_f2
from .projection import project_to_nc_polytope
from .scenario import p_vars
from .symmetry import classify_orbits, generate_group

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_LIMIT = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse's own exit code 2 would read as an internal limit
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="ncpolytope",
        description="Noncontextual polytopes of prepare-and-measure scenarios")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--output", metavar="PATH",
                       help="write the result document here (default stdout)")

    p = sub.add_parser("vertices",
                       help="extremal noncontextual measurement assignments")
    p.add_argument("scenario")
    common(p)

    p = sub.add_parser("polytope",
                       help="affine hull and facets of the noncontextual polytope")
    p.add_argument("scenario")
    p.add_argument("-v", "--verbose", action="store_true")
    common(p)

    p = sub.add_parser("check",
                       help="decide whether a data table admits a noncontextual model")
    p.add_argument("scenario")
    p.add_argument("table")
    common(p)

    p = sub.add_parser("optimize",
                       help="optimize a linear functional of the table over the polytope")
    p.add_argument("scenario")
    p.add_argument("objective")
    common(p)

    p = sub.add_parser("orbits",
                       help="classify polytope rows under a relabeling group")
    p.add_argument("scenario")
    p.add_argument("polytope")
    p.add_argument("generators")
    common(p)
    return top


def _emit(doc: dict, args) -> None:
    if args.output:
        with open(args.output, "w") as fh:
            write_document(doc, fh)
    else:
        write_document(doc, sys.stdout)


def _load_scenario(path):
    return scenario_from_doc(read_document(path))


def cmd_vertices(args) -> int:
    scn = _load_scenario(args.scenario)
    vs = enumerate_vertices(build_measurement_h(scn))
    _emit(vertices_to_doc(vs), args)
    return EXIT_OK


def cmd_polytope(args) -> int:
    scn = _load_scenario(args.scenario)
    vs = enumerate_vertices(build_measurement_h(scn))
    progress = None
    if args.verbose:
        def progress(dim, rows):
            print(f"# {dim} coordinates left, {rows} rows", file=sys.stderr)
    poly = project_to_nc_polytope(build_f2(scn, vs), progress=progress)
    _emit(polytope_to_doc(poly), args)
    return EXIT_OK


def cmd_check(args) -> int:
    scn = _load_scenario(args.scenario)
    table = table_from_doc(read_document(args.table))
    vs = enumerate_vertices(build_measurement_h(scn))
    verdict = check_table(scn, vs, table)
    _emit(verdict_to_doc(verdict), args)
    return EXIT_OK if isinstance(verdict, Feasible) else EXIT_INFEASIBLE


def cmd_optimize(args) -> int:
    scn = _load_scenario(args.scenario)
    objective, sense = objective_from_doc(read_document(args.objective))
    vs = enumerate_vertices(build_measurement_h(scn))
    value, witness = optimize(scn, vs, objective, sense)
    _emit(optimum_to_doc(value, witness), args)
    return EXIT_OK


def cmd_orbits(args) -> int:
    scn = _load_scenario(args.scenario)
    poly = polytope_from_doc(read_document(args.polytope), scn)
    generators = generators_from_doc(read_document(args.generators), scn)
    group = generate_group(scn, generators)
    classes = classify_orbits(poly.facets, group, poly.equalities, p_vars(scn))
    _emit(orbits_to_doc(classes), args)
    return EXIT_OK


COMMANDS = {
    "vertices": cmd_vertices,
    "polytope": cmd_polytope,
    "check": cmd_check,
    "optimize": cmd_optimize,
    "orbits": cmd_orbits,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return COMMANDS[args.subcommand](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:   # read_document reports read failures as ParseError
        target = exc.filename or "<stdout>"   # stdout errors name no file
        print(f"error: cannot write {target}: {exc.strerror}", file=sys.stderr)
        return EXIT_PARSE
    except LimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
