"""The JSON documents the commands read and write.

Inputs are parsed: scenarios, tables, objectives, polytopes and generator
lists.  Results are emitted: vertex sets, polytopes, verdicts, optima and
orbit classes.  Every rational is stored as a string ("3/4", "1", "-1/2"),
so a polytope document is a bit-exact interchange format: parsing an
emitted polytope reproduces the value that produced it.  Every emitted
document carries the package version under the "version" key.

:func:`write_document` writes exactly the bytes of
``json.dumps(doc, indent=2, sort_keys=True) + "\n"`` for any document
whose keys are strings, with tuples written as lists.  It builds them
directly, escaping strings with the C string encoder of :mod:`json`,
because ``indent`` sends ``json.dumps`` to its pure-Python encoder.
"""

from __future__ import annotations

import json
import reprlib
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string

from . import __version__
from .feasibility import Feasible
from .linalg import EQ, GEQ, InconsistentSystem, InputError, LinRow, rref
from .measurement_polytope import VertexSet, xi_var
from .projection import NCPolytope
from .scenario import DataTable, Scenario, p_var, p_vars, scenario
from .symmetry import flip_outcomes, swap_measurements, swap_preparations


class ParseError(InputError):
    """A document is malformed or fails validation."""


class ResultTooLong(InputError):
    """A result rational is too long for Python to write as text."""


def _text(q) -> str:
    """A rational as text, for every rational a result document holds."""
    try:
        return str(q)
    except ValueError:   # str() of an int past the digit limit
        raise ResultTooLong("a result rational is longer than Python's "
                            "4300-digit limit for writing an int") from None


CLIP_CHARS = 40


def _clip(text: str) -> str:
    """Text cut to CLIP_CHARS characters plus '…', so that an error line
    stays short whatever the document holds."""
    return text if len(text) <= CLIP_CHARS else text[:CLIP_CHARS] + "…"


def _quote(value) -> str:
    """A clipped repr of a rejected value.  ``reprlib`` stops at a fixed
    depth, so a deeply nested list cannot overflow the stack here."""
    return _clip(reprlib.repr(value))


def _fraction(text) -> Fraction:
    if not isinstance(text, str):
        raise ParseError(f"expected a rational string, got {_quote(text)}")
    # Most rationals are ASCII integers or ASCII "a/b", which int parses
    # without the regular expression of Fraction; a slash at either end
    # fails in int as it fails in Fraction.
    unsigned = text.removeprefix("-")
    integer = unsigned.isascii() and unsigned.isdigit()
    ratio = (not integer and unsigned.isascii()
             and unsigned.replace("/", "", 1).isdigit())
    if not (integer or ratio):
        # Fraction computes 10**exponent however large the exponent is;
        # cap it at 4300, the digit limit of an int literal.
        exponent = text.lower().partition("e")[2].strip().lstrip("+-")
        digits = exponent.replace("_", "").lstrip("0")
        if len(digits) > 4 or digits.isdecimal() and int(digits) > 4300:
            raise ParseError(f"bad rational {_quote(text)}")
    try:
        if integer:
            return Fraction(int(text))
        if ratio:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        # the exception's own message repeats the whole string
        raise ParseError(f"bad rational {_quote(text)}") from exc


def _index(value, what) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ParseError(f"bad {what} index {_quote(value)}")
    return value


def _unique(pairs, what) -> dict:
    """The dict of (key, value) pairs; a repeated key is a ParseError."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ParseError(f"{what} lists {key} twice")
        out[key] = value
    return out


def read_document(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path} is not valid UTF-8 JSON: {exc}") from exc
    except RecursionError:
        raise ParseError(f"{path} is nested too deeply") from None
    except ValueError as exc:   # e.g. an int literal past the digit limit
        raise ParseError(
            f"{path} is not readable JSON: {_clip(str(exc))}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    return doc


def write_document(doc: dict, stream) -> None:
    stream.write(_json(doc, "") + "\n")


def _json(value, indent: str) -> str:
    """``value`` as ``json.dumps(..., indent=2, sort_keys=True)`` writes it
    at the nesting whose lines start with ``indent``."""
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_string(v) if type(v) is str else
                 str(v) if type(v) is int else _json(v, inner) for v in value]
        return ("[\n" + inner + (",\n" + inner).join(items)
                + "\n" + indent + "]")
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [_string(k) + ": "
                 + (_string(v) if type(v) is str else _json(v, inner))
                 for k, v in sorted(value.items())]
        return ("{\n" + inner + (",\n" + inner).join(items)
                + "\n" + indent + "}")
    if type(value) is str:
        return _string(value)
    return json.dumps(value)


def _stamp(doc: dict) -> dict:
    doc["version"] = __version__
    return doc


# --- scenario -------------------------------------------------------------


def scenario_from_doc(doc: dict) -> Scenario:
    for key in ("preparations", "measurements", "outcomes"):
        if key not in doc:
            raise ParseError(f"scenario document missing {key!r}")
    def prep_side(side):
        return _unique(((_index(j, "preparation"), _fraction(w))
                        for j, w in side), "equivalence side")

    def meas_side(side):
        return _unique((((_index(i, "measurement"), _index(m, "outcome")),
                         _fraction(w)) for i, m, w in side), "equivalence side")

    try:
        oe_p = [(prep_side(e["lhs"]), prep_side(e["rhs"]))
                for e in doc.get("prep_equivalences", [])]
        oe_m = [(meas_side(e["lhs"]), meas_side(e["rhs"]))
                for e in doc.get("meas_equivalences", [])]
        return scenario(g=_index(doc["preparations"], "preparation count"),
                        l=_index(doc["measurements"], "measurement count"),
                        d=_index(doc["outcomes"], "outcome count"),
                        oe_p=oe_p, oe_m=oe_m)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed scenario document: {exc}") from exc


# --- data table -----------------------------------------------------------


def table_from_doc(doc: dict) -> DataTable:
    if "probabilities" not in doc:
        raise ParseError("table document missing 'probabilities'")
    try:
        entries = _unique((((_index(i, "measurement"), _index(j, "preparation"),
                             _index(m, "outcome")), _fraction(v))
                           for i, j, m, v in doc["probabilities"]), "table")
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed table document: {exc}") from exc
    return DataTable.make(entries)


# --- linear rows over p-coordinates --------------------------------------


def row_to_doc(row: LinRow) -> dict:
    terms = sorted((v[1], v[2], v[3], c) for v, c in row.coeffs.items())
    return {"constant": _text(row.const),
            "terms": [[i, j, m, _text(c)] for i, j, m, c in terms]}


def row_from_doc(doc: dict, kind=GEQ) -> LinRow:
    try:
        coeffs = _unique(((p_var((_index(i, "measurement"),
                                  _index(j, "preparation"),
                                  _index(m, "outcome"))), _fraction(c))
                          for i, j, m, c in doc["terms"]), "row")
        return LinRow(coeffs, _fraction(doc["constant"]), kind)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed row document: {exc}") from exc


# --- objectives -----------------------------------------------------------


def objective_from_doc(doc: dict):
    """Returns (LinRow over p-coordinates, sense)."""
    sense = doc.get("sense", "max")
    if sense not in ("max", "min"):
        raise ParseError(f"objective sense must be 'max' or 'min', got {sense!r}")
    if "terms" not in doc:
        raise ParseError("objective document missing 'terms'")
    row = row_from_doc({"terms": doc["terms"],
                        "constant": doc.get("constant", "0")})
    return row, sense


# --- vertex sets ----------------------------------------------------------


def vertices_to_doc(vs: VertexSet) -> dict:
    out = []
    for vertex in vs.vertices:
        out.append([[i, m, _text(vertex[xi_var(i, m)])]
                    for (_, i, m) in vs.variables])
    return _stamp({"vertices": out})


# --- polytopes ------------------------------------------------------------


def polytope_to_doc(poly: NCPolytope) -> dict:
    return _stamp({
        "equalities": [row_to_doc(r) for r in poly.equalities],
        "facets": [row_to_doc(r) for r in poly.facets],
    })


def polytope_from_doc(doc: dict, scn: Scenario) -> NCPolytope:
    for key in ("equalities", "facets"):
        if not isinstance(doc.get(key), list):
            raise ParseError(f"polytope document needs a list of {key!r}")
    equalities = [row_from_doc(r, EQ) for r in doc["equalities"]]
    facets = [row_from_doc(r, GEQ) for r in doc["facets"]]
    variables = p_vars(scn)
    try:   # consistent equalities over the scenario's coordinates
        equalities = rref(equalities, variables)
    except (ValueError, InconsistentSystem) as exc:
        raise ParseError(f"polytope document: {exc}") from exc
    # Facets are over the scenario's coordinates and reduced modulo the
    # equalities: no term on a pivot, the latest variable of an rref row.
    pivots = {max(r.coeffs, key=variables.index) for r in equalities}
    free = set(variables) - pivots
    for n, facet in enumerate(facets):
        if not free.issuperset(facet.coeffs):
            v = min(set(facet.coeffs) - free)
            where = ("a pivot of the equalities" if v in pivots
                     else "outside the scenario")
            raise ParseError(f"polytope document: facet {n} has a term on "
                             f"[{v[1]}, {v[2]}, {v[3]}], {where}")
    return NCPolytope(variables, equalities, facets)


# --- generators -----------------------------------------------------------


def generators_from_doc(doc: dict, scn: Scenario):
    """Compile a ``{"generators": [...]}`` document into Relabeling objects."""
    entries = doc.get("generators")
    if not isinstance(entries, list):
        raise ParseError("generator document needs a list of 'generators'")
    out = []
    for entry in entries:
        try:
            kind = entry["type"]
            args = entry["args"]
            if kind == "swap_measurements":
                out.append(swap_measurements(scn, *args))
            elif kind == "swap_preparations":
                out.append(swap_preparations(scn, args))
            elif kind == "flip_outcomes":
                out.append(flip_outcomes(scn, args))
            else:
                raise ParseError(f"unknown generator type {_quote(kind)}")
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed generator entry {_quote(entry)}: "
                             f"{_clip(str(exc))}") from exc
    return out


# --- results --------------------------------------------------------------


def verdict_to_doc(verdict) -> dict:
    if isinstance(verdict, Feasible):
        return _stamp({
            "status": "feasible",
            "model": [[j, k, _text(v)]
                      for (_, j, k), v in sorted(verdict.nu.items())],
        })
    cert = verdict.certificate
    doc = {
        "status": "infeasible",
        "certificate": {
            "y": [[list(label), _text(v)]
                  for label, v in zip(cert.row_labels, cert.y)],
        },
        "inequality": row_to_doc(verdict.inequality),
        "violation": _text(verdict.violation),
    }
    if cert.broken_equivalence is not None:
        doc["broken_equivalence"] = list(cert.broken_equivalence)
    return _stamp(doc)


def optimum_to_doc(value, witness: DataTable) -> dict:
    return _stamp({
        "value": _text(value),
        "witness_table": [[i, j, m, _text(v)]
                          for (i, j, m), v in witness.entries],
    })


def orbits_to_doc(classes) -> dict:
    return _stamp({
        "classes": [{"representative": row_to_doc(c.representative),
                     "orbit_size": c.orbit_size}
                    for c in classes],
    })
