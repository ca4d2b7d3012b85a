import io
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (SCENARIO_DIR, contextual_table_41, four_prep_scenario,
                      six_prep_scenario, uniform_table)
from oracles import document_text
from ncpolytope import __version__, documents
from ncpolytope.documents import (ParseError, generators_from_doc,
                                  objective_from_doc, polytope_from_doc,
                                  polytope_to_doc, read_document, row_from_doc,
                                  row_to_doc, scenario_from_doc, table_from_doc,
                                  verdict_to_doc, write_document)
from ncpolytope.linalg import EQ, GEQ, LinRow, reduce_modulo, rref
from ncpolytope.scenario import InvalidScenario, p_var
from test_acceptance import SIX_PREP_DOCUMENT
from test_feasibility import multiplexing_objective

F = Fraction


def round_trip(doc):
    buf = io.StringIO()
    write_document(doc, buf)
    return json.loads(buf.getvalue())


def test_scenario_round_trip():
    for name, scn in (("simplest.json", four_prep_scenario()),
                      ("six_preparations.json", six_prep_scenario())):
        assert scenario_from_doc(read_document(SCENARIO_DIR / name)) == scn


def test_bundled_scenarios_parse():
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        doc = read_document(path)
        if "preparations" in doc:
            scenario_from_doc(doc)
        elif "probabilities" in doc:
            table_from_doc(doc)
        elif "terms" in doc:
            objective_from_doc(doc)
        elif "generators" in doc:
            pass  # needs a scenario; covered below
        else:
            raise AssertionError(f"unclassified document {path}")


def test_bundled_generators_compile():
    scn = six_prep_scenario()
    doc = read_document(SCENARIO_DIR / "six_preparations_generators.json")
    gens = generators_from_doc(doc, scn)
    assert len(gens) == 6
    # only the object form exists: read_document rejects a bare list
    with pytest.raises(ParseError, match="generators"):
        generators_from_doc({"type": "flip_outcomes", "args": [1]}, scn)


def test_table_round_trip():
    doc = read_document(SCENARIO_DIR / "simplest_table_contextual.json")
    assert table_from_doc(doc) == contextual_table_41()


def test_table_duplicate_entry_rejected():
    with pytest.raises(ParseError, match="twice"):
        table_from_doc({"probabilities": [[1, 1, 0, "1/2"], [1, 1, 0, "1/2"]]})
    with pytest.raises(ParseError, match="twice"):
        row_from_doc({"constant": "0",
                      "terms": [[1, 1, 0, "1"], [1, 1, 0, "-1"]]})
    # a repeated index is an error in every document, not a silent overwrite:
    # weights 1 and 1 are not P1 with weight 1, values 1 and 0 not xi = 0
    with pytest.raises(ParseError, match="twice"):
        scenario_from_doc({"preparations": 2, "measurements": 1, "outcomes": 2,
                           "prep_equivalences": [{"lhs": [[1, "1"], [1, "1"]],
                                                  "rhs": [[2, "1"]]}]})


def test_row_round_trip():
    row = LinRow({p_var((1, 2, 0)): F(-3, 7), p_var((2, 1, 1)): F(2)},
                 F(5, 3), GEQ)
    assert row_from_doc(row_to_doc(row)) == row
    eq = LinRow({p_var((1, 1, 0)): F(1)}, F(-1), EQ)
    assert row_from_doc(row_to_doc(eq), EQ) == eq


def test_objective_round_trip():
    doc = read_document(SCENARIO_DIR / "simplest_pom_objective.json")
    assert objective_from_doc(doc) == (multiplexing_objective(), "max")


def test_objective_defaults_and_validation():
    row, sense = objective_from_doc({"terms": [[1, 1, 0, "1"]]})
    assert sense == "max" and row.const == 0
    with pytest.raises(ParseError):
        objective_from_doc({"terms": [[1, 1, 0, "1"]], "sense": "sup"})
    with pytest.raises(ParseError):
        objective_from_doc({"sense": "max"})


def test_polytope_round_trip(poly41):
    scn = four_prep_scenario()
    doc = round_trip(polytope_to_doc(poly41))
    assert doc["version"] == __version__
    poly2 = polytope_from_doc(doc, scn)
    assert poly2.equalities == poly41.equalities
    assert poly2.facets == poly41.facets
    assert poly2.variables == poly41.variables


def row_sum(a, b, kind):
    return LinRow({v: a.coeffs.get(v, 0) + b.coeffs.get(v, 0)
                   for v in {**a.coeffs, **b.coeffs}}, a.const + b.const, kind)


def test_polytope_equalities_are_stored_in_rref(poly41):
    # equality 0 replaced by equality 0 + equality 1 spans the same space;
    # stored as given, the two rows would share a pivot and ``reduce``
    # would leave that pivot's coordinate unreduced
    doc = polytope_to_doc(poly41)
    eq0, eq1 = poly41.equalities[:2]
    mixed = row_sum(eq0, eq1, EQ)
    doc["equalities"][0] = row_to_doc(mixed)
    poly2 = polytope_from_doc(doc, four_prep_scenario())
    assert poly2.equalities == rref(poly41.equalities, poly41.variables)
    for v in poly41.variables:
        row = LinRow({v: 1}, 0, GEQ)
        assert reduce_modulo(row, poly2.equalities, poly2.variables) \
            == reduce_modulo(row, poly41.equalities, poly41.variables)


def test_polytope_facets_must_be_reduced(poly41):
    # facet 0 + equality 0 holds on the same points, but has terms on
    # pivot coordinates, which NCPolytope's facets never have
    doc = polytope_to_doc(poly41)
    facet = row_sum(poly41.facets[0], poly41.equalities[0], GEQ)
    pivot = max(poly41.equalities[0].coeffs, key=poly41.variables.index)
    assert pivot in facet.coeffs
    doc["facets"][0] = row_to_doc(facet)
    _, i, j, m = pivot
    with pytest.raises(ParseError,
                       match=rf"facet 0 has a term on \[{i}, {j}, {m}\]"):
        polytope_from_doc(doc, four_prep_scenario())


def test_bundled_polytope_facets_are_reduced():
    doc = read_document(SIX_PREP_DOCUMENT)
    poly = polytope_from_doc(doc, six_prep_scenario())
    assert len(poly.facets) == 1596


def nested(depth):
    """A list nested ``depth`` lists deep."""
    value = []
    for _ in range(depth - 1):
        value = [value]
    return value


def six_prep_generators(doc):
    return generators_from_doc(doc, six_prep_scenario())


@pytest.mark.parametrize("parse, doc", [
    (table_from_doc, {"probabilities": [[1, 1, 0, nested(980)]]}),
    (table_from_doc, {"probabilities": [[1, 1, 0, "1/" + "9" * 5000 + "x"]]}),
    (table_from_doc, {"probabilities": [[1, [0] * 5000, 0, "1/2"]]}),
    (six_prep_generators, {"generators": [{"type": "t" * 5000, "args": []}]}),
    (six_prep_generators, {"generators": [{"args": ["x" * 5000]}]}),
])
def test_parse_errors_stay_short(parse, doc):
    """An error quotes a short, clipped repr of the value it rejects."""
    with pytest.raises(ParseError) as info:
        parse(doc)
    assert len(str(info.value)) < 120


def test_verdict_documents(scn41, verts41):
    from ncpolytope.feasibility import check_table
    feas = verdict_to_doc(check_table(scn41, verts41, uniform_table(scn41)))
    assert feas["status"] == "feasible"
    assert all(F(v) >= 0 for _, _, v in feas["model"])
    infeas = verdict_to_doc(check_table(scn41, verts41, contextual_table_41()))
    assert infeas["status"] == "infeasible"
    assert F(infeas["violation"]) == 1
    assert infeas["inequality"]["terms"]


def test_fraction_strings_rejected_when_malformed():
    with pytest.raises(ParseError):
        table_from_doc({"probabilities": [[1, 1, 0, 0.5]]})
    with pytest.raises(ParseError):
        table_from_doc({"probabilities": [[1, 1, 0, "1/0"]]})
    # a nested ParseError keeps its own message
    with pytest.raises(ParseError, match="bad preparation index"):
        table_from_doc({"probabilities": [[1, -1, 0, "1/2"]]})
    # Fraction would compute 10**exponent for any exponent; past the int
    # literal digit limit of 4300 the string is rejected first
    for text in ("1e4301", "1e-4301"):
        with pytest.raises(ParseError, match="bad rational"):
            table_from_doc({"probabilities": [[1, 1, 0, text]]})
    for text, value in (("1e4300", F(10) ** 4300), ("0.25", F(1, 4)),
                        ("1/2", F(1, 2))):
        table = table_from_doc({"probabilities": [[1, 1, 0, text]]})
        assert table.as_dict() == {(1, 1, 0): value}


@pytest.mark.parametrize("text", [
    "007", "-0", "+1", " 1", "1_000", "--1", "-", "", "\u0661\u0662",
    "9" * 5000, "-" + "9" * 5000,
    "3/7", "-3/7", "+3/7", "3/-7", "3/0", "-0/5", "6/4", "007/014", " 3/7",
    "3/7 ", "3 / 7", "1_0/3", "/7", "3/", "1/2/3", "-/7", "3/+7",
    "\u0663/\u0667", "3/\u0667", "1" * 5000 + "/7", "7/" + "9" * 5000])
def test_integer_strings_parse_as_fraction_parses_them(text):
    # ASCII integers and ASCII "a/b" skip the regular expression of
    # Fraction; every string still reads as Fraction(text), or as the
    # ParseError its ValueError or ZeroDivisionError is
    try:
        expected = F(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ParseError) as exc:
            documents._fraction(text)
        assert str(exc.value) == f"bad rational {documents._quote(text)}"
    else:
        assert documents._fraction(text) == expected


def test_read_document_errors(tmp_path):
    with pytest.raises(ParseError):
        read_document(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2")
    with pytest.raises(ParseError):
        read_document(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ParseError):
        read_document(arr)


scalars = st.one_of(
    st.text(), st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u00e9\u2028",
                                "\U0001f600", "\ud800"]),
    st.integers(), st.integers(-10 ** 40, 10 ** 40), st.booleans(), st.none(),
    st.floats())
trees = st.recursive(
    scalars, lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(max_size=4), trees, max_size=5))
@example({})
@example({"a": [], "b": {}, "c": (), "d": [[], {}, ()], "e": {"f": []}})
def test_write_document_writes_the_standard_encoders_bytes(doc):
    out = io.StringIO()
    write_document(doc, out)
    assert out.getvalue() == document_text(doc)


def test_write_document_is_deterministic(poly41):
    a, b = io.StringIO(), io.StringIO()
    write_document(polytope_to_doc(poly41), a)
    write_document(polytope_to_doc(poly41), b)
    assert a.getvalue() == b.getvalue()


# Arbitrary JSON trees, biased towards the documents' own values so that
# the parsers get past their first checks.
_SCALARS = (st.none() | st.booleans() | st.integers(-1, 5)
            | st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from(["1/2", "1", "0", "-1", "1/0", "min", "max",
                               "swap_measurements", "swap_preparations",
                               "flip_outcomes"])
            | st.text(max_size=3))
_TREES = st.recursive(
    _SCALARS, lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(["lhs", "rhs", "terms", "constant",
                                       "type", "args"]) | st.text(max_size=3),
                      kids, max_size=4), max_leaves=16)

_SIMPLEST = scenario_from_doc(read_document(SCENARIO_DIR / "simplest.json"))
# Each parser with the top-level keys it reads; any of them may be absent.
_PARSERS = {
    "scenario": (scenario_from_doc, ["preparations", "measurements", "outcomes",
                                     "prep_equivalences", "meas_equivalences"]),
    "table": (table_from_doc, ["probabilities"]),
    "row": (row_from_doc, ["terms", "constant"]),
    "objective": (objective_from_doc, ["terms", "constant", "sense"]),
    "polytope": (lambda doc: polytope_from_doc(doc, _SIMPLEST),
                 ["equalities", "facets"]),
    "generators": (lambda doc: generators_from_doc(doc, _SIMPLEST),
                   ["generators"]),
}


@pytest.mark.parametrize("kind", sorted(_PARSERS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_parsers_raise_only_parse_errors(kind, data):
    # A top-level document is always an object (read_document checks it).
    # Only the errors that the command line reports with exit code 1 may
    # escape.
    parse, keys = _PARSERS[kind]
    doc = data.draw(st.fixed_dictionaries({}, optional=dict.fromkeys(keys, _TREES)))
    try:
        parse(doc)
    except (ParseError, InvalidScenario):
        pass
