"""Theory files: parsing, validation errors with locations, round trips."""

import json
from pathlib import Path

import jsonschema
import pytest

from opcheck import cli

from opcheck.constructions import PlusTheory
from opcheck.errors import TheoryFileError
from opcheck.instances import (
    CpsuTheory,
    MatrixTheory,
    PFunTheory,
    SubStochTheory,
)
from opcheck.table import TableTheory
from opcheck.theoryfile import (
    load_theory,
    parse_doc,
    save_theory,
    serialize_theory,
)

FIXTURES = Path(__file__).parent / "fixtures"
THEORY_SCHEMA = json.loads(
    (Path(cli.__file__).parent / "schemas" / "optheory.json").read_text())

EXPECTED_TYPES = {
    "pfun.theory": PFunTheory,
    "substoch.theory": SubStochTheory,
    "mat_int.theory": MatrixTheory,
    "mat_bool.theory": MatrixTheory,
    "cpsu.theory": CpsuTheory,
    "stateless.theory": TableTheory,
}


def stateless_doc():
    return json.loads((FIXTURES / "stateless.theory").read_text())


@pytest.mark.parametrize("name", sorted(EXPECTED_TYPES))
def test_fixtures_load_with_expected_type(name):
    theory = load_theory(FIXTURES / name)
    assert isinstance(theory, EXPECTED_TYPES[name])


@pytest.mark.parametrize("name", sorted(EXPECTED_TYPES))
def test_serialization_is_idempotent(name):
    theory = load_theory(FIXTURES / name)
    doc = serialize_theory(theory)
    again = serialize_theory(parse_doc(doc))
    assert json.dumps(doc, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_save_and_reload(tmp_path):
    path = tmp_path / "out.theory"
    save_theory(SubStochTheory(grid=3), path)
    text = path.read_text()
    assert text.endswith("\n")
    theory = load_theory(path)
    assert isinstance(theory, SubStochTheory)
    assert theory.grid == 3


def test_plus_document_roundtrip():
    doc = {"format": "optheory/1", "kind": "plus", "bound": 2,
           "base": serialize_theory(SubStochTheory(grid=2))}
    theory = parse_doc(doc)
    assert isinstance(theory, PlusTheory)
    assert theory.completion_bound == 2
    out = serialize_theory(theory)
    assert out["bound"] == 2
    assert out["objects"] == ["<>", "<1>", "<2>", "<1, 1>"]
    assert out["base"]["name"] == "substoch"


def test_inline_semiring_parses():
    doc = {"format": "optheory/1", "kind": "builtin", "name": "mat",
           "parameters": {"grid": 1, "semiring": {
               "name": "or-and", "elements": [0, 1],
               "add": [[0, 1], [1, 1]], "mul": [[0, 0], [0, 1]],
               "zero": 0, "one": 1}}}
    theory = parse_doc(doc)
    assert theory.semiring.name == "or-and"
    again = serialize_theory(parse_doc(serialize_theory(theory)))
    assert again == serialize_theory(theory)


def location_of(excinfo):
    return excinfo.value.location


def test_missing_file_is_an_input_error(tmp_path):
    with pytest.raises(TheoryFileError):
        load_theory(tmp_path / "nope.theory")


def test_invalid_json_is_an_input_error(tmp_path):
    path = tmp_path / "bad.theory"
    path.write_text("{not json")
    with pytest.raises(TheoryFileError, match="invalid JSON"):
        load_theory(path)


def test_format_tag_is_checked():
    with pytest.raises(TheoryFileError) as exc:
        parse_doc({"kind": "builtin", "name": "pfun"})
    assert location_of(exc) == "format"
    with pytest.raises(TheoryFileError, match="unsupported format"):
        parse_doc({"format": "optheory/99", "kind": "builtin", "name": "pfun"})


def test_unknown_kind_and_builtin():
    for kind in ("mystery", ["builtin"]):
        with pytest.raises(TheoryFileError) as exc:
            parse_doc({"format": "optheory/1", "kind": kind})
        assert location_of(exc) == "kind"
    with pytest.raises(TheoryFileError) as exc:
        parse_doc({"format": "optheory/1", "kind": "builtin", "name": "qft"})
    assert location_of(exc) == "name"


def test_unknown_semiring_name():
    with pytest.raises(TheoryFileError) as exc:
        parse_doc({"format": "optheory/1", "kind": "builtin", "name": "mat",
                   "parameters": {"semiring": "quaternions"}})
    assert location_of(exc) == "parameters.semiring"


def test_bad_rational_entry_reports_its_path():
    doc = stateless_doc()
    doc["events"][0]["payload"] = [["one half"]]
    with pytest.raises(TheoryFileError) as exc:
        parse_doc(doc)
    assert location_of(exc) == "events[0].payload[0]"


def test_zero_denominator_entry_reports_its_path():
    doc = stateless_doc()
    doc["events"][0]["payload"] = [["1/0"]]
    with pytest.raises(TheoryFileError) as exc:
        parse_doc(doc)
    assert location_of(exc) == "events[0].payload[0]"


@pytest.mark.parametrize("name,params,key", [
    ("substoch", {"grid": 0}, "grid"),
    ("substoch", {"grid": "x"}, "grid"),
    ("mat", {"semiring": "integers", "grid": -1}, "grid"),
    ("cpsu", {"tol": "abc"}, "tol"),
    ("substoch", {"gird": 2}, "gird"),
    ("cpsu", {"tol": -1e-9}, "tol"),
    ("cpsu", {"tol": 0}, "tol"),
], ids=["grid-zero", "grid-not-an-integer", "grid-negative", "tol-not-a-number",
        "unknown-key", "tol-negative", "tol-zero"])
def test_builtin_parameters_outside_the_schema_report_their_path(name, params,
                                                                 key):
    doc = {"format": "optheory/1", "kind": "builtin", "name": name,
           "parameters": params}
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, THEORY_SCHEMA)
    with pytest.raises(TheoryFileError) as exc:
        parse_doc(doc)
    assert location_of(exc) == f"parameters.{key}"


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_tol_that_is_not_a_finite_number_is_rejected(tmp_path, text):
    # JSON Schema has no way to reject NaN, which Python's json module
    # reads, so the parser alone guards these
    path = tmp_path / "cpsu.theory"
    path.write_text('{"format": "optheory/1", "kind": "builtin", '
                    '"name": "cpsu", "parameters": {"tol": %s}}' % text)
    with pytest.raises(TheoryFileError) as exc:
        load_theory(path)
    assert location_of(exc) == "parameters.tol"


def test_coarse_grain_entry_of_non_parallel_events_is_rejected():
    # zero_II : I -> I and top_X : X -> I have matrices of the same shape,
    # and their entries sum to id_I's, but they are not parallel
    doc = stateless_doc()
    doc["coarse_grain"] = [["zero_II", "top_X", "id_I"]]
    with pytest.raises(TheoryFileError) as exc:
        parse_doc(doc)
    assert location_of(exc) == "coarse_grain"


def test_undeclared_object_in_event():
    doc = stateless_doc()
    doc["events"][0]["dom"] = "Y"
    with pytest.raises(TheoryFileError) as exc:
        parse_doc(doc)
    assert location_of(exc) == "events[0]"


def test_unit_must_be_declared():
    doc = stateless_doc()
    doc["unit"] = "J"
    with pytest.raises(TheoryFileError) as exc:
        parse_doc(doc)
    assert location_of(exc) == "unit"


def test_object_sizes_must_be_positive():
    doc = stateless_doc()
    doc["objects"]["X"] = 0
    with pytest.raises(TheoryFileError) as exc:
        parse_doc(doc)
    assert location_of(exc) == "objects"


@pytest.mark.parametrize("key,value,location", [
    ("objects", {"I": 1, "X": True}, "objects"),
    ("name", 5, "name"),
], ids=["object-size-true", "name-not-a-string"])
def test_table_values_outside_the_schema_report_their_path(key, value,
                                                           location):
    doc = dict(stateless_doc(), **{key: value})
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, THEORY_SCHEMA)
    with pytest.raises(TheoryFileError) as exc:
        parse_doc(doc)
    assert location_of(exc) == location


@pytest.mark.parametrize("bound", ["x", True, -1],
                         ids=["not-an-integer", "true", "negative"])
def test_plus_bound_outside_the_schema_is_an_input_error(tmp_path, capsys,
                                                         bound):
    doc = {"format": "optheory/1", "kind": "plus", "bound": bound,
           "base": serialize_theory(SubStochTheory(grid=1))}
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, THEORY_SCHEMA)
    with pytest.raises(TheoryFileError) as exc:
        parse_doc(doc)
    assert location_of(exc) == "bound"
    path = tmp_path / "plus.theory"
    path.write_text(json.dumps(doc))
    assert cli.main(["complete", str(path), "--bound", "1"]) == cli.EXIT_INPUT
    assert "(at bound)" in capsys.readouterr().err


def _plus_pfun(**keys):
    return dict({"format": "optheory/1", "kind": "plus",
                 "base": serialize_theory(PFunTheory())}, **keys)


@pytest.mark.parametrize("doc,in_schema", [
    (_plus_pfun(bound=1, objects=5), False),
    (_plus_pfun(bound=1, objects=["<>", 1]), False),
    (_plus_pfun(objects=["<>"]), True),
    (_plus_pfun(bound=1, objects=["<>"]), True),
    (_plus_pfun(bound=1, objects=["<>", "<1>", "<2>"]), True),
], ids=["not-a-list", "not-strings", "no-bound", "too-few", "too-many"])
def test_plus_objects_that_are_not_the_bounds_probe_objects_are_rejected(
        doc, in_schema):
    if not in_schema:
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, THEORY_SCHEMA)
    with pytest.raises(TheoryFileError) as exc:
        parse_doc(doc)
    assert location_of(exc) == "objects"


@pytest.mark.parametrize("base", [PFunTheory(), SubStochTheory(grid=1)],
                         ids=["pfun", "substoch"])
def test_plus_objects_survive_a_save_and_load(tmp_path, base):
    path = tmp_path / "plus.theory"
    doc = save_theory(PlusTheory(base), path, bound=2)
    assert len(doc["objects"]) > 1
    theory = load_theory(path)
    assert theory.completion_bound == 2
    assert serialize_theory(theory) == doc


@pytest.mark.parametrize("doc,key", [
    ({"format": "optheory/1", "kind": "builtin", "name": "pfun", "grid": 3},
     "grid"),
    ({"format": "optheory/1", "kind": "plus", "bnd": 2,
      "base": {"format": "optheory/1", "kind": "builtin", "name": "pfun"}},
     "bnd"),
    (dict(stateless_doc(), comment="x"), "comment"),
], ids=["builtin", "plus", "table"])
def test_top_level_keys_outside_the_schema_report_their_path(doc, key):
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, THEORY_SCHEMA)
    with pytest.raises(TheoryFileError) as exc:
        parse_doc(doc)
    assert location_of(exc) == key


def test_nested_keys_outside_the_schema_report_their_path():
    table = stateless_doc()
    table["events"][1]["note"] = "x"
    semiring = {"name": "or-and", "elements": [0, 1], "add": [[0, 1], [1, 1]],
                "mul": [[0, 0], [0, 1]], "zero": 0, "one": 1, "note": "x"}
    for doc, location in (
            (table, "events[1].note"),
            ({"format": "optheory/1", "kind": "builtin", "name": "mat",
              "parameters": {"grid": 1, "semiring": semiring}},
             "parameters.semiring.note")):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, THEORY_SCHEMA)
        with pytest.raises(TheoryFileError) as exc:
            parse_doc(doc)
        assert location_of(exc) == location


def test_table_must_be_closed_under_composition():
    doc = stateless_doc()
    doc["events"].append({"name": "half_XX", "dom": "X", "cod": "X",
                          "payload": [["1/2"]]})
    with pytest.raises(TheoryFileError):
        parse_doc(doc)


def test_table_needs_identity_events():
    doc = stateless_doc()
    doc["events"] = [e for e in doc["events"] if e["name"] != "id_X"]
    doc["discards"]["X"] = "zero_XI"
    with pytest.raises(TheoryFileError):
        parse_doc(doc)
