"""Command line interface: exit codes, output formats, schema conformance."""

import json
import sys
from pathlib import Path

import jsonschema
import pytest

from opcheck import cli
from opcheck.checker import CHECK_IDS

FIXTURES = Path(__file__).parent / "fixtures"
SCHEMAS = Path(cli.__file__).parent / "schemas"

REPORT_SCHEMA = json.loads((SCHEMAS / "opcheck-report.json").read_text())
THEORY_SCHEMA = json.loads((SCHEMAS / "optheory.json").read_text())


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_clean_theory_exits_zero(capsys):
    code, out, _ = run(capsys, "classify", str(FIXTURES / "pfun.theory"))
    assert code == 0
    assert "flags:" in out
    assert "\x1b[" not in out  # no color when stdout is not a terminal


def test_classify_failing_theory_exits_one(capsys):
    code, out, _ = run(capsys, "classify", str(FIXTURES / "mat_int.theory"),
                       "--format", "json")
    assert code == 1
    doc = json.loads(out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    verdicts = {c["id"]: c["verdict"] for c in doc["checks"]}
    assert verdicts["axiom-positivity"] == "fails"


def test_classify_axiom_subset(capsys):
    code, out, _ = run(capsys, "classify", str(FIXTURES / "substoch.theory"),
                       "--axiom", "cat-identity", "--axiom", "cat-assoc",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert [c["id"] for c in doc["checks"]] == ["cat-identity", "cat-assoc"]


def test_classify_completion_of_cpsu_exits_zero(capsys, tmp_path):
    doc = {"format": "optheory/1", "kind": "plus",
           "base": {"format": "optheory/1", "kind": "builtin", "name": "cpsu"}}
    path = tmp_path / "plus_cpsu.theory"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "classify", str(path), "--bound", "1",
                         "--axiom", "lemma2.3-iii", "--format", "json")
    assert code == 0, err
    doc = json.loads(out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["checks"][0]["verdict"].startswith("holds-sampled(")


def test_unknown_axiom_id_exits_two(capsys):
    code, _, err = run(capsys, "classify", str(FIXTURES / "pfun.theory"),
                       "--axiom", "not-a-check")
    assert code == 2
    assert "unknown axiom" in err


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "classify", str(FIXTURES / "absent.theory"))
    assert code == 2
    assert "error:" in err


def test_malformed_file_reports_location(capsys, tmp_path):
    path = tmp_path / "broken.theory"
    path.write_text(json.dumps({"format": "optheory/1", "kind": "builtin",
                                "name": "nonesuch"}))
    code, _, err = run(capsys, "classify", str(path))
    assert code == 2
    assert "(at name)" in err


def test_grid_override_applies_only_to_matrix_theories(capsys):
    code, out, _ = run(capsys, "classify", str(FIXTURES / "substoch.theory"),
                       "--grid", "2", "--axiom", "cat-identity",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["config"]["grid"] == 2
    code, _, err = run(capsys, "classify", str(FIXTURES / "pfun.theory"),
                       "--grid", "2")
    assert code == 2
    assert "--grid does not apply" in err


@pytest.mark.parametrize("flag,value", [
    ("--grid", "0"), ("--bound", "-1"), ("--cap", "0")])
def test_numeric_options_below_their_range_exit_two(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        cli.main(["classify", str(FIXTURES / "substoch.theory"), flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: must be at least" in capsys.readouterr().err


def test_negative_grid_in_a_theory_file_exits_two(capsys, tmp_path):
    path = tmp_path / "negative_grid.theory"
    path.write_text(json.dumps({"format": "optheory/1", "kind": "builtin",
                                "name": "substoch",
                                "parameters": {"grid": -1}}))
    code, _, err = run(capsys, "classify", str(path))
    assert code == 2
    assert "(at parameters.grid)" in err


@pytest.mark.parametrize("tol", [-1e-9, 0, float("nan")])
def test_tol_outside_its_range_in_a_theory_file_exits_two(capsys, tmp_path,
                                                          tol):
    path = tmp_path / "bad_tol.theory"
    path.write_text(json.dumps({"format": "optheory/1", "kind": "builtin",
                                "name": "cpsu", "parameters": {"tol": tol}}))
    code, _, err = run(capsys, "classify", str(path), "--bound", "1")
    assert code == 2
    assert "(at parameters.tol)" in err


def test_complete_requires_bound_for_builtins(capsys):
    code, _, err = run(capsys, "complete", str(FIXTURES / "substoch.theory"))
    assert code == 2
    assert "--bound" in err


def test_complete_lists_objects_under_bound(capsys, tmp_path):
    out_path = tmp_path / "plus.theory"
    code, _, _ = run(capsys, "complete", str(FIXTURES / "substoch.theory"),
                     "--bound", "2", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    jsonschema.validate(doc, THEORY_SCHEMA)
    assert doc["kind"] == "plus"
    assert doc["objects"] == ["<>", "<1>", "<2>", "<1, 1>"]


def test_quotient_of_stateless_table(capsys):
    code, out, _ = run(capsys, "quotient", str(FIXTURES / "stateless.theory"),
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["quotient"]["separated"] is True
    # both events on the invisible system collapse into one class
    assert doc["quotient"]["class_counts"]["X -> X"] == [2]


def test_compose_named_events(capsys):
    code, out, _ = run(capsys, "compose", str(FIXTURES / "stateless.theory"),
                       "id_X", "zero_XX")
    assert code == 0
    assert "zero_XX . id_X = zero_XX" in out


def test_compose_type_mismatch_exits_one(capsys):
    code, _, err = run(capsys, "compose", str(FIXTURES / "stateless.theory"),
                       "id_I", "id_X")
    assert code == 1
    assert "codomain" in err


def test_compose_unknown_event_exits_two(capsys):
    code, _, err = run(capsys, "compose", str(FIXTURES / "stateless.theory"),
                       "id_I", "mystery")
    assert code == 2
    assert "unknown event" in err


def test_compose_rejects_builtin_theories(capsys):
    code, _, err = run(capsys, "compose", str(FIXTURES / "pfun.theory"),
                       "a", "b")
    assert code == 2
    assert "table theory" in err


def test_axioms_lists_all_check_ids(capsys):
    code, out, _ = run(capsys, "axioms", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert [e["id"] for e in doc["axioms"]] == CHECK_IDS
    assert all(e["paper_ref"] for e in doc["axioms"])


def test_fixture_files_match_the_schema():
    for path in sorted(FIXTURES.glob("*.theory")):
        jsonschema.validate(json.loads(path.read_text()), THEORY_SCHEMA)


def test_no_color_environment_variable(monkeypatch):
    monkeypatch.setattr(sys, "stdout", _Tty())
    monkeypatch.delenv("NO_COLOR", raising=False)
    assert cli._use_color()
    monkeypatch.setenv("NO_COLOR", "1")
    assert not cli._use_color()


class _Tty:
    def isatty(self):
        return True
