"""Golden reports: refactors must reproduce these outputs byte for byte.

The files under ``golden/`` were recorded before quotient signatures were
memoised, so they show that a change moved no class count, verdict,
instance count or witness.  ``quotient_*.json`` is the standard output of

    opcheck quotient tests/fixtures/NAME.theory --format json --seed 7 [--monoidal]

and ``classify_quotient_substoch_grid1.json`` is the JSON report of
``classify(quotient(SubStochTheory(grid=1)), ProbeConfig(bound=2, seed=7))``
as ``opcheck classify --format json`` renders it.
"""

import json
from pathlib import Path

import pytest

from opcheck import cli
from opcheck.checker import ProbeConfig, classify
from opcheck.constructions import quotient
from opcheck.instances import SubStochTheory

HERE = Path(__file__).parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden"


def _quotient_cli(capsys, name, *extra):
    code = cli.main(["quotient", str(FIXTURES / f"{name}.theory"),
                     "--format", "json", "--seed", "7", *extra])
    assert code == 0
    return capsys.readouterr().out


def _classify_quotient(capsys):
    report = classify(quotient(SubStochTheory(grid=1)),
                      ProbeConfig(bound=2, seed=7))
    return json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"


GOLDENS = {
    "quotient_stateless.json": lambda c: _quotient_cli(c, "stateless"),
    "quotient_pfun.json": lambda c: _quotient_cli(c, "pfun"),
    "quotient_substoch.json": lambda c: _quotient_cli(c, "substoch"),
    "quotient_stateless_monoidal.json":
        lambda c: _quotient_cli(c, "stateless", "--monoidal"),
    "quotient_pfun_monoidal.json":
        lambda c: _quotient_cli(c, "pfun", "--monoidal"),
    "classify_quotient_substoch_grid1.json": _classify_quotient,
}


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_report_matches_golden(capsys, name):
    assert GOLDENS[name](capsys) == (GOLDEN / name).read_text()
