"""Golden reports: refactors must reproduce these outputs byte for byte.

The files under ``golden/`` were recorded before quotient signatures were
memoised, so they show that a change moved no class count, verdict,
instance count or witness.  ``quotient_*.json`` is the standard output of

    opcheck quotient tests/fixtures/NAME.theory --format json --seed 7 [--monoidal]

and ``classify_quotient_substoch_grid1.json`` is the JSON report of
``classify(quotient(SubStochTheory(grid=1)), ProbeConfig(bound=2, seed=7))``
as ``opcheck classify --format json`` renders it.

``classify_*.json`` were recorded before the checker's uniqueness and capped
scans were folded into shared helpers.  ``classify_NAME.json`` is the
standard output of

    opcheck classify tests/fixtures/NAME.theory --format json --seed 7

``classify_substoch_cap100.json`` is the same on ``substoch`` with
``--cap 100``, which caps the pair and triple scans of several checks (its
``skipped`` lists were recorded again when each skipped homset came to be
listed once per check, with nothing else changed), and
``classify_cpsu_sampled.json`` is the report of
``classify(CpsuTheory(tol=1e-9), ProbeConfig(bound=2, samples=8, seed=7))``,
which pins the order of the sampled draws (recorded again when each
sampled homset came to be drawn once per check: only the instance count
of ``assumption3-coarse-graining`` moved, from 2004 to 2103, since which
pairs pair depends on the draws; every verdict kind and flag stayed).  ``classify_substoch.json`` and
``classify_substoch_cap100.json`` were recorded again when the iso search
of ``lemmaB.3-i`` and the probe scan of ``separation`` came to mark a scan
over the cap with the note ``scan-skipped-over-cap`` instead of listing
homsets that fit the cap as skipped; only those ``skipped`` and ``notes``
entries changed.

``classify_plus_substoch_grid1.json`` and ``classify_plus_mat_bool.json``
are the reports of ``classify(PlusTheory(T), ProbeConfig(bound=2, seed=7))``
for ``T`` the substochastic matrices on grid 1 and the boolean matrices on
grid 1; they were recorded before the direct-sum completion and cpsu were
put on one block-matrix base.  The boolean one fails four checks, so its
witnesses print morphisms of the completion.

All fifteen files were recorded again when ``tol`` and ``ancilla_bound``,
which no run read, were dropped from the reported ``config``; nothing else
in them changed.

``classify_plus_substoch_grid2.json`` is the report of
``classify(PlusTheory(SubStochTheory(grid=2)), ProbeConfig(bound=2, seed=7))``,
recorded before the completion memoised the entries of its block products.
It takes several seconds, so ``test_14`` in ``test_acceptance.py`` compares
it, under a wall-clock budget, rather than this module.

``classify_cpsu_cli_defaults.json`` is the standard output of

    opcheck classify tests/fixtures/cpsu.theory --format json --seed 7

at the CLI defaults (bound 2, 100 samples, cap 20000), recorded before
cpsu's pair scans came to be decided as stacked pairing tables.  It takes
tens of seconds, so ``test_15`` in ``test_acceptance.py`` compares it,
under a 60 s budget, rather than this module.

``classify_substoch_grid6_bound3.json`` is the report of
``classify(SubStochTheory(grid=6), ProbeConfig(bound=3, samples=40))``,
recorded before rational events came to be computed on their integer forms
and each matrix homset to be enumerated once per theory.  The
``substoch_report`` fixture of ``test_acceptance.py`` already builds this
report, so ``test_02_substoch_positive_fixture`` compares it there, under
a wall-clock budget, rather than this module.

``quotient_substoch_monoidal.json`` (the ``quotient`` command above on
``substoch`` with ``--monoidal``) and ``classify_quotient_substoch_grid2.json``
(the report of ``classify(quotient(SubStochTheory(grid=2)),
ProbeConfig(bound=2, seed=7))``) were recorded before the quotient came to
sign events by the base's probe basis.  When ``separation`` came to key
events on the probe basis first, ``classify_substoch.json``,
``classify_substoch_cap100.json`` and ``classify_substoch_grid6_bound3.json``
were recorded again: only the instance count of ``separation`` moved, and
its ``scan-skipped-over-cap`` note went, since no scan on the basis passes
the cap.

Every ``classify_*.json`` was recorded again when checks came to count one
instance per tuple of their quantifiers (before, a comparison made with
``check_eq`` after a tick of its own counted twice): only instance counts,
and the ``n`` of ``holds-sampled(n)``, moved; every verdict kind, witness,
note, skipped list and flag stayed.

``classify_pfun_bound3.json`` is the report of
``classify(PFunTheory(), ProbeConfig(bound=3, samples=40))``, recorded
while partial functions were still an instance of their own, before they
came to be the sub-unit matrices over the naturals.  The ``pfun_report``
fixture of ``test_acceptance.py`` builds it, so
``test_02_pfun_positive_fixture`` compares it there.

``quotient_pfun.json`` and ``quotient_pfun_monoidal.json`` were recorded
again when partial functions came to be the sub-unit matrices over the
naturals, whose objects are sizes: only the object labels moved
(``{}``, ``{'x1'}`` and ``{'x1', 'x2'}`` became ``0``, ``1`` and ``2``, and
the keys of ``class_counts`` are sorted by the new labels); every class
count and the ``separated`` and ``monoidal`` values stayed.

``quotient_mat_int_monoidal.json`` and ``quotient_mat_bool_monoidal.json``
(the ``quotient`` command above on ``mat_int`` and ``mat_bool`` with
``--monoidal``) were recorded before the quotient came to leave out the
ancillas on which the base's probe basis is a product basis.
"""

import json
from pathlib import Path

import pytest

from opcheck import cli
from opcheck.checker import ProbeConfig, classify
from opcheck.constructions import PlusTheory, quotient
from opcheck.instances import CpsuTheory, MatrixTheory, SubStochTheory
from opcheck.kernel import BOOLEANS

HERE = Path(__file__).parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden"


def _quotient_cli(capsys, name, *extra):
    code = cli.main(["quotient", str(FIXTURES / f"{name}.theory"),
                     "--format", "json", "--seed", "7", *extra])
    assert code == 0
    return capsys.readouterr().out


def _classify_cli(capsys, name, *extra):
    cli.main(["classify", str(FIXTURES / f"{name}.theory"),
              "--format", "json", "--seed", "7", *extra])
    return capsys.readouterr().out


def _report_json(theory, cfg):
    report = classify(theory, cfg)
    return json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"


def _classify_quotient(grid):
    return lambda capsys: _report_json(quotient(SubStochTheory(grid=grid)),
                                       ProbeConfig(bound=2, seed=7))


def _classify_cpsu(capsys):
    return _report_json(CpsuTheory(tol=1e-9),
                        ProbeConfig(bound=2, samples=8, seed=7))


def _classify_plus(base):
    return lambda capsys: _report_json(PlusTheory(base),
                                       ProbeConfig(bound=2, seed=7))


GOLDENS = {
    "quotient_stateless.json": lambda c: _quotient_cli(c, "stateless"),
    "quotient_pfun.json": lambda c: _quotient_cli(c, "pfun"),
    "quotient_substoch.json": lambda c: _quotient_cli(c, "substoch"),
    "quotient_stateless_monoidal.json":
        lambda c: _quotient_cli(c, "stateless", "--monoidal"),
    "quotient_pfun_monoidal.json":
        lambda c: _quotient_cli(c, "pfun", "--monoidal"),
    "quotient_substoch_monoidal.json":
        lambda c: _quotient_cli(c, "substoch", "--monoidal"),
    "quotient_mat_int_monoidal.json":
        lambda c: _quotient_cli(c, "mat_int", "--monoidal"),
    "quotient_mat_bool_monoidal.json":
        lambda c: _quotient_cli(c, "mat_bool", "--monoidal"),
    "classify_quotient_substoch_grid1.json": _classify_quotient(1),
    "classify_quotient_substoch_grid2.json": _classify_quotient(2),
    "classify_mat_bool.json": lambda c: _classify_cli(c, "mat_bool"),
    "classify_mat_int.json": lambda c: _classify_cli(c, "mat_int"),
    "classify_pfun.json": lambda c: _classify_cli(c, "pfun"),
    "classify_stateless.json": lambda c: _classify_cli(c, "stateless"),
    "classify_substoch.json": lambda c: _classify_cli(c, "substoch"),
    "classify_substoch_cap100.json":
        lambda c: _classify_cli(c, "substoch", "--cap", "100"),
    "classify_cpsu_sampled.json": _classify_cpsu,
    "classify_plus_substoch_grid1.json":
        _classify_plus(SubStochTheory(grid=1)),
    "classify_plus_mat_bool.json":
        _classify_plus(MatrixTheory(BOOLEANS, grid=1)),
}


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_report_matches_golden(capsys, name):
    assert GOLDENS[name](capsys) == (GOLDEN / name).read_text()
