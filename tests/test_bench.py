"""The benchmark's tracer still finds the methods it wraps.

``bench/spans.py`` wraps opcheck functions and theory methods by name from
the outside, so a move or rename of one of them would only show as a zero
in a traced benchmark run.  This drives the tracer over a small
classification and a small quotient summary and checks that the wrapped
layers were reached.  Every workload of the benchmark (the substochastic
classification, the quotient summary, the direct-sum completion and cpsu)
is also run once and checked against the benchmark's expected results, so
a change of event keys that merges quotient classes, an integer form that
decides a pairing or an equality wrongly, a memoised block product that
returns a wrong entry, or a cached cpsu image that decides a pairing
wrongly, fails here too.
"""

import json
import sys
from pathlib import Path

import pytest

from opcheck.checker import ProbeConfig, classify
from opcheck.constructions import PlusTheory, quotient
from opcheck.instances import SubStochTheory

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    yield spans
    for name in ("spans", "workloads"):
        sys.modules.pop(name, None)


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads
    yield workloads
    sys.modules.pop("workloads", None)


def test_tracer_reaches_the_wrapped_methods(spans):
    tracer = spans.Tracer()
    subject = PlusTheory(SubStochTheory(grid=1))
    tracer.install_modules()
    try:
        tracer.install_subject(subject)
        report = classify(subject, ProbeConfig(bound=1, seed=7),
                          only=["cat-identity", "def3.3-c1", "lemma2.3-iv",
                                "def3.3-c5"])
    finally:
        tracer.uninstall()
    assert not report.any_failures
    metrics = tracer.metrics()
    assert metrics["constructions.PlusTheory.compose.calls"] > 0
    assert metrics["instances.compose.calls"] > 0
    assert metrics["checker.cat-identity.s"] > 0


def test_tracer_reaches_the_quotient_methods(spans):
    # the class_counts / is_separated loop of a monoidal quotient summary
    tracer = spans.Tracer()
    subject = quotient(SubStochTheory(grid=1), bound=1, monoidal=True)
    probes = subject.base.probe_objects(1)
    tracer.install_modules()
    try:
        tracer.install_subject(subject)
        for a in probes:
            for b in probes:
                assert subject.class_counts(a, b)
                assert subject.is_separated(a, b)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["constructions.QuotientTheory.signature.calls"] > 0
    assert metrics["constructions.QuotientTheory.classes.calls"] > 0


def _failures(workloads, name, tmp_path):
    """Run workload ``name`` once at seed 11; return its failed operations."""
    workload = workloads.WORKLOADS[name]
    seed = 11
    path = workloads.write_inputs(workload, seed, str(tmp_path))
    subject = workloads.setup(workload, path, seed)
    doc = json.loads(workloads.operate(workload, subject, seed))
    return workloads.verify(workload, doc, workloads.load_expected())


def test_substoch_classify_workload_meets_its_expected_results(workloads, tmp_path):
    assert _failures(workloads, "substoch-classify", tmp_path) == []


def test_quotient_summary_workload_meets_its_expected_results(workloads, tmp_path):
    assert _failures(workloads, "quotient-summary", tmp_path) == []


def test_plus_classify_workload_meets_its_expected_results(workloads, tmp_path):
    assert _failures(workloads, "plus-classify", tmp_path) == []


def test_cpsu_classify_workload_meets_its_expected_results(workloads, tmp_path):
    assert _failures(workloads, "cpsu-classify", tmp_path) == []
