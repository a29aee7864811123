"""End-to-end acceptance checks for the workbench.

Each test here corresponds to one acceptance criterion; expected values are
frozen from independent brute-force oracles.
"""

import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import opcheck
from opcheck import cli, ops
from opcheck.checker import ProbeConfig, classify, run_check
from opcheck.constructions import (
    PlusTheory,
    direct_sum_verify,
    par,
    plus_completion,
    quotient,
    search_direct_sum,
)
from opcheck.instances import (
    CpsuTheory,
    FinHilbTheory,
    MatrixTheory,
    PFunTheory,
    SubStochTheory,
)
from opcheck.kernel import BOOLEANS, INTEGERS
from opcheck.theoryfile import load_theory

FIXTURES = Path(__file__).parent / "fixtures"

DEF_CONDITIONS = ["def3.3-c1", "def3.3-c2", "def3.3-c3", "def3.3-c4",
                  "def3.3-c5", "def3.1-c1", "def3.1-c2"]


@pytest.fixture(scope="module")
def pfun_report():
    t0 = time.monotonic()
    report = classify(PFunTheory(), ProbeConfig(bound=3, samples=40))
    return report, time.monotonic() - t0


@pytest.fixture(scope="module")
def substoch_report():
    t0 = time.monotonic()
    report = classify(SubStochTheory(grid=6), ProbeConfig(bound=3, samples=40))
    return report, time.monotonic() - t0


def test_01_mat_int_negative_fixture():
    theory = MatrixTheory(INTEGERS, grid=1)
    t0 = time.monotonic()
    report = classify(theory, ProbeConfig(bound=3, cap=1000, samples=40))
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"classification took {elapsed:.1f}s"
    pos = report.result("axiom-positivity")
    assert pos.verdict == "fails"
    # the counterexample is the pair of scalars merging to zero
    parts = pos.witness.parts
    assert "((-1,),)" in parts["f"] and "((1,),)" in parts["g"]
    assert "((0,),)" in pos.witness.lhs
    assert pos.witness.replay()
    assert report.flags["positive"] is False
    assert report.flags["effectus"] is False


def test_02_pfun_positive_fixture(pfun_report):
    report, elapsed = pfun_report
    text = json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
    golden = FIXTURES.parent / "golden" / "classify_pfun_bound3.json"
    assert text == golden.read_text()
    assert elapsed < 10.0, f"classification took {elapsed:.1f}s"
    assert report.flags["effectus"] is True
    for cid in DEF_CONDITIONS:
        assert report.result(cid).verdict == "holds-exhaustive", cid


def test_02_substoch_positive_fixture(substoch_report):
    report, elapsed = substoch_report
    text = json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
    golden = FIXTURES.parent / "golden" / "classify_substoch_grid6_bound3.json"
    assert text == golden.read_text()
    assert elapsed < 25.0, f"classification took {elapsed:.1f}s"
    assert report.flags["effectus"] is True
    for cid in DEF_CONDITIONS:
        assert report.result(cid).verdict == "holds-exhaustive", cid


def test_03_mat_bool_complement_failure():
    theory = MatrixTheory(BOOLEANS)
    report = classify(theory, ProbeConfig(bound=2, samples=40))
    comp = report.result("assumption7-complements")
    assert comp.verdict == "fails"
    assert comp.samples == 0  # found by exhaustive scan, not sampling
    assert "2 complements" in comp.witness.lhs
    assert comp.witness.replay()
    ext = report.result("def3.3-c3")
    assert ext.verdict == "fails"
    assert report.flags["partial-form-operational-category"] is False
    assert report.flags["effectus"] == "inconclusive"


def test_04_counting_oracles():
    pfun = PFunTheory()
    events = pfun.enumerate_hom(2, 2)
    assert len(events) == 9
    assert sum(1 for f in events if ops.is_total(f)) == 4
    # independent brute force: partial maps {x1,x2} -> {x1,x2}, each source
    # going to no target or to one, and the total ones among them
    targets = [None, "x1", "x2"]
    maps = list(itertools.product(targets, repeat=2))
    assert len(maps) == 9
    assert sum(1 for m in maps if None not in m) == 4

    matb = MatrixTheory(BOOLEANS)
    events = matb.enumerate_hom(2, 2)
    assert len(events) == 16
    assert sum(1 for f in events if ops.is_total(f)) == 9
    # independent brute force over all 2x2 boolean matrices
    count = total = 0
    for bits in itertools.product((0, 1), repeat=4):
        rows = [bits[:2], bits[2:]]
        count += 1
        if all(max(r) == 1 for r in rows):
            total += 1
    assert count == 16 and total == 9


def test_05_roundtrips():
    # def3.3-c3 decides the Par round trip: every event extends to a total
    # morphism into B + I, the extension restricts back to the event, and
    # no other total morphism restricts to it
    instances = 0
    for theory in (PFunTheory(), SubStochTheory(grid=6),
                   MatrixTheory(INTEGERS, grid=1)):
        result = run_check(theory, ProbeConfig(bound=2), "def3.3-c3")
        assert result.verdict == "holds-exhaustive", result.to_json()
        assert not result.skipped and not result.notes
        instances += result.instances
    assert instances >= 200


def test_06_plus_completion_direct_sums():
    base = SubStochTheory(grid=2)
    plus = plus_completion(base)
    rng = random.Random(6)
    shapes = []
    while len(shapes) < 50:
        shape = tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 3)))
        shapes.append(shape)
    for shape in shapes:
        if len(shape) < 2:
            continue
        summands = tuple((n,) for n in shape)
        verdict = direct_sum_verify(plus, summands)
        assert verdict["ok"], (shape, verdict["failures"])
    objs = [(1,), (2,), (1, 1), (2, 1)]
    checked = 0
    for _ in range(1000):
        a, b, c, d = (objs[rng.randrange(len(objs))] for _ in range(4))
        f = plus.sample_hom(a, b, rng)
        g = plus.sample_hom(b, c, rng)
        h = plus.sample_hom(c, d, rng)
        lhs = plus.compose(h, plus.compose(g, f))
        rhs = plus.compose(plus.compose(h, g), f)
        assert plus.equal(lhs, rhs)
        checked += 1
    assert checked == 1000


def test_07_finhilb_no_direct_sums():
    theory = FinHilbTheory()
    result = search_direct_sum(theory, ((2,), (2,)), bound=8)
    assert result["verdict"] == "absent-under-bound"
    assert result["bound"] == 8
    names = sorted(c["candidate"] for c in result["candidates"])
    assert names == sorted(f"({n})" for n in range(1, 9))
    for c in result["candidates"]:
        assert not c["exists"]


def test_08_derived_lemmas(substoch_report):
    report, _ = substoch_report
    assert report.result("lemma2.2-causality").verdict == "holds-exhaustive"

    theory = SubStochTheory(grid=6)
    effects = theory.enumerate_hom(2, 1)
    rng = random.Random(8)
    failures = 0
    for _ in range(1000):
        e1, e2, e3 = (effects[rng.randrange(len(effects))] for _ in range(3))
        p1 = theory.try_pairing([e1, e3])
        p2 = theory.try_pairing([e2, e3])
        if p1 is None or p2 is None:
            continue
        if theory.equal(ops.coarse_grain(e1, e3), ops.coarse_grain(e2, e3)):
            if not theory.equal(e1, e2):
                failures += 1
    assert failures == 0

    cpsu = CpsuTheory(tol=1e-9)
    qubit, qutrit = (2,), (3,)
    lhs = cpsu.discard(cpsu.tensor_obj(qubit, qutrit))
    rhs = cpsu.compose(cpsu.unitor_left(cpsu.unit()),
                       cpsu.tensor(cpsu.discard(qubit), cpsu.discard(qutrit)))
    assert cpsu.equal(lhs, rhs)


def test_09_positivity_consequences():
    cfg = ProbeConfig(bound=2, cap=2000, samples=40)
    for base in (PFunTheory(), SubStochTheory(grid=2)):
        p = par(base)
        iso = run_check(p, cfg, "lemmaB.3-i")
        assert iso.ok, iso.verdict
        strict = run_check(p, cfg, "lemmaB.3-ii")
        assert strict.ok, strict.verdict


def test_10_quotient_collapse_and_separation():
    theory = load_theory(FIXTURES / "stateless.theory")
    q = quotient(theory, bound=2)
    x = ("X",)
    counts = q.class_counts(x, x)
    assert counts == [2]  # both parallel events collapse into one class
    probes = theory.probe_objects(2)
    assert all(q.is_separated(a, b) for a in probes for b in probes)

    separated = SubStochTheory(grid=2)
    qs = quotient(separated, bound=2)
    for a in separated.probe_objects(2):
        for b in separated.probe_objects(2):
            assert all(n == 1 for n in qs.class_counts(a, b))


def test_11_json_determinism():
    # The children run from the fixtures directory, where a relative
    # PYTHONPATH entry such as ``src`` no longer resolves; hand them the
    # absolute directory the package was imported from.
    package_root = str(Path(opcheck.__file__).resolve().parents[1])

    def run(cmd, hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p)
        return subprocess.run(
            [sys.executable, "-m", "opcheck.cli"] + cmd,
            capture_output=True, cwd=FIXTURES, env=env)

    for cmd in (
        ["classify", "mat_bool.theory", "--format", "json", "--seed", "7"],
        ["quotient", "stateless.theory", "--format", "json", "--seed", "7"],
        ["axioms", "--format", "json"],
    ):
        # Two distinct fixed hash seeds, so set or dict order leaking into
        # stdout shows on every run rather than by chance.
        first = run(cmd, "0")
        second = run(cmd, "1")
        detail = (
            f"opcheck {' '.join(cmd)}: exit codes "
            f"{first.returncode}/{second.returncode}\n"
            f"stderr (PYTHONHASHSEED=0):\n{first.stderr.decode(errors='replace')}\n"
            f"stderr (PYTHONHASHSEED=1):\n{second.stderr.decode(errors='replace')}")
        assert first.stdout and first.stdout == second.stdout, detail
        assert first.returncode == second.returncode, detail


def test_12_quotient_classifies_separated():
    t0 = time.monotonic()
    report = classify(quotient(SubStochTheory(grid=2)), ProbeConfig(bound=2))
    elapsed = time.monotonic() - t0
    assert elapsed < 20.0, f"classification took {elapsed:.1f}s"
    assert len(report.flags) == 7
    assert all(v is True for v in report.flags.values()), report.flags
    assert report.flags["separated"] is True


def test_13_monoidal_quotient_summary():
    grid = 2
    theory = SubStochTheory(grid=grid)
    t0 = time.monotonic()
    q = quotient(theory, bound=2, monoidal=True)
    probes = theory.probe_objects(2)
    for a in probes:
        for b in probes:
            # substochastic grid rows into b outcomes: C(g + b, b) per input
            assert q.class_counts(a, b) == [1] * math.comb(grid + b, b) ** a
            assert q.is_separated(a, b)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"monoidal summary took {elapsed:.1f}s"


def test_14_plus_substoch_grid2_matches_golden():
    t0 = time.monotonic()
    report = classify(PlusTheory(SubStochTheory(grid=2)),
                      ProbeConfig(bound=2, seed=7))
    elapsed = time.monotonic() - t0
    text = json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
    golden = FIXTURES.parent / "golden" / "classify_plus_substoch_grid2.json"
    assert text == golden.read_text()
    assert elapsed < 30.0, f"classification took {elapsed:.1f}s"


def test_15_cpsu_at_the_cli_defaults_matches_golden(capsys):
    # every check at bound 2, 100 samples and cap 20000: each 100-by-100
    # pair scan fits the cap, so the pair scans read whole pairing tables
    t0 = time.monotonic()
    code = cli.main(["classify", str(FIXTURES / "cpsu.theory"),
                     "--format", "json", "--seed", "7"])
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out
    assert code == 0
    golden = FIXTURES.parent / "golden" / "classify_cpsu_cli_defaults.json"
    assert out == golden.read_text()
    # separation's probe scans are over the cap, so it meets no instance
    assert json.loads(out)["flags"]["separated"] == "inconclusive"
    assert elapsed < 60.0, f"classification took {elapsed:.1f}s"
