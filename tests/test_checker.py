"""Checker: verdict semantics, witnesses, flags, report shape."""

import json
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from opcheck import checker, ops
from opcheck.checker import (
    CHECK_IDS,
    ProbeConfig,
    _relaxed_equal,
    _Run,
    classify,
    run_check,
)
from opcheck.constructions import par, plus_completion, quotient
from opcheck.errors import BoundExceeded, NotEnumerable
from opcheck.instances import (
    CpsuTheory,
    MatrixTheory,
    PFunTheory,
    SubStochTheory,
)
from opcheck.instances.matrix import MatrixEvent
from opcheck.kernel import BOOLEANS, INTEGERS
from opcheck.theory import Morphism, Theory
from opcheck.theoryfile import load_theory

FIXTURES = Path(__file__).parent / "fixtures"

VERDICT_RE = re.compile(
    r"^(holds-exhaustive|holds-sampled\([0-9]+\)|fails|inconclusive\(.*\))$")

CFG = ProbeConfig(bound=2, samples=20)


def test_probe_config_validation():
    with pytest.raises(ValueError):
        ProbeConfig(bound=-1)
    with pytest.raises(ValueError):
        ProbeConfig(cap=0)


def test_pfun_is_an_effectus():
    report = classify(PFunTheory(), CFG)
    assert not report.any_failures
    assert report.flags["effectus"] is True
    assert report.flags["partial-form-operational-category"] is True
    assert report.flags["total-form-operational-category"] is True
    assert report.flags["separated"] is True
    for r in report.results:
        assert VERDICT_RE.match(r.verdict), r.verdict


def test_boolean_matrices_fail_exactly_where_expected():
    report = classify(MatrixTheory(BOOLEANS), CFG)
    failing = sorted(r.id for r in report.results if r.status == "fails")
    assert failing == ["assumption7-complements", "def3.1-c1",
                       "def3.3-c3", "lemma2.3-iii"]
    assert report.flags["partial-form-operational-category"] is False
    # downstream axioms cannot be interpreted without the partial form
    assert report.flags["positive"] == "inconclusive"
    assert report.flags["observations-determine-tests"] == "inconclusive"
    assert report.flags["effectus"] == "inconclusive"


@pytest.mark.parametrize("name", ["mat_bool", "mat_int", "stateless"])
def test_every_failure_of_a_shipped_fixture_replays(name):
    report = classify(load_theory(FIXTURES / f"{name}.theory"),
                      ProbeConfig(bound=2, seed=7))
    failing = [r for r in report.results if r.status == "fails"]
    assert failing
    for r in failing:
        assert r.witness._replay is not None, r.witness.equation
        assert r.witness.replay(), r.witness.equation


def test_failure_witness_replays():
    cfg = ProbeConfig(bound=2, samples=20, cap=1000)
    report = classify(MatrixTheory(INTEGERS, grid=1), cfg)
    result = report.result("axiom-positivity")
    assert result.verdict == "fails"
    assert result.witness is not None
    assert result.witness.parts
    assert result.witness.replay()
    blob = result.to_json()
    assert blob["witness"]["equation"] == result.witness.equation


def test_monoidal_checks_are_inconclusive_without_tensor():
    q = quotient(SubStochTheory(grid=2), bound=2)
    result = run_check(q, CFG, "lemma2.3-iv")
    assert result.verdict == "inconclusive(not-monoidal)"


def test_unknown_check_id_raises():
    with pytest.raises(KeyError):
        run_check(PFunTheory(), CFG, "no-such-check")


def test_classify_names_every_unknown_check_id():
    with pytest.raises(KeyError, match="'no-such-check', 'nor-this'"):
        classify(PFunTheory(), CFG,
                 only=["cat-identity", "no-such-check", "nor-this"])


def test_only_subset_runs_one_check():
    report = classify(SubStochTheory(grid=2), CFG, only=["cat-identity"])
    assert [r.id for r in report.results] == ["cat-identity"]
    # the partial form cannot be concluded from that subset alone
    assert report.flags["partial-form-operational-category"] == "inconclusive"


def test_report_json_is_deterministic():
    one = classify(SubStochTheory(grid=2), CFG).to_json()
    two = classify(SubStochTheory(grid=2), CFG).to_json()
    assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)
    assert one["format"] == "opcheck/1"
    assert one["config"]["bound"] == 2
    assert set(r["id"] for r in one["checks"]) == set(CHECK_IDS)


def test_render_text_colors_only_when_asked():
    report = classify(PFunTheory(), CFG, only=["cat-identity"])
    plain = report.render_text(color=False)
    assert "\x1b[" not in plain
    assert "cat-identity" in plain
    assert "\x1b[32m" in report.render_text(color=True)


def test_numeric_theories_report_sampled_verdicts():
    result = run_check(CpsuTheory(), ProbeConfig(bound=2, samples=10),
                       "cat-identity")
    assert result.verdict.startswith("holds-sampled(")


def test_a_check_that_meets_no_instance_is_vacuous():
    # every signature scan of cpsu is over the cap, so no probe homset is
    # checked; that is no evidence of separation
    report = classify(CpsuTheory(), ProbeConfig(bound=2, samples=20, cap=2000),
                      only=["separation"])
    result = report.result("separation")
    assert result.verdict == "inconclusive(vacuous)"
    assert result.instances == 0
    assert result.notes == ["scan-skipped-over-cap"] and not result.skipped
    assert report.flags["separated"] == "inconclusive"


def test_discard_tensor_law_runs_once_for_both_ids(monkeypatch):
    ran = []
    real = checker.run_check

    def spy(theory, cfg, check_id):
        ran.append(check_id)
        return real(theory, cfg, check_id)
    monkeypatch.setattr(checker, "run_check", spy)
    report = classify(PFunTheory(), CFG, only=["lemma2.3-iv", "def3.3-c5"])
    assert ran == ["lemma2.3-iv"]
    iv, c5 = report.result("lemma2.3-iv"), report.result("def3.3-c5")
    assert (iv.paper_ref, c5.paper_ref) == ("Lemma 2.3 iv", "Def. 3.3 condition 5")
    assert iv.verdict == c5.verdict == "holds-exhaustive"
    assert iv.instances == c5.instances > 0
    # asked for on its own, Def. 3.3 condition 5 still runs the check
    ran.clear()
    report = classify(PFunTheory(), CFG, only=["def3.3-c5"])
    assert ran == ["def3.3-c5"]
    assert report.result("def3.3-c5").instances == iv.instances


# every kind of theory that enumerates its homsets
ENUMERABLE = {
    "substoch": lambda: SubStochTheory(grid=2),
    "mat_bool": lambda: MatrixTheory(BOOLEANS, grid=1),
    "pfun": PFunTheory,
    "stateless": lambda: load_theory(FIXTURES / "stateless.theory"),
    "par": lambda: par(SubStochTheory(grid=2)),
    "plus": lambda: plus_completion(SubStochTheory(grid=1)),
    "quotient": lambda: quotient(SubStochTheory(grid=2)),
}


@pytest.mark.parametrize("name", ENUMERABLE)
def test_each_enumerable_theory_keeps_its_homsets_in_one_store(name):
    """The largest probe homset is built once and the same tuple returned
    after; a cap below its count raises before and after it is kept, and a
    run lists it as skipped with that count."""
    th = ENUMERABLE[name]()
    a = b = th.probe_objects(2)[-1]
    reference = ENUMERABLE[name]()
    size = len(reference.enumerate_hom(a, b))
    count = reference.hom_count(a, b)
    assert count >= size > 1
    over = f"homset size {count} over cap"
    with pytest.raises(BoundExceeded, match=over):
        th.enumerate_hom(a, b, count - 1)
    homs = th.enumerate_hom(a, b, count)
    assert isinstance(homs, tuple) and len(homs) == size
    assert th.enumerate_hom(a, b) is homs
    with pytest.raises(BoundExceeded, match=over):
        th.enumerate_hom(a, b, count - 1)
    run = _Run(th, ProbeConfig(bound=2, cap=count - 1), "cat-identity")
    assert run.homs(a, b) is None
    assert run.skipped == [{"dom": th.object_str(a), "cod": th.object_str(b),
                            "reason": over}]
    assert th.enumerate_hom(a, b, count) is homs


def test_a_theory_that_cannot_enumerate_keeps_nothing():
    cpsu = CpsuTheory()
    with pytest.raises(NotEnumerable):
        cpsu.enumerate_hom((2,), (2,), 10)
    assert not vars(cpsu).get("_homsets")


def _discard_composites(th):
    """Wrap ``th.compose`` on the instance.  Returns the list of calls and,
    per event ``f``, the calls that composed ``f`` with the discard effect
    of its codomain that ``ops`` keeps (each such ``f`` is held alive, so
    its id is not reused)."""
    calls, built = [], {}
    compose = th.compose

    def counted(g, f):
        calls.append((g, f))
        if g is vars(th).get("_discards", {}).get(f.cod):
            built.setdefault(id(f), []).append(f)
        return compose(g, f)
    th.compose = counted
    return calls, built


def test_each_event_keeps_its_discard_composite():
    pfun = PFunTheory()
    calls, built = _discard_composites(pfun)
    a = 2
    f = pfun.enumerate_hom(a, a)[-1]
    obs = ops.observation(f)
    assert f.observation is obs and ops.observation(f) is obs
    assert len(built[id(f)]) == 1
    assert pfun.equal(obs, pfun.compose(pfun.discard(a), f))
    assert ops.is_total(f)
    del calls[:]
    assert ops.is_total(f)
    assert calls == []


@pytest.mark.parametrize("make,bound", [
    (PFunTheory, 3), (lambda: plus_completion(SubStochTheory(grid=1)), 2)])
def test_classify_builds_each_discard_composite_once(make, bound):
    th = make()
    _, built = _discard_composites(th)
    classify(th, ProbeConfig(bound=bound))
    events = [f for hs in vars(th)["_homsets"].values() for f in hs]
    counts = Counter(len(built.get(id(f), ())) for f in events)
    assert counts[1] and max(counts) == 1, counts


def test_over_cap_homsets_are_skipped_not_sampled():
    result = run_check(SubStochTheory(grid=2),
                       ProbeConfig(bound=2, samples=10, cap=5), "cat-identity")
    assert result.verdict == "holds-exhaustive"
    assert len(result.skipped) == 3


def test_kept_homsets_do_not_bypass_a_tighter_cap():
    """Homsets a run at the default cap enumerated and kept are still
    skipped by a later run under a cap they pass."""
    sub = SubStochTheory(grid=2)
    classify(sub, ProbeConfig(bound=2))
    result = run_check(sub, ProbeConfig(bound=2, samples=10, cap=5),
                       "cat-identity")
    assert result.verdict == "holds-exhaustive"
    assert len(result.skipped) == 3


def test_relaxed_equality_retry():
    cpsu = CpsuTheory()
    i2 = cpsu.identity((2,))
    pert = cpsu._m((2,), (2,), [[i2.payload[0][0] * (1 + 3e-9)]])
    far = cpsu._m((2,), (2,), [[i2.payload[0][0] * 0.5]])
    assert _relaxed_equal(cpsu, i2, i2) == (True, False)
    assert _relaxed_equal(cpsu, i2, pert) == (True, True)
    assert _relaxed_equal(cpsu, i2, far) == (False, False)
    assert cpsu.tol == 1e-9

    # a construction takes cpsu's tolerance and passes the wider one down
    def scaled(f, c):
        return cpsu._m(f.dom, f.cod, [[b * c for b in row] for row in f.payload])

    plus, partial = plus_completion(cpsu), par(cpsu)
    kappa = partial.identity((2,)).payload
    for theory, event in [
            (plus, lambda c: plus.singleton(scaled(i2, c))),
            (partial, lambda c: partial._wrap((2,), (2,), scaled(kappa, c)))]:
        assert _relaxed_equal(theory, event(1), event(1)) == (True, False)
        assert _relaxed_equal(theory, event(1), event(1 - 3e-9)) == (True, True)
        assert _relaxed_equal(theory, event(1), event(0.5)) == (False, False)


class _TolSpy(CpsuTheory):
    """Records the shared tolerance and the one passed, at every comparison."""

    def __init__(self, fail_retry=False):
        super().__init__(tol=1e-9)
        self.fail_retry = fail_retry
        self.seen = []

    def equal(self, f, g, tol=None):
        self.seen.append((self.tol, tol))
        if tol is not None and self.fail_retry:
            raise RuntimeError("retried comparison failed")
        return super().equal(f, g, tol)


@pytest.mark.parametrize("fail_retry", [False, True])
def test_relaxed_retry_leaves_a_shared_theory_alone(fail_retry):
    spy = _TolSpy(fail_retry)
    i2 = spy.identity((2,))
    pert = spy._m((2,), (2,), [[i2.payload[0][0] * (1 + 3e-9)]])
    run = _Run(spy, CFG, "cat-identity")
    if fail_retry:
        with pytest.raises(RuntimeError):
            run.check_eq(i2, pert, "f = g", {"f": i2, "g": pert})
    else:
        # a comparison that holds returns; one that fails would raise
        run.check_eq(i2, pert, "f = g", {"f": i2, "g": pert})
        assert run.witness is None
        assert "relaxed-tolerance-used" in run.notes
    assert spy.tol == 1e-9
    # the retry passes the wider tolerance instead of writing it to the theory
    assert [shared for shared, _ in spy.seen] == [1e-9, 1e-9]
    assert spy.seen[1][1] == pytest.approx(1e-8)


class _BrokenCompose(SubStochTheory):
    """Test double that corrupts composition to exercise failure reporting."""

    def compose(self, g, f):
        return self.zero_morphism(f.dom, g.cod)


def test_corrupted_composition_is_caught_with_witness():
    broken = _BrokenCompose(grid=2)
    result = run_check(broken, CFG, "cat-identity")
    assert result.verdict == "fails"
    assert result.witness is not None
    assert result.witness.replay()


# Mutants: each wraps substochastic matrices and breaks one law that a pair
# or signature scan checks, so the scan's failure branch runs.  The witness
# each one gives was recorded before those scans were made to compute each
# event's composites once; it must not move.

HALF = Fraction(1, 2)


def _has_half(f):
    return any(x == HALF for row in f.payload for x in row)


def _is(f, dom, cod, rows):
    return (f.dom, f.cod, f.payload) == (dom, cod, rows)


class _RefusesOnePairing(SubStochTheory):
    """Refuses to pair the event [1, 0] : 1 -> 2 with the zero scalar,
    though their discard composites merge to discarding (Axiom 3)."""

    def try_pairing(self, events):
        if len(events) == 2 and _is(events[0], 1, 2, ((1, 0),)) \
                and _is(events[1], 1, 1, ((0,),)):
            return None
        return super().try_pairing(events)


class _RefusesOneZeroMerge(SubStochTheory):
    """Refuses to pair the event [1, 0] : 1 -> 2 with the zero event 1 -> 2,
    so that not every event merges with zero (Assumption 4)."""

    def try_pairing(self, events):
        if len(events) == 2 and _is(events[0], 1, 2, ((1, 0),)) \
                and _is(events[1], 1, 2, ((0, 0),)):
            return None
        return super().try_pairing(events)


class _RefusesOneObservation(SubStochTheory):
    """Refuses to merge discarding with the zero effect on the trivial
    object, though events with those observations pair (Axiom 2)."""

    def try_pairing(self, events):
        if len(events) == 2 and _is(events[0], 1, 1, ((1,),)) \
                and _is(events[1], 1, 1, ((0,),)):
            return None
        return super().try_pairing(events)


class _ConfusesTwoEvents(SubStochTheory):
    """Reads the event [1, 0] : 1 -> 2 as [0, 1] in every composite, so no
    state and effect tell the two apart (separation)."""

    def compose(self, g, f):
        other = self._m(1, 2, [[Fraction(0), Fraction(1)]])
        g, f = (other if _is(h, 1, 2, ((1, 0),)) else h for h in (g, f))
        return super().compose(g, f)


class _HalvesAnnihilate(SubStochTheory):
    """Composing two events that each have an entry 1/2 gives zero, so
    composition does not distribute over merging (Assumption 3)."""

    def compose(self, g, f):
        if _has_half(g) and _has_half(f):
            return self.zero_morphism(f.dom, g.cod)
        return super().compose(g, f)


class _HalvesTensorToZero(SubStochTheory):
    """The tensor of two events that each have an entry 1/2 is zero, so the
    tensor does not distribute over merging (Def. 3.3 condition 4)."""

    def tensor(self, f, g):
        if _has_half(f) and _has_half(g):
            return self.zero_morphism(self.tensor_obj(f.dom, g.dom),
                                      self.tensor_obj(f.cod, g.cod))
        return super().tensor(f, g)


class _SwapsOneCotuple(SubStochTheory):
    """Cotuples the legs [1] and [0] : 1 -> 1 the other way round, so that
    cotuple does not give back its first leg (coproducts, Sec. 3.1)."""

    def cotuple(self, summands, fs):
        if summands == (1, 1) and _is(fs[0], 1, 1, ((1,),)) \
                and _is(fs[1], 1, 1, ((0,),)):
            fs = fs[::-1]
        return super().cotuple(summands, fs)


class _Tagged(MatrixEvent):
    """A copy of a matrix event that carries a tag."""

    __slots__ = ("tag",)

    def __init__(self, f):
        super().__init__(f.theory, f.dom, f.cod, f.form)
        self.tag = "copy"

    def __repr__(self):
        return f"{super().__repr__()} tagged {self.tag}"


def _tag(f):
    return getattr(f, "tag", None)


class _CotuplesTwice(SubStochTheory):
    """Enumerates each hom(A + B, C) twice, the second time as tagged
    copies.  Equality and keys see the tag and composition ignores it, so
    an event and its copy have the same legs (coproduct uniqueness)."""

    def _homset(self, a, b, cap):
        hs = tuple(super()._homset(a, b, cap))
        return hs if a < 2 else hs + tuple(_Tagged(f) for f in hs)

    def equal(self, f, g, tol=None):
        return super().equal(f, g) and _tag(f) == _tag(g)

    def payload_key(self, f):
        return f.form, _tag(f)


MUTANTS = {
    "coproduct-universal/existence": (_SwapsOneCotuple(grid=1), {
        "equation": "[f, g] . k1 = f",
        "parts": {
            "f": "Morphism(substoch: 1 -> 1, ((Fraction(1, 1),),))",
            "g": "Morphism(substoch: 1 -> 1, ((Fraction(0, 1),),))",
        },
        "lhs": "Morphism(substoch: 1 -> 1, ((Fraction(0, 1),),))",
        "rhs": "Morphism(substoch: 1 -> 1, ((Fraction(1, 1),),))",
    }),
    "coproduct-universal/uniqueness": (_CotuplesTwice(grid=1), {
        "equation": "the cotupling is unique",
        "parts": {
            "h1": "Morphism(substoch: 2 -> 0, ((), ()))",
            "h2": "Morphism(substoch: 2 -> 0, ((), ())) tagged copy",
        },
        "lhs": "Morphism(substoch: 2 -> 0, ((), ()))",
        "rhs": "Morphism(substoch: 2 -> 0, ((), ())) tagged copy",
    }),
    "axiom-combining": (_RefusesOnePairing(grid=1), {
        "equation": "complementary normalizations admit a joint test",
        "parts": {
            "f": "Morphism(substoch: 1 -> 2, ((Fraction(1, 1), Fraction(0, 1)),))",
            "g": "Morphism(substoch: 1 -> 1, ((Fraction(0, 1),),))",
        },
        "lhs": "discard",
        "rhs": "no pairing",
    }),
    "assumption4-zero": (_RefusesOneZeroMerge(grid=1), {
        "equation": "f and 0 always merge",
        "parts": {
            "f": "Morphism(substoch: 1 -> 2, ((Fraction(1, 1), Fraction(0, 1)),))",
        },
        "lhs": "Morphism(substoch: 1 -> 2, ((Fraction(1, 1), Fraction(0, 1)),))",
        "rhs": "no pairing",
    }),
    "axiom-observations": (_RefusesOneObservation(grid=1), {
        "equation": "pairing exists iff the observations merge",
        "parts": {
            "f": "Morphism(substoch: 1 -> 1, ((Fraction(1, 1),),))",
            "g": "Morphism(substoch: 1 -> 0, ((),))",
        },
        "lhs": "observations merge: False",
        "rhs": "pairing exists: True",
    }),
    "separation": (_ConfusesTwoEvents(grid=1), {
        "equation": "probes separate parallel events",
        "parts": {
            "f": "Morphism(substoch: 1 -> 2, ((Fraction(1, 1), Fraction(0, 1)),))",
            "g": "Morphism(substoch: 1 -> 2, ((Fraction(0, 1), Fraction(1, 1)),))",
        },
        "lhs": "Morphism(substoch: 1 -> 2, ((Fraction(1, 1), Fraction(0, 1)),))",
        "rhs": "Morphism(substoch: 1 -> 2, ((Fraction(0, 1), Fraction(1, 1)),))",
    }),
    "assumption3-coarse-graining": (_HalvesAnnihilate(grid=2), {
        "equation": "k.(f v g) = k.f v k.g",
        "parts": {
            "f": "Morphism(substoch: 1 -> 2, ((Fraction(0, 1), Fraction(1, 2)),))",
            "g": "Morphism(substoch: 1 -> 2, ((Fraction(0, 1), Fraction(1, 2)),))",
            "k": "Morphism(substoch: 2 -> 1, ((Fraction(0, 1),), (Fraction(1, 2),)))",
        },
        "lhs": "Morphism(substoch: 1 -> 1, ((Fraction(1, 2),),))",
        "rhs": "Morphism(substoch: 1 -> 1, ((Fraction(0, 1),),))",
    }),
    "def3.3-c4": (_HalvesTensorToZero(grid=2), {
        "equation": "h x (f v g) = (h x f) v (h x g)",
        "parts": {
            "f": "Morphism(substoch: 2 -> 1, ((Fraction(0, 1),), (Fraction(1, 2),)))",
            "g": "Morphism(substoch: 2 -> 1, ((Fraction(0, 1),), (Fraction(1, 2),)))",
            "h": "Morphism(substoch: 2 -> 1, ((Fraction(1, 2),), (Fraction(1, 2),)))",
        },
        "lhs": "Morphism(substoch: 4 -> 1, ((Fraction(0, 1),), (Fraction(1, 2),), (Fraction(0, 1),), (Fraction(1, 2),)))",
        "rhs": "Morphism(substoch: 4 -> 1, ((Fraction(0, 1),), (Fraction(0, 1),), (Fraction(0, 1),), (Fraction(0, 1),)))",
    }),
}


@pytest.mark.parametrize("check_id", sorted(MUTANTS))
def test_a_mutant_fails_its_check_with_the_recorded_witness(check_id):
    mutant, witness = MUTANTS[check_id]
    result = run_check(mutant, ProbeConfig(bound=2, seed=7),
                       check_id.split("/")[0])
    assert result.verdict == "fails"
    assert result.witness.replay()
    assert result.witness.to_json() == witness


# Mutants of the round trip between events into B and total morphisms into
# B + I (Sec. 3).  Compared directly, the two sides can fail to match in four
# ways: an event with no total extension, an extension that does not
# restrict back to its event, two events with one extension, and a total
# morphism that is not the extension of its own restriction.  Between them
# these mutants show all four, and def3.3-c3 fails on each.


class _FirstComplementOnly(MatrixTheory):
    """Keeps only the first complement of each effect.  Over the booleans
    [1] has two, so the total morphisms [1, 0] and [1, 1] into 1 + 1
    restrict to the same event, and only one of them is its extension
    (a total morphism that is not the extension of its restriction)."""

    def effect_complements(self, e):
        return super().effect_complements(e)[:1]


class _NoComplementForHalf(SubStochTheory):
    """Gives the effect [1/2] on 1 no complement, so no event with that
    observation has a total extension."""

    def effect_complements(self, e):
        if _is(e, 1, 1, ((HALF,),)):
            return []
        return super().effect_complements(e)


class _PairsZeroUnevenly(SubStochTheory):
    """Pairs the zero event 1 -> 1 with its complement [1] as [1/2, 1/2].
    That extension restricts to [1/2], not to zero; it is also the
    extension of [1/2]; and the total [0, 1] is not rebuilt from zero."""

    def try_pairing(self, events):
        if len(events) == 2 and _is(events[0], 1, 1, ((0,),)) \
                and _is(events[1], 1, 1, ((1,),)):
            return self._m(1, 2, [[HALF, HALF]])
        return super().try_pairing(events)


ROUND_TRIP_MUTANTS = {
    "extension-mismatch": (_FirstComplementOnly(BOOLEANS, grid=1), {
        "equation": "the total extension is unique",
        "parts": {
            "event": "Morphism(mat_booleans: 1 -> 1, ((1,),))",
            "g1": "Morphism(mat_booleans: 1 -> 2, ((1, 0),))",
            "g2": "Morphism(mat_booleans: 1 -> 2, ((1, 1),))",
        },
        "lhs": "Morphism(mat_booleans: 1 -> 2, ((1, 0),))",
        "rhs": "Morphism(mat_booleans: 1 -> 2, ((1, 1),))",
    }),
    "no-total-extension": (_NoComplementForHalf(grid=2), {
        "equation": "every event has a total extension",
        "parts": {"f": "Morphism(substoch: 1 -> 1, ((Fraction(1, 2),),))"},
        "lhs": "Morphism(substoch: 1 -> 1, ((Fraction(1, 2),),))",
        "rhs": "no extension",
    }),
    "projection-mismatch": (_PairsZeroUnevenly(grid=2), {
        "equation": "the extension restricts to the event",
        "parts": {"f": "Morphism(substoch: 1 -> 1, ((Fraction(0, 1),),))"},
        "lhs": "Morphism(substoch: 1 -> 1, ((Fraction(1, 2),),))",
        "rhs": "Morphism(substoch: 1 -> 1, ((Fraction(0, 1),),))",
    }),
}


@pytest.mark.parametrize("kind", sorted(ROUND_TRIP_MUTANTS))
def test_def33_c3_fails_on_a_broken_round_trip(kind):
    mutant, witness = ROUND_TRIP_MUTANTS[kind]
    result = run_check(mutant, ProbeConfig(bound=2, seed=7), "def3.3-c3")
    assert result.verdict == "fails"
    assert result.witness.replay()
    assert result.witness.to_json() == witness


def test_quotient_classifies_through_its_signature_key():
    # without a payload key the checker fell back to iterating the wrapped
    # base event as a numeric payload and raised TypeError
    report = classify(quotient(SubStochTheory(grid=1)), ProbeConfig(bound=2),
                      only=["lemma2.3-iii"])
    assert report.result("lemma2.3-iii").verdict == "holds-exhaustive"


@pytest.mark.parametrize("check_id,draws_per_homset", [
    ("assumption3-coarse-graining", 2),  # hom(a, b), then hom(b, a) once
    ("def3.3-c4", 1),
])
def test_sampled_homsets_are_drawn_once_per_probe_pair(check_id, draws_per_homset):
    cpsu = CpsuTheory()
    sample_hom = cpsu.sample_hom
    draws = []

    def counted(a, b, rng):
        draws.append((a, b))
        return sample_hom(a, b, rng)
    cpsu.sample_hom = counted
    cfg = ProbeConfig(bound=2, samples=8)
    result = run_check(cpsu, cfg, check_id)
    assert result.ok
    pairs = len(cpsu.probe_objects(cfg.bound)) ** 2
    assert len(draws) <= draws_per_homset * cfg.samples * pairs


def test_each_sampled_homset_is_drawn_once_per_check():
    # cat-assoc draws its triples from sample_hom itself, one event at a time
    cfg = ProbeConfig(bound=2, samples=4, seed=5)
    for check_id in CHECK_IDS:
        if check_id == "cat-assoc":
            continue
        cpsu = CpsuTheory()
        sample_hom = cpsu.sample_hom
        draws = Counter()

        def counted(a, b, rng):
            draws[a, b] += 1
            return sample_hom(a, b, rng)
        cpsu.sample_hom = counted
        run_check(cpsu, cfg, check_id)
        assert max(draws.values(), default=0) <= cfg.samples, (check_id, draws)


def test_a_check_run_alone_reports_what_it_reports_in_a_classification():
    # each check draws from its own seed, and its draws are kept on its run
    cfg = ProbeConfig(bound=2, samples=4, seed=5)
    full = classify(CpsuTheory(), cfg)
    for check_id in CHECK_IDS:
        alone = classify(CpsuTheory(), cfg, only=[check_id])
        assert (json.dumps(alone.result(check_id).to_json(), sort_keys=True)
                == json.dumps(full.result(check_id).to_json(), sort_keys=True))


class _ReferenceTable(CpsuTheory):
    """cpsu deciding each pair of a scan by its own ``try_pairing`` call."""

    pairing_table = Theory.pairing_table


@pytest.mark.parametrize("cap", [checker.DEFAULT_CAP, 30])
def test_cpsu_pairing_tables_report_what_the_try_pairing_loop_reports(cap):
    # at cap 30 every 8-by-8 pair scan is capped, so each drawn pair reads a
    # one-by-one table, between the draws of its loop body
    cfg = ProbeConfig(bound=2, samples=8, seed=7, cap=cap)
    got = classify(CpsuTheory(), cfg).to_json()
    want = classify(_ReferenceTable(), cfg).to_json()
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    if cap == 30:
        notes = {n for c in got["checks"] for n in c.get("notes", ())}
        assert "pair-scan-capped" in notes


def test_cpsu_observations_are_decided_without_try_pairing():
    cpsu = CpsuTheory()
    pairing = cpsu.try_pairing
    calls = []

    def counted(events):
        calls.append(len(events))
        return pairing(events)
    cpsu.try_pairing = counted
    result = run_check(cpsu, ProbeConfig(bound=2, samples=8, seed=7),
                       "axiom-observations")
    assert result.ok and result.instances
    assert calls == []


class _ReferenceOutcomes(CpsuTheory):
    """cpsu composing each outcome of a separation scan on its own."""

    outcome_key = Theory.outcome_key


@pytest.mark.parametrize("cap", [checker.DEFAULT_CAP, 100])
def test_cpsu_outcome_keys_report_what_the_composed_outcomes_report(cap):
    # at cap 100 every 8 x 8 x 8 separation scan is over the cap, while the
    # 8-by-8 pair scans are not
    cfg = ProbeConfig(bound=2, samples=8, seed=7, cap=cap)
    got = classify(CpsuTheory(), cfg).to_json()
    want = classify(_ReferenceOutcomes(), cfg).to_json()
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    (separation,) = (c for c in got["checks"] if c["id"] == "separation")
    skipped = "scan-skipped-over-cap" in separation.get("notes", ())
    assert skipped == (cap == 100)
    assert bool(separation["instances"]) != skipped


def test_cpsu_separation_composes_no_outcome():
    cpsu = CpsuTheory()
    compose = cpsu.compose
    calls = []

    def counted(g, f):
        calls.append((g, f))
        return compose(g, f)
    cpsu.compose = counted
    result = run_check(cpsu, ProbeConfig(bound=2, samples=8, seed=7),
                       "separation")
    assert result.ok and result.instances
    assert calls == []


class _TwinDraws(CpsuTheory):
    """cpsu whose every draw from hom((1), (2)) is a new event holding the
    blocks of the first draw, and whose ``equal`` tells the events of that
    homset apart by identity, so separation meets two distinct events that
    no state and effect tell apart."""

    def sample_hom(self, a, b, rng):
        f = super().sample_hom(a, b, rng)
        if (a, b) != ((1,), (2,)):
            return f
        first = vars(self).setdefault("first_draw", f)
        return Morphism(self, a, b, first.payload)

    def equal(self, f, g, tol=None):
        if (f.dom, f.cod) == ((1,), (2,)):
            return f is g
        return super().equal(f, g, tol)


class _ReferenceTwinDraws(_TwinDraws):
    """The twin draws, composing each outcome of a separation scan."""

    outcome_key = Theory.outcome_key


def test_cpsu_separation_fails_on_two_events_with_one_outcome_table():
    cfg = ProbeConfig(bound=2, samples=8, seed=7)
    got = run_check(_TwinDraws(), cfg, "separation")
    want = run_check(_ReferenceTwinDraws(), cfg, "separation")
    assert got.verdict == "fails"
    assert got.witness.parts["f"] == got.witness.parts["g"]
    assert "Morphism(cpsu: (1) -> (2)" in got.witness.parts["f"]
    assert (json.dumps(got.to_json(), sort_keys=True)
            == json.dumps(want.to_json(), sort_keys=True))


class _UnsampledHomset(CpsuTheory):
    """cpsu whose hom((1), (1,1)) can be neither enumerated nor sampled."""

    def sample_hom(self, a, b, rng):
        if (a, b) == ((1,), (1, 1)):
            raise NotEnumerable("stub: hom((1), (1,1)) cannot be sampled")
        return super().sample_hom(a, b, rng)


def test_a_homset_that_cannot_be_sampled_is_skipped_by_the_lifted_totals():
    cfg = ProbeConfig(bound=1, samples=4, seed=3)
    # def3.1-c1 fetches the totals into (1,1) + I as total extensions of
    # hom(x, (1,1)), so the stub's homset is skipped and the check goes on
    result = run_check(_UnsampledHomset(), cfg, "def3.1-c1")
    assert result.verdict == "holds-sampled(8)"
    assert result.skipped == [{"dom": "(1)", "cod": "(1,1)",
                               "reason": "neither enumerable nor samplable"}]
    # these reach the lifted totals only for homsets that homs did not skip
    for check_id in ("def3.3-c3", "def3.1-c2"):
        got = run_check(_UnsampledHomset(), cfg, check_id)
        assert got.to_json() == run_check(CpsuTheory(), cfg, check_id).to_json()
        assert got.ok and not got.skipped


def test_cpsu_is_not_separated_when_separation_meets_no_instance():
    # every probe scan of separation is over a cap of 10, so it meets no
    # instance, and the flag must not read true
    report = classify(CpsuTheory(), ProbeConfig(bound=1, samples=4, cap=10))
    result = report.result("separation")
    assert result.verdict == "inconclusive(vacuous)"
    assert result.notes == ["scan-skipped-over-cap"]
    assert report.flags["separated"] is not True


def test_capped_reverse_homset_is_listed_once_per_fetch():
    # hom(1, 2) has 6 events and fits the cap, hom(2, 1) has 9 and does not:
    # it is fetched as hom(b, a) of the pair (1, 2), however many pairs of
    # hom(1, 2) pair, and as hom(a, b) of the pair (2, 1), and listed once
    result = run_check(SubStochTheory(grid=2), ProbeConfig(bound=2, cap=8),
                       "assumption3-coarse-graining")
    assert result.verdict == "holds-exhaustive"
    listed = [(s["dom"], s["cod"]) for s in result.skipped]
    assert listed.count(("2", "1")) == 1
    assert listed.count(("2", "2")) == 1


def test_only_homsets_over_the_cap_are_listed_as_skipped():
    # a scan over several homsets that each fit the cap, but whose product
    # does not, is noted on its check rather than listed as a skipped homset
    sub, cap = SubStochTheory(grid=4), 100
    report = classify(sub, ProbeConfig(bound=2, cap=cap, seed=7))
    skipped = [(r.id, s) for r in report.results for s in r.skipped]
    assert skipped
    for cid, s in skipped:
        # substochastic objects are dimensions, printed as numbers
        assert sub.hom_count(int(s["dom"]), int(s["cod"])) > cap, (cid, s)
    assert "scan-skipped-over-cap" in report.result("lemmaB.3-i").notes
    # substoch's separation is decided on its probe basis, a table's on
    # every state and effect, whose product passes a small enough cap
    assert report.result("separation").notes == []
    table = load_theory(FIXTURES / "stateless.theory")
    result = run_check(table, ProbeConfig(bound=2, cap=5), "separation")
    assert "scan-skipped-over-cap" in result.notes


class _BlindSubStoch(SubStochTheory):
    """Substochastic matrices with a probe basis of no states and no
    effects, which gives every event of a homset one outcome key."""

    def probe_basis(self, a):
        return [], []


def test_separation_rescans_every_probe_when_the_basis_clashes():
    cfg = ProbeConfig(bound=2)
    result = run_check(_BlindSubStoch(grid=2), cfg, "separation")
    assert result.verdict == "holds-exhaustive"
    # the basis keys of each homset clash at its second event
    assert result.instances > run_check(SubStochTheory(grid=2), cfg,
                                        "separation").instances
    table = load_theory(FIXTURES / "stateless.theory")
    want = run_check(table, cfg, "separation")
    table.probe_basis = lambda a: ([], [])
    got = run_check(table, cfg, "separation")
    assert got.verdict == want.verdict == "fails"
    assert got.witness.to_json() == want.witness.to_json()


@pytest.mark.parametrize("check_id,count", [
    # objects 0, 1 and 2 have one total effect each, discarding
    ("lemma2.2-causality", 3),
    # the nonempty objects 1 and 2 give 4 pairs (A, B) of 4 (x, y) each
    ("eq2-projections", 16),
    # the homsets between 0, 1 and 2 hold 59 events, each compared on both
    # identity laws
    ("cat-identity", 59),
])
def test_one_instance_is_one_tuple_of_the_quantifiers(check_id, count):
    result = run_check(SubStochTheory(grid=2), ProbeConfig(bound=2), check_id)
    assert result.verdict == "holds-exhaustive"
    assert result.instances == count


def test_coproduct_universal_counts_each_pair_and_each_cotuple_once():
    # every pair (f, g) of legs is compared on both equations, and every
    # h out of A + B is keyed once by the uniqueness scan
    sub = SubStochTheory(grid=2)
    size = lambda a, b: len(sub.enumerate_hom(a, b))
    want = sum(size(a, c) * size(b, c) + size(a + b, c)
               for a in (1, 2) for b in (1, 2) for c in (0, 1, 2))
    result = run_check(sub, ProbeConfig(bound=2), "coproduct-universal")
    assert result.verdict == "holds-exhaustive"
    assert result.instances == want


def _count_composites(monkeypatch, cls):
    """Count the calls of ``cls._compose``; returns the list of calls."""
    calls = []
    compose = cls._compose

    def counted(self, g, f):
        calls.append((g, f))
        return compose(self, g, f)
    monkeypatch.setattr(cls, "_compose", counted)
    return calls


def test_coproduct_universal_composes_the_legs_of_each_cotuple_once(
        monkeypatch):
    # an exact theory reads the legs of each h out of A + B that the
    # existence half has cotupled from the keys it checked there
    sub = SubStochTheory(grid=2)
    size = lambda a, b: len(sub.enumerate_hom(a, b))
    pairs = sum(size(a, c) * size(b, c)
                for a in (1, 2) for b in (1, 2) for c in (0, 1, 2))
    calls = _count_composites(monkeypatch, SubStochTheory)
    result = run_check(sub, ProbeConfig(bound=2), "coproduct-universal")
    assert result.verdict == "holds-exhaustive"
    assert len(calls) == 2 * pairs


def test_coproduct_universal_composes_every_cotuple_of_a_numeric_theory(
        monkeypatch):
    # keys within a tolerance are not exact, so the uniqueness scan
    # composes each h out of A + B: 2 per pair of legs plus 2 per h
    calls = _count_composites(monkeypatch, CpsuTheory)
    result = run_check(CpsuTheory(), ProbeConfig(bound=2, samples=3),
                       "coproduct-universal")
    assert result.verdict == "holds-sampled(432)"
    assert len(calls) == 2 * result.instances


def test_a_non_unique_cotupling_replays_by_composing_both_legs_again(
        monkeypatch):
    result = run_check(_CotuplesTwice(grid=1), ProbeConfig(bound=2, seed=7),
                       "coproduct-universal")
    assert result.witness.equation == "the cotupling is unique"
    calls = _count_composites(monkeypatch, SubStochTheory)
    assert result.witness.replay()
    assert len(calls) == 4


def test_zero_laws_decide_each_pairing_with_zero_once(monkeypatch):
    # "f v 0 = f" merges the pairing that "f and 0 always merge" has just
    # decided, so each event is paired with zero once
    sub = SubStochTheory(grid=1)
    events = sum(len(sub.enumerate_hom(a, b))
                 for a in range(3) for b in range(3))
    calls = []
    pair = SubStochTheory.try_pairing

    def counted(self, fs):
        calls.append(fs)
        return pair(self, fs)
    monkeypatch.setattr(SubStochTheory, "try_pairing", counted)
    result = run_check(sub, ProbeConfig(bound=2), "assumption4-zero")
    assert result.verdict == "holds-exhaustive"
    assert len(calls) == events
