"""Constructions: partial maps over a total base, completion, quotient."""

import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from opcheck import ops
from opcheck.checker import ProbeConfig, classify
from opcheck.constructions import (
    ANCILLA_BOUND,
    PlusTheory,
    direct_sum_verify,
    par,
    plus_completion,
    quotient,
)
from opcheck.errors import (
    BoundExceeded,
    Incompatible,
    NotAPartialTest,
    NotEnumerable,
)
from opcheck.instances import CpsuTheory, MatrixTheory, PFunTheory, SubStochTheory
from opcheck.kernel import BOOLEANS
from opcheck.theoryfile import load_theory

F = Fraction
FIXTURES = Path(__file__).parent / "fixtures"


def ev(theory, dom, cod, rows):
    return theory.validate_event([[F(x) for x in r] for r in rows], dom, cod)


# -- total part and Par ----------------------------------------------------

def test_par_enumerates_only_total_payloads():
    p = par(SubStochTheory(grid=2))
    assert p.name == "par(total(substoch))"
    for f in p.enumerate_hom(2, 1):
        assert ops.is_total(f.payload)
    assert len(p.enumerate_hom(1, 1)) == 3  # rows into 1 + I summing to one


def test_par_recovers_the_base_theory():
    sub = SubStochTheory(grid=2)
    p = par(sub)
    f = ev(sub, 1, 2, [["1/2", "0"]])
    lifted = p.from_event(1, 2, f)
    assert p.to_event(lifted).payload == f.payload
    # composition in Par matches base composition of events
    g = ev(sub, 2, 1, [["1/2"], ["1"]])
    composed = p.compose(p.from_event(2, 1, g), lifted)
    assert p.to_event(composed).payload == sub.compose(g, f).payload


# -- direct-sum completion -------------------------------------------------

def test_plus_objects_and_composition():
    sub = SubStochTheory(grid=2)
    plus = plus_completion(sub)
    a, b, c = (1,), (1, 1), (2,)
    f = plus.singleton(ev(sub, 1, 2, [["1/2", "1/4"]]))
    assert f.dom == (1,) and f.cod == (2,)
    rng = random.Random(1)
    g = plus.sample_hom(c, b, rng)
    h = plus.compose(g, f)
    assert h.dom == a and h.cod == b


def test_plus_has_direct_sums():
    sub = SubStochTheory(grid=2)
    plus = plus_completion(sub)
    verdict = direct_sum_verify(plus, ((1,), (2,)))
    assert verdict["ok"], verdict["failures"]


def test_plus_pairing_concatenates():
    sub = SubStochTheory(grid=2)
    plus = plus_completion(sub)
    f = plus.singleton(ev(sub, 1, 1, [["1/2"]]))
    paired = plus.try_pairing([f, f])
    assert paired is not None
    assert paired.cod == (1, 1)
    assert plus.try_pairing([plus.singleton(ev(sub, 1, 1, [["1"]])), f]) is None
    with pytest.raises(NotAPartialTest, match="source index 0"):
        plus.validate_event([[ev(sub, 1, 1, [["1"]]), ev(sub, 1, 1, [["1/2"]])]],
                            (1,), (1, 1))


@pytest.mark.parametrize("base", [SubStochTheory(grid=1),
                                  MatrixTheory(BOOLEANS, grid=1)],
                         ids=["substoch", "mat_bool"])
def test_completion_builds_grids_whose_rows_pair(base):
    # pairing is decided only where it is asked (try_pairing, validate_event),
    # so every grid the completion builds itself must be a partial test
    plus = PlusTheory(base)
    objs = plus.probe_objects(2)
    homs = {(a, b): plus.enumerate_hom(a, b) for a in objs for b in objs}
    events = [f for fs in homs.values() for f in fs]
    built = [plus.identity(a) for a in objs] + [plus.discard(a) for a in objs]
    built += [plus.coprojection((a, b), i)
              for a in objs for b in objs for i in range(2)]
    built += [plus.compose(g, f) for f in events for c in objs
              for g in homs[(f.cod, c)]]
    built += [plus.tensor(f, g) for f in events for g in events]
    for m in built:
        for row in m.payload if m.cod else ():
            assert base.try_pairing(list(row)) is not None, m


def test_plus_zero_object_homs():
    sub = SubStochTheory(grid=2)
    plus = plus_completion(sub)
    assert len(plus.enumerate_hom((), (1,))) == 1
    assert len(plus.enumerate_hom((1,), ())) == 1


def test_completion_of_cpsu_classifies():
    # a tolerance-based base has no exact payload keys, so the checker keys
    # completed events by the base's rounded block keys
    plus = PlusTheory(CpsuTheory())
    report = classify(plus, ProbeConfig(bound=1, samples=6, seed=7))
    assert not report.any_failures
    assert len(report.flags) == 7
    assert all(v is True for v in report.flags.values()), report.flags
    # nor does the block product memoise an entry, not even the zero of an
    # empty row, whose memo key reads no base key
    assert not plus._products and not plus._canonical


def _reference_product(base, g, f):
    """The grid of ``g`` after ``f`` straight from base composes, no memo."""
    cols = list(zip(*g.payload)) if g.payload else [()] * len(g.cod)
    return [[ops.coarse_grain_all(base, x, z, [base.compose(h, e)
                                               for e, h in zip(row, col)])
             for z, col in zip(g.cod, cols)]
            for x, row in zip(f.dom, f.payload)]


@pytest.fixture(params=["substoch", "pfun", "mat_bool", "stateless"])
def memo_plus(request):
    if request.param == "substoch":
        return PlusTheory(SubStochTheory(grid=1))
    if request.param == "pfun":
        return PlusTheory(PFunTheory())
    if request.param == "mat_bool":
        return PlusTheory(MatrixTheory(BOOLEANS, grid=1))
    # objects I and X both have size 1, so their events share payloads
    return PlusTheory(load_theory(FIXTURES / "stateless.theory"))


def test_memoised_completion_matches_unmemoised_reference(memo_plus):
    plus, base = memo_plus, memo_plus.base
    objs = plus.probe_objects(2)
    homs = {(a, b): plus.enumerate_hom(a, b) for a in objs for b in objs}
    kept = {}
    for (a, b), fs in homs.items():
        for c in objs:
            for f in fs:
                for g in homs[(b, c)]:
                    h = plus.compose(g, f)
                    want = _reference_product(base, g, f)
                    assert plus.payload_key(h) == tuple(
                        tuple(base.payload_key(e) for e in row) for row in want)
                    assert [[repr(e) for e in row] for row in want] == [
                        [repr(e) for e in row] for row in h.payload]
                    for e in (e for row in h.payload for e in row):
                        # equal entries are one base event
                        assert kept.setdefault(base.morphism_key(e), e) is e
    assert plus._products and plus._canonical


def test_completion_stores_no_entry_when_the_product_raises():
    sub = SubStochTheory(grid=1)
    plus = PlusTheory(sub)
    one = sub.identity(1)
    # a row that is not a partial test: its entries do not merge
    f = plus._m((1,), (1, 1), [[one, one]])
    with pytest.raises(Incompatible):
        plus.compose(plus.discard((1, 1)), f)
    assert not plus._products and not plus._canonical


@pytest.mark.parametrize("check_id", ["lemma2.3-iii", "separation"])
@pytest.mark.parametrize("build", [PlusTheory, par],
                         ids=["plus", "par"])
def test_keyed_checks_run_over_cpsu_constructions(build, check_id):
    report = classify(build(CpsuTheory()),
                      ProbeConfig(bound=1, samples=6, seed=7), only=[check_id])
    result = report.result(check_id)
    assert result.verdict.startswith("holds-sampled("), result.verdict
    assert result.instances > 0


def test_rounded_key_nests_through_the_constructions():
    cpsu = CpsuTheory()
    f = cpsu.identity((1, 2))
    plus, partial = PlusTheory(cpsu), par(cpsu)
    lifted = partial.identity((1, 2))
    with pytest.raises(NotEnumerable):
        plus.payload_key(plus.singleton(f))
    assert plus.rounded_key(plus.singleton(f)) == ((cpsu.rounded_key(f),),)
    assert partial.rounded_key(lifted) == cpsu.rounded_key(lifted.payload)


# -- quotient --------------------------------------------------------------

def test_quotient_of_separated_theory_is_bijective():
    sub = SubStochTheory(grid=2)
    q = quotient(sub, bound=2)
    assert q.class_counts(1, 1) == [1] * 3
    assert all(n == 1 for n in q.class_counts(2, 2))


def test_quotient_operations_act_on_representatives():
    sub = SubStochTheory(grid=2)
    q = quotient(sub, bound=2)
    f = q._wrap(ev(sub, 1, 1, [["1/2"]]))
    g = q._wrap(ev(sub, 1, 1, [["1/2"]]))
    h = q.compose(g, f)
    assert sub.rounded_key(h.payload) == sub.rounded_key(
        ev(sub, 1, 1, [["1/4"]]))


def test_quotient_complement_passes_down():
    sub = SubStochTheory(grid=2)
    q = quotient(sub, bound=2)
    e = q._wrap(ev(sub, 1, 1, [["1/2"]]))
    (c,) = q.effect_complements(e)
    assert ops.coarse_grain(e, c).payload.payload == ((F(1),),)


def _reference_signature(q, f):
    """Probe statistics of ``f`` straight from base composes, no memo."""
    base = q.base
    unit = base.unit()
    ancillas = [None]
    if q.monoidal_probes:
        ancillas += [c for c in base.probe_objects(ANCILLA_BOUND)
                     if base.object_size(c) >= 1]
    out = []
    for c in ancillas:
        if c is None:
            dom, cod, probe = f.dom, f.cod, f
        else:
            dom = base.tensor_obj(f.dom, c)
            cod = base.tensor_obj(f.cod, c)
            probe = base.tensor(f, base.identity(c))
        for omega in base.enumerate_hom(unit, dom):
            mid = base.compose(probe, omega)
            for e in base.enumerate_hom(cod, unit):
                out.append(base.rounded_key(base.compose(e, mid)))
    return tuple(out)


def _assert_same_equivalence(q, events):
    """Two of ``events`` share a signature exactly when they share a
    reference signature (the values differ where the base has a basis)."""
    sigs = [q.signature(h) for h in events]
    refs = [_reference_signature(q, h) for h in events]
    for i in range(len(events)):
        for j in range(len(events)):
            assert (sigs[i] == sigs[j]) == (refs[i] == refs[j])


def _reference_classes(q, a, b):
    groups = {}
    for h in q.base.enumerate_hom(a, b):
        groups.setdefault(_reference_signature(q, h), []).append(h)
    return list(groups.values())


class _SkewedBasis(SubStochTheory):
    """Mixes the last point state and point effect of each object of size 2
    or more with the first: still a probe basis, but the basis of 2 x 2 is
    not the tensors of the bases of 2."""

    def probe_basis(self, a):
        states, effects = super().probe_basis(a)
        if a < 2:
            return states, effects
        mix = ["1/2"] + ["0"] * (a - 2) + ["1/2"]
        return (states[:-1] + [ev(self, 1, a, [mix])],
                effects[:-1] + [ev(self, a, 1, [[x] for x in mix])])


class _Keyless(SubStochTheory):
    """Substochastic matrices whose events have no exact key."""

    def payload_key(self, f):
        raise NotEnumerable("no exact key")


@pytest.fixture(params=["substoch", "substoch-monoidal", "pfun",
                        "pfun-monoidal", "mat_int-monoidal", "skewed-monoidal",
                        "stateless"])
def memo_quotient(request):
    name = request.param.removesuffix("-monoidal")
    if name == "pfun":
        base = PFunTheory()
    elif name == "substoch":
        base = SubStochTheory(grid=2)
    elif name == "skewed":
        base = _SkewedBasis(grid=2)
    else:
        base = load_theory(FIXTURES / f"{name}.theory")
    return quotient(base, bound=2, monoidal=request.param.endswith("monoidal"))


def test_memoised_quotient_matches_unmemoised_reference(memo_quotient):
    q = memo_quotient
    probes = q.probe_objects(2)
    for a in probes:
        for b in probes:
            expected = _reference_classes(q, a, b)
            # representatives first, so later queries read a built partition
            reps = q.enumerate_hom(a, b)
            assert [r.payload for r in reps] == [m[0] for m in expected]
            assert all(r.dom == a and r.cod == b for r in reps)
            assert q.class_counts(a, b) == sorted(
                (len(m) for m in expected), reverse=True)
            assert q.is_separated(a, b)
            _assert_same_equivalence(q, q.base.enumerate_hom(a, b))
            for members in expected:
                for h in members:
                    assert q.canonical_representative(h) == members[0]
    assert q._signatures and q._rows and q._partitions


def test_memoised_quotient_keeps_off_grid_events():
    sub = SubStochTheory(grid=2)
    q = quotient(sub, bound=2)
    quarter = ev(sub, 1, 1, [["1/4"]])
    assert q.canonical_representative(quarter) is quarter
    _assert_same_equivalence(q, [quarter, *sub.enumerate_hom(1, 1)])
    half = ev(sub, 1, 1, [["1/2"]])
    assert q.canonical_representative(half).payload == half.payload
    assert not q.equal(q._wrap(quarter), q._wrap(half))


@pytest.mark.parametrize("built_first", [False, True])
def test_memoised_quotient_enumeration_respects_the_callers_cap(built_first):
    q = quotient(SubStochTheory(grid=2), bound=2)
    size = len(q.base.enumerate_hom(2, 2))
    if built_first:
        assert len(q.classes(2, 2)) == size
    with pytest.raises(BoundExceeded):
        q.enumerate_hom(2, 2, size - 1)
    assert len(q.enumerate_hom(2, 2, size)) == size
    with pytest.raises(BoundExceeded):
        q.enumerate_hom(2, 2, size - 1)
    assert len(q.enumerate_hom(2, 2)) == size


def test_quotient_without_exact_keys_is_signed_afresh():
    q = quotient(CpsuTheory(), bound=2, samples=3)
    f = q.identity((2,))
    assert q.equal(q.compose(f, f), f)
    with pytest.raises(NotEnumerable):
        q.enumerate_hom((2,), (2,))
    first = q.signature(f.payload)
    assert first and q.signature(f.payload) == first
    assert not q._signatures and not q._rows and not q._partitions


def test_a_basis_that_is_no_product_basis_keeps_its_ancillas():
    q = quotient(_SkewedBasis(grid=2), bound=2, monoidal=True)
    for a, b in product(range(3), repeat=2):
        assert q._ancillas(a, b) == ([None, 2] if 2 in (a, b) else [None])


@pytest.mark.parametrize("make", [lambda: _Keyless(grid=2), CpsuTheory],
                         ids=["keyless-substoch", "cpsu"])
def test_a_base_without_exact_keys_keeps_every_ancilla(make):
    base = make()
    q = quotient(base, bound=2, samples=3, monoidal=True)
    ancillas = [None] + [c for c in base.probe_objects(ANCILLA_BOUND)
                         if base.object_size(c) >= 1]
    for a, b in product(base.probe_objects(2), repeat=2):
        assert q._ancillas(a, b) == ancillas


# -- round trip through the total part --------------------------------------

def test_partial_form_survives_the_par_construction():
    partial_form = ["def3.3-c1", "def3.3-c2", "def3.3-c3", "def3.3-c4",
                    "def3.3-c5"]
    total_form = ["def3.1-c1", "def3.1-c2", "lemma3.2"]
    cfg = ProbeConfig(bound=2, samples=20)
    sub = SubStochTheory(grid=2)
    report = classify(sub, cfg, only=total_form)
    assert len(report.results) == 3
    assert all(r.verdict == "holds-exhaustive" for r in report.results)
    p = par(sub)
    report = classify(p, cfg, only=partial_form)
    verdicts = {r.id: r.verdict for r in report.results}
    assert len(verdicts) == 5
    for cid in ("def3.3-c1", "def3.3-c2", "def3.3-c3"):
        assert verdicts[cid] == "holds-exhaustive"
    # Par of a total category carries no tensor, so the monoidal conditions
    # are reported as out of scope rather than silently passed
    assert verdicts["def3.3-c4"] == "inconclusive(not-monoidal)"
    report = classify(p, cfg, only=total_form)
    assert len(report.results) == 3
    assert all(r.verdict == "holds-exhaustive" for r in report.results)

