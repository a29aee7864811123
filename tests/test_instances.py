"""The four concrete instances: enumeration counts, validation, structure."""

import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from opcheck import ops
from opcheck.blocks import BlockMatrices
from opcheck.constructions import quotient
from opcheck.errors import (
    BoundExceeded,
    ChoiNotPositive,
    CompositionError,
    EntryOutOfRange,
    NotAvailable,
    NotSubUnital,
    RowSumExceedsOne,
    ValidationError,
)
from opcheck.instances import (
    CpsuTheory,
    FinHilbTheory,
    MatrixTheory,
    PFunTheory,
    SubStochTheory,
)
from opcheck.instances import cpsu as cpsu_module
from opcheck.kernel import BOOLEANS, INTEGERS, choi_positivity
from opcheck.theory import Theory

F = Fraction


# -- partial functions -----------------------------------------------------
# An object is the size of a set, and an event the 0/1 matrix of a partial
# function: row x has its 1 in column y when x goes to y, and none when x
# is undefined.

def test_pfun_composition_is_relational():
    pfun = PFunTheory()
    f = pfun.validate_event([(0, 1), (0, 0)], 2, 2)  # x1 -> x2
    g = pfun.validate_event([(0, 0), (1, 0)], 2, 2)  # x2 -> x1
    h = pfun.compose(g, f)
    assert h.payload == ((1, 0), (0, 0))              # x1 -> x1
    assert all(type(x) is int for row in h.payload for x in row)


def test_pfun_complement_is_undefined_set():
    pfun = PFunTheory()
    e = pfun.validate_event([(1,), (0,)], 2, pfun.unit())  # defined on x1
    (c,) = pfun.effect_complements(e)
    assert c.payload == ((0,), (1,))                       # defined on x2


def test_pfun_tensor_is_product():
    pfun = PFunTheory()
    f = pfun.validate_event([(0, 1), (0, 0)], 2, 2)  # x1 -> x2
    g = pfun.validate_event([(0, 1), (1, 0)], 2, 2)  # the swap
    fg = pfun.tensor(f, g)
    assert fg.dom == fg.cod == pfun.tensor_obj(2, 2) == 4
    # (x, p) goes to (f(x), g(p)) where f(x) is defined: (x1, x1) goes to
    # (x2, x2) and (x1, x2) to (x2, x1); (x2, _) goes nowhere
    assert fg.payload == ((0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 0, 0),
                          (0, 0, 0, 0))
    assert ops.is_total(pfun.tensor(pfun.identity(2), pfun.identity(1)))


def test_pfun_hom_count_matches_enumeration():
    pfun = PFunTheory()
    assert pfun.hom_count(3, 1) == 2 ** 3
    assert len(pfun.enumerate_hom(3, 1)) == 8
    assert pfun.hom_count(2, 3) == len(pfun.enumerate_hom(2, 3)) == 4 ** 2


# -- semiring matrices -----------------------------------------------------

def test_matrix_validation_errors():
    sub = SubStochTheory(grid=4)
    with pytest.raises(RowSumExceedsOne):
        sub.validate_event([[F(3, 4), F(1, 2)]], 1, 2)
    with pytest.raises(EntryOutOfRange):
        sub.validate_event([[F(3, 2)]], 1, 1)
    with pytest.raises(ValidationError):
        sub.validate_event([[F(1)]], 2, 1)


def test_matrix_enumeration_counts():
    sub = SubStochTheory(grid=2)
    # rows of length 1 over {0, 1/2, 1}: all three are sub-unit
    assert sub.hom_count(1, 1) == 3
    # rows of length 2 with sum at most one: (0,0),(0,1/2),(1/2,0),
    # (0,1),(1,0),(1/2,1/2)
    assert sub.hom_count(1, 2) == 6
    assert len(sub.enumerate_hom(2, 1)) == 9


def test_each_homset_is_enumerated_once():
    """A homset is built on its first enumeration and the same tuple is
    returned after; a cap below its size still raises.  The grid is fixed
    when the theory is built, and a theory on another grid has its own
    homsets."""
    sub = SubStochTheory(grid=2)
    homs = sub.enumerate_hom(2, 2, 100)
    assert isinstance(homs, tuple) and len(homs) == 36
    assert sub.enumerate_hom(2, 2) is homs
    assert sub.enumerate_hom(2, 2, 36) is homs
    with pytest.raises(BoundExceeded):
        sub.enumerate_hom(2, 2, 35)
    with pytest.raises(AttributeError):
        sub.grid = 3
    assert len(SubStochTheory(grid=3).enumerate_hom(2, 2)) == 100
    assert sub.enumerate_hom(2, 2) is homs


def test_integer_matrices_include_negatives():
    mat = MatrixTheory(INTEGERS, grid=1)
    payloads = {f.payload for f in mat.enumerate_hom(1, 1)}
    assert ((-1,),) in payloads and ((1,),) in payloads


def test_boolean_matrix_composition_uses_or():
    matb = MatrixTheory(BOOLEANS)
    f = matb.validate_event([[1, 1]], 1, 2)
    g = matb.validate_event([[1], [1]], 2, 1)
    assert matb.compose(g, f).payload == ((1,),)


def test_matrix_tensor_is_kronecker():
    sub = SubStochTheory(grid=2)
    f = sub.validate_event([[F(1, 2)]], 1, 1)
    g = sub.identity(2)
    fg = sub.tensor(f, g)
    assert fg.payload == ((F(1, 2), F(0)), (F(0), F(1, 2)))


# -- completely positive maps ----------------------------------------------

def test_cpsu_identity_is_total():
    cpsu = CpsuTheory()
    for obj in [(2,), (1, 2), (3,)]:
        assert ops.is_total(cpsu.identity(obj))


def test_cpsu_compose_identity():
    cpsu = CpsuTheory()
    rng = __import__("random").Random(0)
    f = cpsu.sample_hom((2,), (2, 1), rng)
    assert cpsu.equal(cpsu.compose(cpsu.identity((2, 1)), f), f)
    assert cpsu.equal(cpsu.compose(f, cpsu.identity((2,))), f)


def test_cpsu_transpose_is_rejected():
    cpsu = CpsuTheory()
    # the transpose map on a qubit is positive but not completely positive
    c = np.zeros((2, 2, 2, 2), dtype=complex)
    for k in range(2):
        for l in range(2):
            c[k, l, l, k] = 1.0  # sends E_kl to E_lk
    with pytest.raises(ChoiNotPositive):
        cpsu.validate_event([[c]], (2,), (2,))


def test_cpsu_super_unital_rejected():
    cpsu = CpsuTheory()
    with pytest.raises(NotSubUnital):
        cpsu.validate_event([[2 * cpsu.identity((2,)).payload[0][0]]],
                            (2,), (2,))


def test_cpsu_discard_and_pairing():
    cpsu = CpsuTheory()
    top = cpsu.discard((2,))
    assert ops.is_total(top)
    (c,) = cpsu.effect_complements(top)
    assert cpsu.equal(c, cpsu.zero_morphism((2,), cpsu.unit()))
    halves = cpsu._m((2,), (1,), [[0.5 * np.eye(2).reshape(1, 2, 1, 2)]])
    assert cpsu.try_pairing([halves, halves]) is not None
    assert cpsu.try_pairing([top, halves]) is None


def _reference_sample(a, b, rng):
    """The blocks of ``CpsuTheory.sample_hom``, drawn block by block and
    scaled through the eigensolver."""
    np_rng = np.random.default_rng(rng.getrandbits(64))
    blocks = []
    for d in a:
        row = []
        for e in b:
            k1 = np_rng.normal(size=(e, d)) + 1j * np_rng.normal(size=(e, d))
            k2 = np_rng.normal(size=(e, d)) + 1j * np_rng.normal(size=(e, d))
            row.append(np.einsum("ka,lb->kalb", k1.conj(), k1)
                       + np.einsum("ka,lb->kalb", k2.conj(), k2))
        blocks.append(row)
    for i, d in enumerate(a):
        img = np.zeros((d, d), dtype=complex)
        for c in blocks[i]:
            img += np.einsum("kakb->ab", c)
        top = float(np.linalg.eigvalsh(-img).min())
        scale = np_rng.uniform(0.1, 1.0) / max(-top, 1e-12)
        blocks[i] = [c * scale for c in blocks[i]]
    return blocks


def test_cpsu_sample_hom_matches_the_block_by_block_draws():
    cpsu = CpsuTheory()
    objs = cpsu.probe_objects(2) + [(3,), (2, 1)]
    for seed in range(4):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for a, b in product(objs, objs):
            f = cpsu.sample_hom(a, b, rng)
            want = _reference_sample(a, b, ref_rng)
            assert len(f.payload) == len(want)
            for row, ref_row in zip(f.payload, want):
                assert len(row) == len(ref_row)
                assert all(np.array_equal(c, ref) for c, ref in zip(row, ref_row))


def _reference_images(f):
    """The unital image of each entry of ``f``, recomputed from its payload."""
    return [[np.einsum("kakb->ab", c) for c in row] for row in f.payload]


def _reference_sub_unital(cpsu, f):
    """Whether every row of ``f``'s images, recomputed from its payload and
    summed in row order, lies below the identity."""
    for d, row in zip(f.dom, _reference_images(f)):
        img = np.zeros((d, d), dtype=complex)
        for im in row:
            img += im
        if not choi_positivity(np.eye(d, dtype=complex) - img, cpsu.tol):
            return False
    return True


def _assert_images_cached(f):
    want = _reference_images(f)
    assert [len(row) for row in f.form] == [len(row) for row in want]
    for row, ref_row in zip(f.form, want):
        assert all(np.array_equal(im, ref) for im, ref in zip(row, ref_row))


def test_cpsu_pairing_agrees_with_images_recomputed_from_payloads():
    cpsu = CpsuTheory()
    objs = cpsu.probe_objects(2)
    rng = random.Random(3)
    verdicts = set()
    for a, b, c in product(objs, objs, objs):
        for _ in range(3):
            f, g = cpsu.sample_hom(a, b, rng), cpsu.sample_hom(a, c, rng)
            # the grids side by side, before any sub-unitality decision
            side = BlockMatrices.try_pairing(cpsu, [f, g])
            paired = cpsu.try_pairing([f, g])
            verdicts.add(paired is not None)
            _assert_images_cached(f)
            assert (paired is not None) == _reference_sub_unital(cpsu, side)
            if paired is None:
                continue
            assert cpsu.equal(paired, side, tol=0)
            _assert_images_cached(paired)
            # a pairing that reuses the accepted event's cached images
            again = cpsu.try_pairing([paired, f])
            assert (again is not None) == _reference_sub_unital(
                cpsu, BlockMatrices.try_pairing(cpsu, [paired, f]))
            # derived events compute their own images, on first use
            back = cpsu.sample_hom(b, a, rng)
            assert cpsu.compose(back, f).form is None
            assert cpsu.compose(f, cpsu.identity(a)).form is None
            assert cpsu.tensor(paired, g).form is None
            effect = cpsu.compose(cpsu.discard(paired.cod), paired)
            assert effect.form is None
            cpsu.try_pairing([effect])  # fills the effect's images
            _assert_images_cached(effect)
            assert all(e.form is None for e in cpsu.effect_complements(effect))
    assert verdicts == {True, False}


def _frozen(f):
    return all(not c.flags.writeable and c.flags.c_contiguous
               and c.dtype == complex for row in f.payload for c in row)


def _assert_table_matches_try_pairing(cpsu, fs, gs):
    table = [list(row) for row in cpsu.pairing_table(fs, gs)]
    assert table == [[cpsu.try_pairing([f, g]) is not None for g in gs]
                     for f in fs]
    return {x for row in table for x in row}


def _scaled(cpsu, g, s):
    return cpsu._m(g.dom, g.cod, [[cpsu_module._freeze(s * blk) for blk in row]
                                  for row in g.payload])


def test_cpsu_pairing_table_agrees_with_try_pairing_on_sampled_homsets():
    cpsu = CpsuTheory()
    objs = cpsu.probe_objects(2)
    rng = random.Random(5)
    verdicts = set()
    for a, b, c in product(objs, objs, objs):
        # fs and gs have different codomains unless b == c; a, b or c may
        # be the zero object ()
        fs = [cpsu.sample_hom(a, b, rng) for _ in range(3)]
        gs = [cpsu.sample_hom(a, c, rng) for _ in range(4)]
        verdicts |= _assert_table_matches_try_pairing(cpsu, fs, gs)
        # halved events pair more often, so both verdicts show up
        halves = [_scaled(cpsu, g, 0.5) for g in gs]
        verdicts |= _assert_table_matches_try_pairing(cpsu, fs, halves)
        assert [list(row) for row in cpsu.pairing_table(fs, [])] == [[]] * 3
        assert list(cpsu.pairing_table([], gs)) == []
    assert verdicts == {True, False}


def _least_defect_eigenvalue(cpsu, f, g):
    (row_f,), (row_g,) = cpsu._images(f), cpsu._images(g)
    d = f.dom[0]
    defect = np.eye(d) - sum(row_f) - sum(row_g)
    return np.linalg.eigvalsh((defect + defect.conj().T) / 2).min()


def _near_the_tolerance(cpsu, f, g, pairs):
    """``g`` scaled so that the least eigenvalue of 1 - U_f - U_g sits just
    inside -tol when ``pairs``, else just outside, on ``f``'s one domain
    block."""
    target = -cpsu.tol + (1e-12 if pairs else -1e-12)
    lo, hi = 0.0, 10.0  # the least eigenvalue falls as g grows
    for _ in range(200):
        mid = (lo + hi) / 2
        if _least_defect_eigenvalue(cpsu, f, _scaled(cpsu, g, mid)) > target:
            lo = mid
        else:
            hi = mid
    near = _scaled(cpsu, g, lo if pairs else hi)
    assert abs(_least_defect_eigenvalue(cpsu, f, near) - target) < 1e-13
    assert (cpsu.try_pairing([f, near]) is not None) is pairs
    return near


@pytest.mark.parametrize("a,b,c", [((1,), (1,), (2,)), ((2,), (1, 1), (2,))])
def test_cpsu_pairing_table_agrees_with_try_pairing_at_the_tolerance(a, b, c):
    # on one d = 1 or d = 2 domain block
    cpsu = CpsuTheory()
    rng = random.Random(9)
    f, g = cpsu.sample_hom(a, b, rng), cpsu.sample_hom(a, c, rng)
    for pairs in (True, False):
        near = _near_the_tolerance(cpsu, f, g, pairs)
        assert _assert_table_matches_try_pairing(cpsu, [f], [near]) == {pairs}
        assert _assert_table_matches_try_pairing(cpsu, [f, f], [g, near, g]) \
            >= {pairs}


def _assert_merges_match_the_default(cpsu, fs, gs):
    """cpsu's merge table of ``fs`` and ``gs`` has None where the default's
    has, and elsewhere frozen merges equal to its at tolerance 0 that keep
    each entry the default takes from ``fs`` or ``gs`` as it is."""
    got = [list(row) for row in cpsu.merge_table(fs, gs)]
    want = [list(row) for row in Theory.merge_table(cpsu, fs, gs)]
    assert ([[m is None for m in row] for row in got]
            == [[m is None for m in row] for row in want])
    for f, row, ref_row in zip(fs, got, want):
        for g, m, ref in zip(gs, row, ref_row):
            if m is None:
                continue
            assert _frozen(m) and cpsu.equal(m, ref, tol=0)
            for cells in zip(*map(_cells, (m, ref, f, g))):
                kept = cells[1] is cells[2] or cells[1] is cells[3]
                assert (cells[0] is cells[1]) is kept
    return {m is not None for row in got for m in row}


def _cells(f):
    return [c for row in f.payload for c in row]


def _sparse(cpsu, f):
    """``f`` with every other entry replaced by the shared zero block."""
    return cpsu._m(f.dom, f.cod, [
        [c if (i + k) % 2 else cpsu_module._block_zero(x, z)
         for k, (z, c) in enumerate(zip(f.cod, row))]
        for i, (x, row) in enumerate(zip(f.dom, f.payload))])


def test_cpsu_merge_table_agrees_with_the_default_on_sampled_homsets():
    cpsu = CpsuTheory()
    objs = cpsu.probe_objects(2)
    rng = random.Random(5)
    verdicts = set()
    for a, b in product(objs, objs):
        # a or b may be the zero object (); the zero morphism, an identity
        # and events with shared zero entries merge by keeping the other
        # side's entries
        fs = cpsu.sample_homset(a, b, rng, 3)
        gs = cpsu.sample_homset(a, b, rng, 4) + [cpsu.zero_morphism(a, b)]
        if a == b:
            fs.append(cpsu.identity(a))
        verdicts |= _assert_merges_match_the_default(cpsu, fs, gs)
        # halved events pair more often, so both verdicts show up
        halves = [_sparse(cpsu, _scaled(cpsu, g, 0.5)) for g in gs]
        verdicts |= _assert_merges_match_the_default(cpsu, fs, halves)
        verdicts |= _assert_merges_match_the_default(
            cpsu, [_sparse(cpsu, f) for f in fs], halves)
        assert [list(row) for row in cpsu.merge_table(fs, [])] == [[]] * len(fs)
        assert list(cpsu.merge_table([], gs)) == []
    assert verdicts == {True, False}


@pytest.mark.parametrize("a,b", [((1,), (2,)), ((2,), (1, 1))])
def test_cpsu_merge_table_agrees_with_the_default_at_the_tolerance(a, b):
    cpsu = CpsuTheory()
    f, g = cpsu.sample_homset(a, b, random.Random(9), 2)
    for pairs in (True, False):
        near = _near_the_tolerance(cpsu, f, g, pairs)
        assert _assert_merges_match_the_default(cpsu, [f], [near]) == {pairs}
        assert _assert_merges_match_the_default(cpsu, [f, f], [g, near, g]) \
            >= {pairs}


def test_cpsu_sample_homset_is_n_draws_of_sample_hom():
    cpsu = CpsuTheory()
    objs = cpsu.probe_objects(2) + [(3,), (2, 1)]
    for n in (1, 3, 8):
        rng, ref_rng = random.Random(n), random.Random(n)
        for a, b in product(objs, objs):
            got = cpsu.sample_homset(a, b, rng, n)
            want = [cpsu.sample_hom(a, b, ref_rng) for _ in range(n)]
            assert rng.getstate() == ref_rng.getstate()
            assert len(got) == n and all(map(_frozen, got))
            for f, ref in zip(got, want):
                assert (f.dom, f.cod) == (ref.dom, ref.cod)
                assert ([c.tobytes() for c in _cells(f)]
                        == [c.tobytes() for c in _cells(ref)])


def test_cpsu_reuses_frozen_entries_and_freezes_every_entry(monkeypatch):
    cpsu = CpsuTheory()
    rng = random.Random(5)
    a, b, c = (1, 2), (2,), (1, 1)
    f, g = cpsu.sample_hom(a, b, rng), cpsu.sample_hom(a, c, rng)
    h = cpsu.sample_hom(c, b, rng)
    zero = cpsu.zero_morphism(a, c)
    for d in a:
        cpsu_module._eye(d)  # the shared identities, built once per process
    # a cotuple and a pairing of frozen entries freeze nothing again
    copies = []
    real = np.ascontiguousarray
    monkeypatch.setattr(np, "ascontiguousarray",
                        lambda *args, **kw: copies.append(1) or real(*args, **kw))
    cotuple = cpsu.cotuple((a, c), [f, h])
    paired = cpsu.try_pairing([f, zero])
    monkeypatch.undo()
    assert copies == []
    assert all(x is y for got, want in zip(cotuple.payload, f.payload + h.payload)
               for x, y in zip(got, want))
    assert all(x is y for got, fr, zr in zip(paired.payload, f.payload, zero.payload)
               for x, y in zip(got, fr + zr))
    # entries are frozen where they are made: a pairing, a cotuple and a
    # product of frozen events freeze no entry that is frozen already
    refrozen = []
    real_freeze = cpsu_module._freeze

    def freeze(arr):
        if not arr.flags.writeable:
            refrozen.append(arr.shape)
        return real_freeze(arr)
    monkeypatch.setattr(cpsu_module, "_freeze", freeze)
    products = [cpsu.try_pairing([f, zero]), cpsu.cotuple((a, c), [f, h]),
                cpsu.compose(h, g), cpsu.compose(cotuple, cpsu.coprojection((a, c), 1)),
                cpsu.compose(cpsu.identity(b), f), cpsu.compose(f, cpsu.identity(a))]
    monkeypatch.undo()
    assert refrozen == []
    effect = cpsu.compose(cpsu.discard(b), f)
    mine = [[e.copy() for e in row] for row in f.payload]
    events = [f, g, h, cotuple, zero, paired, effect, *products,
              cpsu.identity(a), cpsu.coprojection((a, c), 1), cpsu.discard(a),
              cpsu.tensor(f, g), cpsu.compose(h, g), cpsu.unitor_left(a),
              cpsu.validate_event(f.payload, a, b),
              cpsu.validate_event(mine, a, b),
              cpsu.sample_hom((), b, rng), cpsu.sample_hom(a, (), rng),
              ops.coarse_grain(f, cpsu.zero_morphism(a, b)),
              ops.total_extension(f), ops.projection(cpsu, (a, c), 0),
              ops.codiagonal(cpsu, 2, a),
              *cpsu.effect_complements(effect)]
    assert all(_frozen(e) for e in events)
    # validation freezes its own copies, not the caller's arrays
    assert all(e.flags.writeable for row in mine for e in row)


def test_cpsu_samples_an_empty_sided_homset_as_its_one_member(monkeypatch):
    cpsu = CpsuTheory()

    def no_numpy_draws(*args, **kw):
        raise AssertionError("an empty-sided homset needs no numpy draws")
    monkeypatch.setattr(np.random, "default_rng", no_numpy_draws)
    for a, b in [((), ()), ((), (1, 2)), ((2,), ()), ((1, 1), ())]:
        rng, ref = random.Random(9), random.Random(9)
        f = cpsu.sample_hom(a, b, rng)
        ref.getrandbits(64)  # the one draw, which keeps later draws in step
        assert rng.getstate() == ref.getstate()
        zero = cpsu.zero_morphism(a, b)
        assert (f.dom, f.cod, f.payload) == (zero.dom, zero.cod, zero.payload)


def _reference_product(g, f):
    """The blocks of ``g`` after ``f``, each summed from zeros over every
    ``j``, shared blocks included."""
    cols = list(zip(*g.payload)) if g.payload else [()] * len(g.cod)
    out = []
    for x, row in zip(f.dom, f.payload):
        out_row = []
        for z, col in zip(g.cod, cols):
            acc = np.zeros((z, x, z, x), dtype=complex)
            for fj, gj in zip(row, col):
                acc += np.einsum("pkql,kalb->paqb", gj, fj)
            out_row.append(acc)
        out.append(out_row)
    return out


def _assert_blocks_equal(got, want):
    # np.array_equal compares with ==, so 0.0 and -0.0 agree
    assert [len(row) for row in got] == [len(row) for row in want]
    for row, ref_row in zip(got, want):
        assert all(np.array_equal(c, ref) for c, ref in zip(row, ref_row))


def _halved(cpsu, f):
    return cpsu.validate_event([[0.5 * c for c in row] for row in f.payload],
                               f.dom, f.cod)


def test_cpsu_products_agree_with_the_sum_over_every_block():
    cpsu = CpsuTheory()
    objs = cpsu.probe_objects(2) + [(3,), (2, 1)]
    rng = random.Random(7)
    pool = [cpsu.identity(a) for a in objs]
    for a, b in product(objs, objs):
        pool += [cpsu.sample_hom(a, b, rng), cpsu.zero_morphism(a, b),
                 # numerically zero, but not built from the shared blocks
                 cpsu._m(a, b, [[np.zeros((e, d, e, d)) for e in b]
                                for d in a])]
    merges = []
    for a, c in product(objs, objs):
        summands = (a, c)
        ac = cpsu.coproduct(summands)
        pool += [cpsu.identity(ac),
                 cpsu.coprojection(summands, 0), cpsu.coprojection(summands, 1),
                 ops.projection(cpsu, summands, 0),
                 ops.projection(cpsu, summands, 1)]
        for b in objs:
            pool += [cpsu.cotuple(summands, [cpsu.sample_hom(a, b, rng),
                                             cpsu.zero_morphism(c, b)]),
                     cpsu.cotuple(summands, [cpsu.zero_morphism(a, b),
                                             cpsu.sample_hom(c, b, rng)])]
        if a == c:
            pool.append(ops.codiagonal(cpsu, 2, a))
        f = _halved(cpsu, cpsu.sample_hom(a, c, rng))
        g = _halved(cpsu, cpsu.sample_hom(a, c, rng))
        merges.append((f, g))
    outgoing = {}
    for g in pool:
        outgoing.setdefault(g.dom, []).append(g)
    pairs = [(g, f) for f in pool for g in outgoing.get(f.cod, ())]
    assert len(pairs) > 5000
    for g, f in pairs:
        _assert_blocks_equal(cpsu.compose(g, f).payload,
                             _reference_product(g, f))
    for f, g in merges:
        paired = BlockMatrices.try_pairing(cpsu, [f, g])
        _assert_blocks_equal(
            ops.coarse_grain(f, g).payload,
            _reference_product(ops.codiagonal(cpsu, 2, f.cod), paired))


def test_cpsu_shares_its_zero_and_identity_blocks(monkeypatch):
    cpsu = CpsuTheory()
    rng = random.Random(11)
    a, b, c = (1, 2), (2,), (2, 1)
    shared = {id(cpsu_module._block_identity(x)) for x in (1, 2)}
    shared |= {id(cpsu_module._block_zero(x, y))
               for x, y in product((1, 2), (1, 2))}
    for event in [cpsu.zero_morphism(a, c), cpsu.identity(a),
                  cpsu.coprojection((a, c), 1), ops.codiagonal(cpsu, 2, a)]:
        for entry in (e for row in event.payload for e in row):
            assert id(entry) in shared
            with pytest.raises(ValueError):
                entry += 1
    assert (cpsu.zero_morphism(a, c).payload[1][0]
            is cpsu.zero_morphism(b, b).payload[0][0])
    # a product with a coprojection selects the cotupled event's entries
    f, g = cpsu.sample_hom(a, b, rng), cpsu.sample_hom(c, b, rng)
    cotuple = cpsu.cotuple((a, c), [f, g])
    for i, h in enumerate([f, g]):
        got = cpsu.compose(cotuple, cpsu.coprojection((a, c), i))
        assert all(x is y for got_row, row in zip(got.payload, h.payload)
                   for x, y in zip(got_row, row))
    # merging two events whose images are known adds their entries, and
    # makes no einsum call
    f = _halved(cpsu, cpsu.sample_hom(a, c, rng))
    g = _halved(cpsu, cpsu.sample_hom(a, c, rng))
    assert cpsu.try_pairing([f, g]) is not None
    calls = []
    real = np.einsum
    monkeypatch.setattr(np, "einsum",
                        lambda *args, **kw: calls.append(1) or real(*args, **kw))
    merged = ops.coarse_grain(f, g)
    monkeypatch.undo()
    assert calls == []
    _assert_blocks_equal(merged.payload,
                         [[x + y for x, y in zip(rf, rg)]
                          for rf, rg in zip(f.payload, g.payload)])


def test_cpsu_rounded_key_ignores_the_sign_of_zero_and_tolerance_noise():
    cpsu = CpsuTheory()
    key = cpsu.entries.rounded_key
    signed = np.array([complex(0.0, -0.0), complex(-0.0, 0.0), 0.25, 0.5j])
    unsigned = np.array([0.0, 0.0, 0.25, 0.5j])
    assert key(signed.reshape(1, 2, 1, 2)) == key(unsigned.reshape(1, 2, 1, 2))
    # entries far from a rounding boundary that differ within tol share a key
    payload = np.array([[0.25, 0.125 + 0.0625j], [0.125 - 0.0625j, 0.5]])
    f = cpsu.validate_event([[payload.reshape(1, 2, 1, 2)]], (2,), (1,))
    g = cpsu.validate_event([[(payload + 3e-10).reshape(1, 2, 1, 2)]],
                            (2,), (1,))
    assert cpsu.equal(f, g) and f.payload[0][0] is not g.payload[0][0]
    assert cpsu.rounded_key(f) == cpsu.rounded_key(g)
    h = cpsu.validate_event([[(payload + 1e-3).reshape(1, 2, 1, 2)]],
                            (2,), (1,))
    assert cpsu.rounded_key(h) != cpsu.rounded_key(f)


def _assert_outcome_keys_agree(th, fs, states, effects):
    """``th.outcome_key`` against ``Theory.outcome_key``, which composes
    each outcome: the same rounded outcomes, byte for byte, and the same
    equal keys between every two events of ``fs``."""
    got = [th.outcome_key(f, states, effects) for f in fs]
    want = [Theory.outcome_key(th, f, states, effects) for f in fs]
    # each composed outcome is a 1-by-1 grid, keyed by its one entry
    assert got == [b"".join(cell for ((cell,),) in key) for key in want]
    for i, j in product(range(len(fs)), repeat=2):
        assert (got[i] == got[j]) == (want[i] == want[j])


@pytest.mark.parametrize("kind,raw", [(CpsuTheory, False), (CpsuTheory, True),
                                      (FinHilbTheory, False)])
def test_cpsu_outcome_keys_agree_with_the_composed_outcomes(kind, raw):
    th = kind()
    if raw:
        # unrounded bits, so the stacked sums must run in _dot's order;
        # three blocks on a side make that order matter
        th.entries.rounded_key = lambda c: (c + 0.0).tobytes()
    rng = random.Random(7)
    unit = th.unit()
    objs = th.probe_objects(2)
    if kind is CpsuTheory:
        objs += [(1, 1, 1), (2, 1)]
    for a, b in product(objs, objs):
        # a or b may be (), (1, 1) or (2,); zero, identity, coprojection
        # and codiagonal blocks are shared, so _dot skips or passes them on
        states = [th.sample_hom(unit, a, rng) for _ in range(3)]
        states.append(th.zero_morphism(unit, a))
        if a == unit:
            states.append(th.identity(unit))
        if a == (1, 1):
            states.append(th.coprojection((unit, unit), 1))
        effects = [th.sample_hom(b, unit, rng) for _ in range(4)]
        effects.append(th.discard(b))
        if b == (1, 1):
            effects.append(ops.codiagonal(th, 2, unit))
        f = th.sample_hom(a, b, rng)
        fs = [f, th.zero_morphism(a, b), th.zero_morphism(a, b),
              # numerically zero, but not built from the shared blocks
              th._m(a, b, [[cpsu_module._freeze(np.zeros((e, d, e, d)))
                            for e in b] for d in a]),
              _scaled(th, f, 1 + 1e-12), th.sample_hom(a, b, rng)]
        if a == b:
            fs.append(th.identity(a))
        for ss, es in [(states, effects), ([], effects), (states, []),
                       ([], [])]:
            _assert_outcome_keys_agree(th, fs, ss, es)


def test_cpsu_outcome_key_raises_where_compose_raises():
    cpsu = CpsuTheory()
    rng = random.Random(3)
    f = cpsu.sample_hom((2,), (1, 1), rng)
    state = cpsu.sample_hom((1,), (2,), rng)
    effect = cpsu.sample_hom((1, 1), (1,), rng)
    wrong_state = cpsu.sample_hom((1,), (1, 1), rng)
    wrong_effect = cpsu.sample_hom((2,), (1,), rng)
    for states, effects in [([state, wrong_state], [effect]),
                            ([wrong_state], []),
                            ([state], [effect, wrong_effect])]:
        with pytest.raises(CompositionError) as got:
            cpsu.outcome_key(f, states, effects)
        with pytest.raises(CompositionError) as want:
            Theory.outcome_key(cpsu, f, states, effects)
        assert str(got.value) == str(want.value)
    # without states no outcome is composed, so no effect is checked
    assert cpsu.outcome_key(f, [], [wrong_effect]) == b""
    assert Theory.outcome_key(cpsu, f, [], [wrong_effect]) == ()


def test_finhilb_has_no_coproducts():
    fh = FinHilbTheory()
    with pytest.raises(NotAvailable):
        fh.coproduct(((2,), (2,)))
    with pytest.raises(NotAvailable):
        fh.zero()
    assert fh.probe_objects(3) == [(1,), (2,), (3,)]


def test_finhilb_direct_sum_decision():
    fh = FinHilbTheory()
    exists, reason = fh.direct_sum_decision(((2,), (2,)), (4,))
    assert not exists
    assert "rank" in reason
    exists, _ = fh.direct_sum_decision(((2,),), (2,))
    assert exists


# -- probe bases -----------------------------------------------------------

BASIS_THEORIES = {
    "substoch-grid1": lambda: SubStochTheory(grid=1),
    "substoch-grid2": lambda: SubStochTheory(grid=2),
    "mat_bool": lambda: MatrixTheory(BOOLEANS),
    "mat_int": lambda: MatrixTheory(INTEGERS, grid=1),
    "pfun": PFunTheory,
}


@pytest.mark.parametrize("monoidal", [False, True])
@pytest.mark.parametrize("name", sorted(BASIS_THEORIES))
def test_probe_basis_groups_events_as_every_probe_does(name, monoidal):
    # the objects the quotient probes: the probe objects, and with monoidal
    # probes each of them tensored with an ancilla of size 1 or 2
    th = BASIS_THEORIES[name]()
    unit = th.unit()
    probes = th.probe_objects(2)
    ancillas = [None]
    if monoidal:
        ancillas += [c for c in th.probe_objects(2) if th.object_size(c) >= 1]
    for a in {a if c is None else th.tensor_obj(a, c)
              for a in probes for c in ancillas}:
        states, effects = th.probe_basis(a)
        assert len(states) == len(effects) == th.object_size(a)
        assert all(w in th.enumerate_hom(unit, a) for w in states)
        assert all(e in th.enumerate_hom(a, unit) for e in effects)
    for a, b in product(probes, repeat=2):
        hs = th.enumerate_hom(a, b)
        for c in ancillas:
            if c is None:
                dom, cod, fs = a, b, hs
            else:
                dom, cod = th.tensor_obj(a, c), th.tensor_obj(b, c)
                fs = [th.tensor(f, th.identity(c)) for f in hs]
            by_basis = [th.outcome_key(f, th.probe_basis(dom)[0],
                                       th.probe_basis(cod)[1]) for f in fs]
            by_all = [th.outcome_key(f, th.enumerate_hom(unit, dom),
                                     th.enumerate_hom(cod, unit)) for f in fs]
            for i, j in product(range(len(fs)), repeat=2):
                assert (by_basis[i] == by_basis[j]) == (by_all[i] == by_all[j])


@pytest.mark.parametrize("name", sorted(BASIS_THEORIES))
def test_probe_basis_of_a_tensor_is_the_product_basis(name):
    # the basis of a x c is the tensors of the bases of a and of c, for
    # each probe object a and ancilla c, so a monoidal quotient of the
    # theory probes with no ancilla at all
    th = BASIS_THEORIES[name]()
    ancillas = [c for c in th.probe_objects(2) if th.object_size(c) >= 1]
    for a, c in product(th.probe_objects(2), ancillas):
        (ws, es), (vs, us) = th.probe_basis(a), th.probe_basis(c)
        states, effects = th.probe_basis(th.tensor_obj(a, c))
        assert ({th.morphism_key(s) for s in states}
                == {th.morphism_key(th.tensor(w, v)) for w in ws for v in vs})
        assert ({th.morphism_key(e) for e in effects}
                == {th.morphism_key(th.tensor(e, u)) for e in es for u in us})
    q = quotient(th, monoidal=True)
    for a, b in product(th.probe_objects(2), repeat=2):
        assert q._ancillas(a, b) == [None]
