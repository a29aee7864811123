"""Derived operations: pairing, merging, complements, control.

Expected numbers are frozen from hand computation on small matrices.
"""

from fractions import Fraction

import pytest

from opcheck import ops
from opcheck.errors import (
    Incompatible,
    NonUniqueComplement,
    NotAPartialTest,
)
from opcheck.instances import MatrixTheory, PFunTheory, SubStochTheory
from opcheck.kernel import BOOLEANS

F = Fraction


@pytest.fixture()
def sub():
    return SubStochTheory(grid=4)


def ev(theory, dom, cod, rows):
    return theory.validate_event([[F(x) for x in r] for r in rows], dom, cod)


def test_projection_after_coprojection(sub):
    summands = (2, 1)
    for i in range(2):
        for j in range(2):
            got = sub.compose(ops.projection(sub, summands, j),
                              sub.coprojection(summands, i))
            want = (sub.identity(summands[i]) if i == j
                    else sub.zero_morphism(summands[i], summands[j]))
            assert sub.equal(got, want)


def test_is_total(sub):
    assert ops.is_total(sub.identity(2))
    assert not ops.is_total(sub.zero_morphism(2, 2))
    half = ev(sub, 1, 1, [["1/2"]])
    assert not ops.is_total(half)


def test_coarse_grain_commutes(sub):
    f = ev(sub, 1, 2, [["1/4", "1/4"]])
    g = ev(sub, 1, 2, [["1/2", "0"]])
    assert sub.equal(ops.coarse_grain(f, g), ops.coarse_grain(g, f))
    assert ops.coarse_grain(f, g).payload == ((F(3, 4), F(1, 4)),)


def test_coarse_grain_incompatible(sub):
    f = ev(sub, 1, 1, [["3/4"]])
    g = ev(sub, 1, 1, [["1/2"]])
    with pytest.raises(Incompatible):
        ops.coarse_grain(f, g)


def test_complement_unique(sub):
    e = ev(sub, 2, 1, [["1/4"], ["1"]])
    c = ops.complement_effect(e)
    assert c.payload == ((F(3, 4),), (F(0),))


def test_complement_not_unique_over_booleans():
    matb = MatrixTheory(BOOLEANS)
    e = matb.validate_event([[1]], 1, 1)
    with pytest.raises(NonUniqueComplement) as exc:
        ops.complement_effect(e)
    assert len(exc.value.witnesses) == 2


def test_total_extension(sub):
    f = ev(sub, 1, 2, [["1/4", "1/2"]])
    g = ops.total_extension(f)
    assert ops.is_total(g)
    assert g.payload == ((F(1, 4), F(1, 2), F(1, 4)),)
    proj = ops.projection(sub, (2, sub.unit()), 0)
    assert sub.equal(sub.compose(proj, g), f)


def test_pairing_forms_partial_test(sub):
    f = ev(sub, 1, 1, [["1/4"]])
    g = ev(sub, 1, 1, [["1/2"]])
    test = ops.pairing([f, g])
    assert len(test) == 2
    assert not test.is_total()
    with pytest.raises(NotAPartialTest):
        ops.pairing([f, ev(sub, 1, 1, [["1"]])])


def test_control_composes_outcomes(sub):
    # first test splits a coin; the follower on heads splits again
    first = ops.pairing([ev(sub, 1, 1, [["1/2"]]), ev(sub, 1, 1, [["1/2"]])])
    heads = ops.pairing([ev(sub, 1, 1, [["1/3"]]), ev(sub, 1, 1, [["2/3"]])])
    tails = ops.pairing([ev(sub, 1, 1, [["1"]])])
    combined = ops.control(first, [heads, tails])
    scalars = [f.payload[0][0] for f in combined.events]
    assert scalars == [F(1, 6), F(1, 3), F(1, 2)]
    assert combined.is_total()


def test_codiagonal_folds(sub):
    nabla = ops.codiagonal(sub, 2, 1)
    assert nabla.payload == ((F(1),), (F(1),))
    # built once per theory and (n, a), and never shared between theories
    assert ops.codiagonal(sub, 2, 1) is nabla
    assert ops.codiagonal(sub, 3, 1) is not nabla
    assert ops.codiagonal(SubStochTheory(grid=4), 2, 1) is not nabla


def test_pfun_pairing_requires_disjoint_domains():
    pfun = PFunTheory()
    f = pfun.validate_event([(1,), (0,)], 2, 1)      # defined on x1
    g = pfun.validate_event([(0,), (1,)], 2, 1)      # defined on x2
    clash = pfun.validate_event([(1,), (0,)], 2, 1)  # defined on x1 again
    assert pfun.try_pairing([f, g]) is not None
    assert pfun.try_pairing([f, clash]) is None
