"""Derived operations built from coproducts and discarding.

Everything here is generic over a :class:`~opcheck.theory.Theory`:
projections, codiagonals, totality, complements, merging of outcome
events, pairing, outcome-controlled sequencing and convex combinations.
Nothing is instance-specific.
"""

from __future__ import annotations

from .errors import (
    CompositionError,
    Incompatible,
    NoComplement,
    NonUniqueComplement,
    NotAPartialTest,
    NotMonoidal,
)


class PartialTest:
    """A family of events with common domain, plus its pairing witness.

    ``pairing`` is the morphism from the shared domain into the coproduct
    of the codomains whose projections recover each event.
    """

    __slots__ = ("theory", "dom", "events", "cod_summands", "pairing")

    def __init__(self, theory, dom, events, cod_summands, pairing):
        self.theory = theory
        self.dom = dom
        self.events = tuple(events)
        self.cod_summands = tuple(cod_summands)
        self.pairing = pairing

    def __len__(self):
        return len(self.events)

    def is_total(self):
        return is_total(self.pairing)

    def __repr__(self):
        return f"PartialTest({self.theory.name}, {len(self.events)} outcomes on {self.theory.object_str(self.dom)})"


def projection(theory, summands, i):
    """Projection out of a coproduct: identity on summand ``i``, zero elsewhere."""
    summands = tuple(summands)
    if not 0 <= i < len(summands):
        raise IndexError(f"projection index {i} out of range for {len(summands)} summands")
    fs = [theory.identity(a) if j == i else theory.zero_morphism(a, summands[i])
          for j, a in enumerate(summands)]
    return theory.cotuple(summands, fs)


def codiagonal(theory, n, a):
    """The fold map from the n-fold coproduct of ``a`` back onto ``a``."""
    if n < 1:
        raise ValueError("codiagonal needs at least one summand")
    summands = (a,) * n
    return theory.cotuple(summands, [theory.identity(a)] * n)


def is_total(f):
    th = f.theory
    return th.equal(th.compose(th.discard(f.cod), f), th.discard(f.dom))


def complement_effect(e):
    """The unique effect forming a two-outcome test with ``e``.

    Raises :class:`NoComplement` or :class:`NonUniqueComplement` (the
    latter carrying every witness) when uniqueness fails.
    """
    th = e.theory
    if e.cod != th.unit():
        raise ValueError("complement_effect expects an effect (codomain the trivial object)")
    found = th.effect_complements(e)
    if not found:
        raise NoComplement(f"effect on {th.object_str(e.dom)} has no complement")
    if len(found) > 1:
        raise NonUniqueComplement(
            f"effect on {th.object_str(e.dom)} has {len(found)} complements", found)
    return found[0]


def total_extension(f):
    """The total morphism ``g`` into ``cod + I`` with first projection ``f``.

    Built by pairing ``f`` with the complement of its discard composite;
    uniqueness of that complement makes the extension canonical.
    """
    th = f.theory
    c = complement_effect(th.compose(th.discard(f.cod), f))
    h = th.try_pairing([f, c])
    if h is None:
        raise NotAPartialTest(
            f"event and its residual effect on {th.object_str(f.dom)} do not pair")
    return h


def coarse_grain(f, g):
    """Merge two compatible parallel events into one.

    Defined as the codiagonal after the pairing; :class:`Incompatible` when
    no pairing exists.
    """
    th = f.theory
    if f.dom != g.dom or f.cod != g.cod:
        raise CompositionError("coarse-graining needs parallel events")
    h = th.try_pairing([f, g])
    if h is None:
        raise Incompatible(
            f"events {th.object_str(f.dom)} -> {th.object_str(f.cod)} admit no pairing")
    return th.compose(codiagonal(th, 2, f.cod), h)


def coarse_grain_all(theory, dom, cod, events):
    """Merge a finite compatible family; the empty family merges to zero."""
    events = list(events)
    if not events:
        return theory.zero_morphism(dom, cod)
    if len(events) == 1:
        return events[0]
    h = theory.try_pairing(events)
    if h is None:
        raise Incompatible("family admits no pairing")
    return theory.compose(codiagonal(theory, len(events), cod), h)


def pairing(events):
    """Assemble events with common domain into a :class:`PartialTest`."""
    events = list(events)
    if not events:
        raise NotAPartialTest("pairing of an empty family is ambiguous; use a zero morphism")
    th = events[0].theory
    dom = events[0].dom
    for f in events[1:]:
        if f.theory is not th or f.dom != dom:
            raise CompositionError("pairing needs a common domain in one theory")
    h = th.try_pairing(events)
    if h is None:
        raise NotAPartialTest(
            f"events on {th.object_str(dom)} do not form a partial test")
    return PartialTest(th, dom, events, tuple(f.cod for f in events), h)


def control(test, followers):
    """Outcome-controlled sequencing.

    Performs ``test`` and, on outcome ``x``, the partial test
    ``followers[x]``; the resulting outcome events are the composites of
    each follower event after the corresponding outcome of ``test``.
    """
    th = test.theory
    if len(followers) != len(test.events):
        raise CompositionError("one follower test per outcome required")
    for f, g in zip(test.events, followers):
        if g.theory is not th or g.dom != f.cod:
            raise CompositionError("follower domain must match the outcome codomain")
    all_summands = tuple(c for g in followers for c in g.cod_summands)
    # (g_1 + ... + g_n) : coproduct of follower domains -> coproduct of all
    # follower codomains, assembled blockwise at the right offsets.
    blocks = []
    offset = 0
    for g in followers:
        width = len(g.cod_summands)
        inclusion = th.cotuple(
            g.cod_summands,
            [th.coprojection(all_summands, offset + k) for k in range(width)])
        blocks.append(th.compose(inclusion, g.pairing))
        offset += width
    summed = th.cotuple(tuple(g.dom for g in followers), blocks)
    paired = th.compose(summed, test.pairing)
    events = [th.compose(g.events[k], f)
              for f, g in zip(test.events, followers)
              for k in range(len(g.events))]
    return PartialTest(th, test.dom, events, all_summands, paired)


def convex_combination(weights, points, monoidal=False):
    """Mixture of states (or, in a monoidal theory, of arbitrary events).

    ``weights`` is a partial test of scalars; ``points`` a matching list of
    events.  The state form routes the weight test through the copower of
    the trivial object and cotuples the points; the event form additionally
    uses the tensor.
    """
    th = weights.theory
    points = list(points)
    if len(points) != len(weights.events):
        raise CompositionError("one point per weight required")
    unit = th.unit()
    if weights.dom != unit or any(c != unit for c in weights.cod_summands):
        raise ValueError("weights must be scalars")
    n = len(points)
    dom = points[0].dom
    cod = points[0].cod
    for p in points[1:]:
        if p.dom != dom or p.cod != cod:
            raise CompositionError("points must be parallel")
    if dom == unit:
        # route through n copies of the trivial object
        return th.compose(th.cotuple((unit,) * n, points), weights.pairing)
    if not th.monoidal:
        raise NotMonoidal("general-event mixtures need a tensor")
    # dom ~ dom (x) unit --(id (x) weights)--> dom (x) n.unit ~ n.dom --[points]--> cod
    rho_inv = th.unitor_right_inv(dom)
    spread = th.tensor(th.identity(dom), weights.pairing)
    gather = _distribute_right(th, dom, n)
    folded = th.cotuple((dom,) * n, points)
    return th.compose(folded, th.compose(gather, th.compose(spread, rho_inv)))


def _distribute_right(theory, a, n):
    """Canonical map from ``a`` tensor the n-fold copower of the unit onto
    the n-fold copower of ``a`` (merge of injections after projections)."""
    unit = theory.unit()
    n_unit = (unit,) * n
    src = theory.tensor_obj(a, theory.coproduct(n_unit))
    pieces = []
    for i in range(n):
        step = theory.tensor(theory.identity(a), projection(theory, n_unit, i))
        step = theory.compose(theory.unitor_right(a), step)
        step = theory.compose(theory.coprojection((a,) * n, i), step)
        pieces.append(step)
    out = pieces[0]
    for p in pieces[1:]:
        h = theory.try_pairing([out, p])
        if h is None:
            raise Incompatible("distribution pieces failed to pair")
        out = theory.compose(codiagonal(theory, 2, out.cod), h)
    if out.dom != src:
        raise CompositionError("distribution map has unexpected domain")
    return out

