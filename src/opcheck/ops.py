"""Derived operations built from coproducts and discarding.

Everything here is generic over a :class:`~opcheck.theory.Theory`:
projections, codiagonals, observations, totality, complements, merging of
outcome events, pairing and outcome-controlled sequencing.
Nothing is instance-specific.
"""

from __future__ import annotations

from .errors import (
    CompositionError,
    Incompatible,
    NoComplement,
    NonUniqueComplement,
    NotAPartialTest,
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
    """The fold map from the n-fold coproduct of ``a`` back onto ``a``,
    built once per ``(n, a)`` and kept in the theory's ``_codiagonals``."""
    if n < 1:
        raise ValueError("codiagonal needs at least one summand")
    memo = vars(theory).setdefault("_codiagonals", {})
    nabla = memo.get((n, a))
    if nabla is None:
        nabla = theory.cotuple((a,) * n, [theory.identity(a)] * n)
        memo[(n, a)] = nabla
    return nabla


def _discard(theory, a):
    """The discard effect of ``a``, built once per object and kept in the
    theory's ``_discards``."""
    memo = vars(theory).setdefault("_discards", {})
    top = memo.get(a)
    if top is None:
        top = memo[a] = theory.discard(a)
    return top


def observation(f):
    """The discard composite ``discard . f``, composed on first use and
    kept in ``f.observation``."""
    obs = f.observation
    if obs is None:
        th = f.theory
        obs = f.observation = th.compose(_discard(th, f.cod), f)
    return obs


def is_total(f):
    th = f.theory
    return th.equal(observation(f), _discard(th, f.dom))


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
    c = complement_effect(observation(f))
    h = th.try_pairing([f, c])
    if h is None:
        raise NotAPartialTest(
            f"event and its residual effect on {th.object_str(f.dom)} do not pair")
    return h


def merge_pairing(h, cod, n=2):
    """The merge of ``n`` events into ``cod`` whose pairing is ``h``: the
    codiagonal after the pairing.  A caller that has just decided the
    pairing merges it here instead of deciding it again."""
    th = h.theory
    return th.compose(codiagonal(th, n, cod), h)


def coarse_grain(f, g):
    """Merge two compatible parallel events into one.

    Decides their pairing and merges it (:func:`merge_pairing`);
    :class:`Incompatible` when no pairing exists.
    """
    th = f.theory
    if f.dom != g.dom or f.cod != g.cod:
        raise CompositionError("coarse-graining needs parallel events")
    h = th.try_pairing([f, g])
    if h is None:
        raise Incompatible(
            f"events {th.object_str(f.dom)} -> {th.object_str(f.cod)} admit no pairing")
    return merge_pairing(h, f.cod)


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
    return merge_pairing(h, cod, len(events))


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
