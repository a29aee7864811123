"""Sets and partial functions: the deterministic classical instance.

Objects are finite sets of hashable labels; an event A -> B is a partial
function, stored as a sorted tuple of (source, target) pairs.  Pairing of a
family exists exactly when the domains of definition are pairwise disjoint,
coarse-graining is union, and the complement of an effect is the effect
defined on the complementary subset (always unique here).
"""

from __future__ import annotations

from itertools import product

from ..errors import CompositionError, ValidationError
from ..theory import Morphism, Theory


def _skey(x):
    return repr(x)


def _sorted(obj):
    return sorted(obj, key=_skey)


class PFunTheory(Theory):
    name = "pfun"
    monoidal = True

    # -- objects ----------------------------------------------------------
    def unit(self):
        return frozenset({"*"})

    def zero(self):
        return frozenset()

    def coproduct(self, summands):
        summands = tuple(summands)
        if not summands:
            return self.zero()
        if len(summands) == 1:
            return summands[0]
        return frozenset((i, x) for i, a in enumerate(summands) for x in a)

    def object_str(self, a):
        return "{" + ", ".join(repr(x) for x in _sorted(a)) + "}"

    def object_size(self, a):
        return len(a)

    def probe_objects(self, bound):
        return [frozenset(f"x{i}" for i in range(1, n + 1)) for n in range(bound + 1)]

    # -- morphisms --------------------------------------------------------
    def _m(self, dom, cod, pairs):
        return Morphism(self, dom, cod, tuple(sorted(pairs, key=_skey)))

    def _map(self, f):
        return dict(f.payload)

    def identity(self, a):
        return self._m(a, a, [(x, x) for x in a])

    def _compose(self, g, f):
        gm = self._map(g)
        return self._m(f.dom, g.cod,
                       [(x, gm[y]) for x, y in f.payload if y in gm])

    def zero_morphism(self, a, b):
        return self._m(a, b, [])

    def coprojection(self, summands, i):
        summands = tuple(summands)
        if len(summands) == 1:
            return self.identity(summands[0])
        cod = self.coproduct(summands)
        return self._m(summands[i], cod, [(x, (i, x)) for x in summands[i]])

    def cotuple(self, summands, fs):
        summands = tuple(summands)
        if not fs:
            raise CompositionError("pfun: empty cotuple needs an explicit codomain")
        if len(summands) == 1:
            return fs[0]
        dom = self.coproduct(summands)
        pairs = [((i, x), y) for i, f in enumerate(fs) for x, y in f.payload]
        return self._m(dom, fs[0].cod, pairs)

    def discard(self, a):
        return self._m(a, self.unit(), [(x, "*") for x in a])

    def equal(self, f, g, tol=None):
        return f.dom == g.dom and f.cod == g.cod and f.payload == g.payload

    def payload_key(self, f):
        return f.payload

    def probe_basis(self, a):
        """The points of ``a`` and the effects defined on one element: the
        outcome of the effect on ``y`` after ``f`` after the point ``x`` is
        defined exactly when ``f`` sends ``x`` to ``y``."""
        unit = self.unit()
        return ([self._m(unit, a, [("*", x)]) for x in _sorted(a)],
                [self._m(a, unit, [(y, "*")]) for y in _sorted(a)])

    # -- tests and merging -------------------------------------------------
    def try_pairing(self, events):
        events = tuple(events)
        seen = set()
        for f in events:
            defined = {x for x, _ in f.payload}
            if defined & seen:
                return None
            seen |= defined
        summands = tuple(f.cod for f in events)
        cod = self.coproduct(summands)
        if len(events) == 1:
            return events[0]
        pairs = [(x, (i, y)) for i, f in enumerate(events) for x, y in f.payload]
        return self._m(events[0].dom, cod, pairs)

    def effect_complements(self, e):
        defined = {x for x, _ in e.payload}
        return [self._m(e.dom, self.unit(),
                        [(x, "*") for x in e.dom if x not in defined])]

    # -- enumeration -------------------------------------------------------
    def hom_count(self, a, b):
        return (len(b) + 1) ** len(a)

    def _homset(self, a, b, cap):
        src = _sorted(a)
        options = [None] + _sorted(b)
        return (self._m(a, b, [(x, y) for x, y in zip(src, choice)
                               if y is not None])
                for choice in product(options, repeat=len(src)))

    def sample_hom(self, a, b, rng):
        options = [None] + _sorted(b)
        pairs = []
        for x in _sorted(a):
            y = options[rng.randrange(len(options))]
            if y is not None:
                pairs.append((x, y))
        return self._m(a, b, pairs)

    # -- monoidal structure ------------------------------------------------
    def tensor_obj(self, a, b):
        return frozenset((x, y) for x in a for y in b)

    def tensor(self, f, g):
        dom = self.tensor_obj(f.dom, g.dom)
        cod = self.tensor_obj(f.cod, g.cod)
        return self._m(dom, cod,
                       [((x, p), (y, q)) for x, y in f.payload for p, q in g.payload])

    def unitor_left(self, a):
        return self._m(self.tensor_obj(self.unit(), a), a,
                       [(("*", x), x) for x in a])

    # -- validation --------------------------------------------------------
    def validate_event(self, payload, dom, cod):
        pairs = tuple(payload)
        srcs = [x for x, _ in pairs]
        if len(set(srcs)) != len(srcs):
            raise ValidationError("pfun: payload maps some source twice")
        for x, y in pairs:
            if x not in dom:
                raise ValidationError(f"pfun: source {x!r} not in the domain")
            if y not in cod:
                raise ValidationError(f"pfun: target {y!r} not in the codomain")
        return self._m(dom, cod, pairs)
