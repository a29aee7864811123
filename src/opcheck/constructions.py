"""Category-level transformers: the partial-morphism category, the
direct-sum completion and quotients.

Each construction is a pure wrapper around one or two existing theories.
``ParTheory`` rebuilds a partial-event theory out of the total events of a
base, Par(Tot(C)): its morphisms are the total base events into ``B + I``.
The base and Par(Tot(base)) are mutually inverse up to the round trip that
the checker's ``def3.3-c3`` decides: every event has a total extension into
``B + I``, it restricts back to the event, and it is the only one that does.
``PlusTheory`` freely adds direct sums; ``QuotientTheory`` identifies events
indistinguishable on state/effect probes.
"""

from __future__ import annotations

import math
import random
from itertools import product

from . import ops
from .blocks import BlockMatrices
from .errors import (
    BoundExceeded,
    Incompatible,
    NoComplement,
    NotAPartialTest,
    NotEnumerable,
    ValidationError,
)
from .theory import Morphism, Theory


class _OnBaseObjects(Theory):
    """A theory whose objects are those of ``self.base``: the unit, zero,
    coproducts, names, sizes and probe objects are the base's."""

    def unit(self):
        return self.base.unit()

    def zero(self):
        return self.base.zero()

    def coproduct(self, summands):
        return self.base.coproduct(summands)

    def object_str(self, a):
        return self.base.object_str(a)

    def object_size(self, a):
        return self.base.object_size(a)

    def probe_objects(self, bound):
        return self.base.probe_objects(bound)


# ---------------------------------------------------------------------------
# Partial morphisms over a total category

class ParTheory(_OnBaseObjects):
    """Partial events over the total events of ``base``: a morphism A to B
    is a total base event A to B + I.  Composition grafts the second summand
    (the "undefined" branch) along, identities and discarding are the
    evident coprojection composites.
    """

    def __init__(self, base):
        self.base = base
        self.name = f"par(total({base.name}))"
        self.tol = base.tol

    # -- morphisms ---------------------------------------------------------
    def _lift(self, b):
        return self.base.coproduct((b, self.base.unit()))

    def _wrap(self, dom, cod, payload):
        return Morphism(self, dom, cod, payload)

    def identity(self, a):
        return self._wrap(a, a, self.base.coprojection((a, self.base.unit()), 0))

    def _compose(self, g, f):
        b = self.base
        unit = b.unit()
        kappa2 = b.coprojection((g.cod, unit), 1)
        step = b.cotuple((f.cod, unit), [g.payload, kappa2])
        return self._wrap(f.dom, g.cod, b.compose(step, f.payload))

    def zero_morphism(self, a, b):
        base = self.base
        return self._wrap(a, b, base.compose(
            base.coprojection((b, base.unit()), 1), base.discard(a)))

    def coprojection(self, summands, i):
        base = self.base
        total = base.coproduct(summands)
        return self._wrap(summands[i], total, base.compose(
            base.coprojection((total, base.unit()), 0),
            base.coprojection(summands, i)))

    def cotuple(self, summands, fs):
        base = self.base
        return self._wrap(base.coproduct(summands), fs[0].cod,
                          base.cotuple(summands, [f.payload for f in fs]))

    def discard(self, a):
        base = self.base
        unit = base.unit()
        return self._wrap(a, unit, base.compose(
            base.coprojection((unit, unit), 0), base.discard(a)))

    def equal(self, f, g, tol=None):
        return (f.dom == g.dom and f.cod == g.cod
                and self.base.equal(f.payload, g.payload, tol))

    def payload_key(self, f):
        return self.base.payload_key(f.payload)

    def rounded_key(self, f):
        return self.base.rounded_key(f.payload)

    # -- tests and merging -------------------------------------------------
    def to_event(self, f):
        """The base event underlying a partial morphism (drop the + I branch)."""
        base = self.base
        proj = ops.projection(base, (f.cod, base.unit()), 0)
        return base.compose(proj, f.payload)

    def from_event(self, dom, cod, event):
        """Wrap a base event as a partial morphism via its total extension."""
        return self._wrap(dom, cod, ops.total_extension(event))

    def try_pairing(self, events):
        base = self.base
        down = [self.to_event(f) for f in events]
        p = base.try_pairing(down)
        if p is None:
            return None
        try:
            ext = ops.total_extension(p)
        except (NoComplement, NotAPartialTest):
            return None
        return self._wrap(events[0].dom,
                          self.coproduct(tuple(f.cod for f in events)), ext)

    # -- enumeration -------------------------------------------------------
    def hom_count(self, a, b):
        return self.base.hom_count(a, self._lift(b))

    def _homset(self, a, b, cap):
        return (self._wrap(a, b, m)
                for m in self.base.enumerate_hom(a, self._lift(b), cap)
                if ops.is_total(m))

    def sample_hom(self, a, b, rng):
        return self.from_event(a, b, self.base.sample_hom(a, b, rng))

    # -- validation --------------------------------------------------------
    def validate_event(self, payload, dom, cod):
        if not isinstance(payload, Morphism) or payload.theory is not self.base:
            raise ValidationError(f"{self.name}: payload must be a base morphism")
        if payload.dom != dom or payload.cod != self._lift(cod):
            raise ValidationError(f"{self.name}: payload signature mismatch")
        if not ops.is_total(payload):
            raise ValidationError(f"{self.name}: payload must be total")
        return self._wrap(dom, cod, payload)


def par(base):
    return ParTheory(base)


# ---------------------------------------------------------------------------
# Direct-sum completion

class PlusTheory(BlockMatrices):
    """The free direct-sum completion of a base theory.

    Objects are finite tuples of base objects.  A morphism from X to Y is a
    block matrix (:mod:`opcheck.blocks`) of base events: entry (i, j) is an
    event from ``X[i]`` to ``Y[j]``, one row per source summand and one
    column per target summand, and each row is a partial test of the base.
    The payload is the grid itself.

    Each entry of a matrix product is computed once: ``_dot(x, z, row,
    col)`` is memoised under ``x``, ``z`` and, for each ``j``, the middle
    object ``row[j].cod`` and the base's payload keys of ``row[j]`` and
    ``col[j]``.  A computed entry is kept under its own exact key (the
    base's ``morphism_key``), so equal entries are one base event.  Where
    the base has no exact keys (cpsu's ``payload_key`` raises
    ``NotEnumerable``) every entry is computed afresh and nothing is stored;
    nothing is stored when a computation raises either.
    """

    def __init__(self, base):
        self.base = self.entries = base
        self.name = f"plus({base.name})"
        self.monoidal = base.monoidal
        self.tol = base.tol
        self._row_cache = {}
        self._products = {}  # (x, z, keys of row and col) -> product entry
        self._canonical = {}  # exact key of a product entry -> that entry

    # -- objects -----------------------------------------------------------
    def unit(self):
        return (self.base.unit(),)

    def object_str(self, a):
        return "<" + ", ".join(self.base.object_str(x) for x in a) + ">"

    def probe_objects(self, bound):
        comps = [o for o in self.base.probe_objects(bound)
                 if self.base.object_size(o) >= 1]
        out = [()]
        frontier = [((), 0)]
        while frontier:
            prefix, size = frontier.pop(0)
            for o in comps:
                s = size + self.base.object_size(o)
                if s <= bound:
                    tup = prefix + (o,)
                    out.append(tup)
                    frontier.append((tup, s))
        return out

    # -- morphisms ---------------------------------------------------------
    def _m(self, dom, cod, grid):
        return Morphism(self, dom, cod, tuple(tuple(row) for row in grid))

    def _dot(self, x, z, row, col):
        base = self.base
        key = base.payload_key
        try:
            memo_key = (x, z, *[k for f, g in zip(row, col)
                                for k in (f.cod, key(f), key(g))])
        except NotEnumerable:
            return self._product(x, z, row, col)
        out = self._products.get(memo_key)
        if out is None:
            out = self._product(x, z, row, col)
            exact = base.morphism_key(out)
            if exact is None:  # an empty row over a base without exact keys
                return out
            out = self._canonical.setdefault(exact, out)
            self._products[memo_key] = out
        return out

    def _product(self, x, z, row, col):
        """The merge over ``j`` of ``col[j]`` after ``row[j]``, unmemoised."""
        base = self.base
        return ops.coarse_grain_all(base, x, z, [base.compose(g, f)
                                                 for f, g in zip(row, col)])

    def payload_key(self, f):
        key = self.base.payload_key
        return tuple(tuple(key(e) for e in row) for row in f.payload)

    # -- tests and merging -------------------------------------------------
    def _first_unpaired(self, f):
        """The index of the first row of ``f`` that is not a partial test of
        the base, or None when every row is one."""
        if f.cod:
            for i, row in enumerate(f.payload):
                if self.base.try_pairing(row) is None:
                    return i
        return None

    def try_pairing(self, events):
        paired = super().try_pairing(events)
        return None if self._first_unpaired(paired) is not None else paired

    # -- enumeration -------------------------------------------------------
    def _row_options(self, x, cod, cap):
        key = (x, cod)
        if key not in self._row_cache:
            base = self.base
            if not cod:
                self._row_cache[key] = [()]
                return self._row_cache[key]
            per_entry = [base.enumerate_hom(x, y, cap) for y in cod]
            options = []
            for combo in product(*per_entry):
                if base.try_pairing(list(combo)) is not None:
                    options.append(combo)
            self._row_cache[key] = options
        return self._row_cache[key]

    def hom_count(self, a, b):
        """Known once the row options of every source summand are."""
        options = [self._row_cache.get((x, b)) for x in a]
        return None if None in options else math.prod(map(len, options))

    def _homset(self, a, b, cap):
        options = [self._row_options(x, b, cap) for x in a]
        count = math.prod(map(len, options))
        if cap is not None and count > cap:
            raise BoundExceeded(f"homset size {count} over cap", count)
        return (self._m(a, b, combo) for combo in product(*options))

    def sample_hom(self, a, b, rng):
        base = self.base
        rows = []
        for x in a:
            if not b:
                rows.append(())
                continue
            if len(b) == 1:
                rows.append((base.sample_hom(x, b[0], rng),))
                continue
            h = base.sample_hom(x, base.coproduct(b), rng)
            rows.append(tuple(base.compose(ops.projection(base, b, j), h)
                              for j in range(len(b))))
        return self._m(a, b, rows)

    # -- validation --------------------------------------------------------
    def validate_event(self, payload, dom, cod):
        base = self.base
        rows = tuple(tuple(r) for r in payload)
        if len(rows) != len(dom):
            raise ValidationError(f"{self.name}: expected {len(dom)} rows")
        for i, (x, row) in enumerate(zip(dom, rows)):
            if len(row) != len(cod):
                raise ValidationError(f"{self.name}: row {i} has wrong width")
            for e, y in zip(row, cod):
                if e.theory is not base or e.dom != x or e.cod != y:
                    raise ValidationError(
                        f"{self.name}: entry ({i}) is not a base event of the right signature")
        m = self._m(dom, cod, rows)
        i = self._first_unpaired(m)
        if i is not None:
            raise NotAPartialTest(
                f"{self.name}: outcome family of source index {i} is not a partial test")
        return m

    def singleton(self, f):
        """Embed a base event as a one-by-one matrix (the unit of the completion)."""
        return self._m((f.dom,), (f.cod,), ((f,),))


def plus_completion(theta):
    return PlusTheory(theta)


# ---------------------------------------------------------------------------
# Direct sums

def direct_sum_verify(theory, summands, candidate=None, coprojections=None,
                      projections=None):
    """Check the direct-sum equations for a candidate object.

    With no candidate supplied the canonical coproduct with its
    coprojections and projections is used.  The verdict names each failed
    equation; ``ok`` is the conjunction.
    """
    summands = tuple(summands)
    if candidate is None:
        candidate = theory.coproduct(summands)
    if coprojections is None:
        coprojections = [theory.coprojection(summands, i)
                         for i in range(len(summands))]
    if projections is None:
        projections = [ops.projection(theory, summands, i)
                       for i in range(len(summands))]
    failures = []
    if theory.try_pairing(projections) is None:
        failures.append("projections-form-test")
    for y, p in enumerate(projections):
        for x, k in enumerate(coprojections):
            got = theory.compose(p, k)
            want = (theory.identity(summands[x]) if x == y
                    else theory.zero_morphism(summands[x], summands[y]))
            if not theory.equal(got, want):
                failures.append(f"projection-{y}-after-injection-{x}")
    try:
        merged = ops.coarse_grain_all(
            theory, candidate, candidate,
            [theory.compose(k, p) for k, p in zip(coprojections, projections)])
        if not theory.equal(merged, theory.identity(candidate)):
            failures.append("sum-of-injections-not-identity")
    except (Incompatible, NotAPartialTest):
        failures.append("sum-of-injections-incompatible")
    return {"ok": not failures, "failures": failures,
            "candidate": theory.object_str(candidate)}


def search_direct_sum(theory, summands, bound):
    """Look for a direct sum of ``summands`` among objects of size up to
    ``bound``; verdicts for absence are always "absent-under-bound".

    Theories with an analytic decision procedure expose
    ``direct_sum_decision``; otherwise only the canonical coproduct
    candidate is examined.
    """
    summands = tuple(summands)
    decision = getattr(theory, "direct_sum_decision", None)
    candidates = []
    present = False
    if decision is not None:
        for candidate in theory.probe_objects(bound):
            exists, reason = decision(summands, candidate)
            candidates.append({"candidate": theory.object_str(candidate),
                               "exists": exists, "reason": reason})
            present = present or exists
    else:
        verdict = direct_sum_verify(theory, summands)
        candidates.append({"candidate": verdict["candidate"],
                           "exists": verdict["ok"],
                           "reason": ", ".join(verdict["failures"]) or "verified"})
        present = verdict["ok"]
    return {"verdict": "present" if present else "absent-under-bound",
            "bound": bound, "candidates": candidates}


# ---------------------------------------------------------------------------
# Quotient by operational indistinguishability

#: the largest ancilla size the monoidal quotient probes with
ANCILLA_BOUND = 2


class QuotientTheory(_OnBaseObjects):
    """Identify events whose state/effect probe statistics coincide.

    Morphisms carry a representative base event; equality compares probe
    signatures, and every operation delegates to the base and re-canonicalizes
    the result.  In monoidal mode the probes range over states and effects
    extended by ancillas of size 1 to :data:`ANCILLA_BOUND`.

    The states into an object and the effects out of it are the base's
    :meth:`~opcheck.theory.Theory.probe_basis` of that object when it has
    one (the matrix theories do), which groups events as every
    state and effect would; otherwise they are its enumerated homsets, or
    ``samples`` seeded draws where a homset cannot be enumerated within
    ``cap``.  A signature is the tuple of outcomes over these probes, so
    its value depends on the probe set; only which events share one is
    fixed.

    Ancillas are chosen per homset.  ``hom(a, b)`` leaves out ancilla ``c``
    when, on an exact base (``tol`` None), the basis states of ``a x c``
    are the tensors ``w x v`` of the basis states of ``a`` and of ``c``,
    and the basis effects of ``b x c`` the tensors ``e x u`` of those of
    ``b`` and of ``c``, compared by exact key.
    Each outcome of ``f x id_c`` is then ``(e . f . w) x (u . v)``, fixed
    by ``f``'s outcomes without the ancilla, so ``c`` cannot split a class
    (local discriminability).  This holds for the matrix theories; the
    other shipped bases, and any whose unit is not strict, keep them all.

    Each base event is signed once: signatures, and the effect rows they are
    built from, are memoised under the event's exact key (the base's
    ``morphism_key``), and each probe homset is partitioned into classes
    once.  An event without an exact key (cpsu's) is signed afresh on every
    call.  Memo entries are only ever results; nothing is stored when a
    computation raises.
    """

    def __init__(self, base, bound=2, cap=20000, samples=64, seed=0,
                 monoidal=False):
        self.base = base
        self.bound = bound
        self.cap = cap
        self.samples = samples
        self.seed = seed
        self.monoidal_probes = monoidal and base.monoidal
        self.name = f"quotient({base.name})"
        self.monoidal = False
        self.tol = base.tol
        self._probe_cache = {}
        self._signatures = {}  # exact key of an event -> its signature
        self._rows = {}        # exact key of probe . state -> effect outcomes
        self._partitions = {}  # (a, b) -> classes of the base's hom(a, b)
        self._products = {}    # (object, ancilla, half) -> product basis?
        self._ancilla_lists = {}  # (a, b) -> the ancillas of hom(a, b)

    # -- probes ------------------------------------------------------------
    def _hom_probe(self, a, b, tag):
        """The probes of ``tag`` "state" (``a`` is the unit) or "effect"
        (``b`` is the unit): the half of the base's probe basis of the
        other object, else the homset or a seeded draw from it."""
        key = (tag, a, b)
        if key not in self._probe_cache:
            base = self.base
            out = base.probe_basis(b if tag == "state" else a)
            if out is not None:
                out = out[tag == "effect"]
            else:
                try:
                    out = base.enumerate_hom(a, b, self.cap)
                except (NotEnumerable, BoundExceeded):
                    rng = random.Random(f"{self.seed}:{tag}:{base.object_str(a)}:{base.object_str(b)}")
                    out = base.sample_homset(a, b, rng, self.samples)
            self._probe_cache[key] = out
        return self._probe_cache[key]

    def _ancillas(self, a, b):
        """The ancillas that probe ``hom(a, b)``, None standing for none:
        in monoidal mode each object of size 1 to :data:`ANCILLA_BOUND`
        save those on which the base's basis is a product basis at both
        ends of the homset; decided once per homset."""
        if not self.monoidal_probes:
            return [None]
        out = self._ancilla_lists.get((a, b))
        if out is None:
            base = self.base
            out = self._ancilla_lists[a, b] = [None] + [
                c for c in base.probe_objects(ANCILLA_BOUND)
                if 1 <= base.object_size(c)
                and not (self._product_basis(a, c, "state")
                         and self._product_basis(b, c, "effect"))]
        return out

    def _product_basis(self, x, c, half):
        """Whether, on a base with exact keys, the ``half`` ("state" or
        "effect") of its basis of ``x x c`` is the tensors of the halves of
        the bases of ``x`` and of ``c``; decided once per ``(x, c, half)``."""
        key = (x, c, half)
        out = self._products.get(key)
        if out is None:
            out = self._products[key] = self._decide_product(x, c, half)
        return out

    def _decide_product(self, x, c, half):
        base = self.base
        bases = [base.probe_basis(o) for o in (x, c, base.tensor_obj(x, c))]
        if (base.tol is not None or None in bases
                or base.morphism_key(base.identity(base.unit())) is None):
            return False
        xs, cs, xcs = (p[half == "effect"] for p in bases)
        keys = {base.morphism_key(f) for f in xcs}
        return None not in keys and keys == {
            base.morphism_key(base.tensor(p, q)) for p in xs for q in cs}

    def _memo(self, memo, f, compute):
        key = self.base.morphism_key(f)
        if key is None:
            return compute(f)
        out = memo.get(key)
        if out is None:
            out = memo[key] = compute(f)
        return out

    def signature(self, f):
        """The probe statistics of base event ``f`` (memoised)."""
        return self._memo(self._signatures, f, self._sign)

    def _sign(self, f):
        """The outcomes of ``f`` on the probes of its homset, then of
        ``f x id_c`` on those of ``dom x c`` and ``cod x c`` for each
        ancilla ``c`` that :meth:`_ancillas` keeps for the homset."""
        base = self.base
        unit = base.unit()
        out = []
        for c in self._ancillas(f.dom, f.cod):
            if c is None:
                dom, probe = f.dom, f
            else:
                dom = base.tensor_obj(f.dom, c)
                probe = base.tensor(f, base.identity(c))
            for omega in self._hom_probe(unit, dom, "state"):
                out.extend(self._memo(self._rows, base.compose(probe, omega),
                                      self._effect_row))
        return tuple(out)

    def _effect_row(self, mid):
        """The outcome of every effect probe after the intermediate ``mid``."""
        base = self.base
        return tuple(base.rounded_key(base.compose(e, mid))
                     for e in self._hom_probe(mid.cod, base.unit(), "effect"))

    def _partition(self, a, b, cap):
        """The base's hom(a, b) grouped by signature, members in enumeration
        order; signed once.  As ``base.enumerate_hom(a, b, cap)``, whose
        kept homset it reads, this raises ``BoundExceeded`` for a cap below
        the homset's count.
        """
        homs = self.base.enumerate_hom(a, b, cap)
        groups = self._partitions.get((a, b))
        if groups is None:
            groups = {}
            for h in homs:
                groups.setdefault(self.signature(h), []).append(h)
            self._partitions[a, b] = groups
        return groups

    # -- morphisms ---------------------------------------------------------
    def _wrap(self, f):
        return Morphism(self, f.dom, f.cod, self.canonical_representative(f))

    def canonical_representative(self, f):
        """The first member of ``f``'s class, or ``f`` itself when its
        homset is not enumerable or no class of it matches."""
        try:
            groups = self._partition(f.dom, f.cod, self.cap)
        except (NotEnumerable, BoundExceeded):
            return f
        members = groups.get(self.signature(f))
        return members[0] if members else f

    def identity(self, a):
        return self._wrap(self.base.identity(a))

    def _compose(self, g, f):
        return self._wrap(self.base.compose(g.payload, f.payload))

    def zero_morphism(self, a, b):
        return self._wrap(self.base.zero_morphism(a, b))

    def coprojection(self, summands, i):
        return self._wrap(self.base.coprojection(summands, i))

    def cotuple(self, summands, fs):
        return self._wrap(self.base.cotuple(summands, [f.payload for f in fs]))

    def discard(self, a):
        return self._wrap(self.base.discard(a))

    def equal(self, f, g, tol=None):
        if f.dom != g.dom or f.cod != g.cod:
            return False
        return self.signature(f.payload) == self.signature(g.payload)

    def payload_key(self, f):
        """The probe signature, by which :meth:`equal` compares."""
        return self.signature(f.payload)

    def try_pairing(self, events):
        h = self.base.try_pairing([f.payload for f in events])
        if h is None:
            return None
        return self._wrap(h)

    def effect_complements(self, e):
        out = []
        seen = []
        for c in self.base.effect_complements(e.payload):
            w = self._wrap(c)
            if not any(self.equal(w, prev) for prev in seen):
                seen.append(w)
                out.append(w)
        return out

    def hom_count(self, a, b):
        return self.base.hom_count(a, b)

    def _homset(self, a, b, cap):
        """One representative per class: its first member."""
        return (Morphism(self, a, b, members[0])
                for members in self._partition(a, b, cap).values())

    def sample_hom(self, a, b, rng):
        return self._wrap(self.base.sample_hom(a, b, rng))

    def validate_event(self, payload, dom, cod):
        return self._wrap(self.base.validate_event(payload, dom, cod))

    # -- reporting ---------------------------------------------------------
    def classes(self, a, b):
        """Probe homset partitioned into equivalence classes (signature order)."""
        return {sig: list(members)
                for sig, members in self._partition(a, b, self.cap).items()}

    def class_counts(self, a, b):
        return sorted((len(v) for v in self.classes(a, b).values()), reverse=True)

    def is_separated(self, a, b):
        """Representatives of distinct classes stay distinguishable by probes.

        The representatives are signed again through the probe composites,
        not read off the partition's keys, which would make this true by
        construction.
        """
        reps = [v[0] for v in self.classes(a, b).values()]
        sigs = [self._sign(r) for r in reps]
        return len(set(sigs)) == len(sigs)


def quotient(theory, bound=2, cap=20000, samples=64, seed=0, monoidal=False):
    return QuotientTheory(theory, bound=bound, cap=cap, samples=samples,
                          seed=seed, monoidal=monoidal)
