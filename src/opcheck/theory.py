"""The abstract contract for an operational theory.

A :class:`Theory` is a category of events with finite coproducts, a zero
object and a family of discarding effects (one per object), together with
the structure every derived operation is built from: cotupling, a pairing
procedure deciding which event families merge into one, and optionally a
tensor and a probe basis (:meth:`Theory.probe_basis`: finitely many states
and effects that decide operational equivalence as all of them do).
Objects are plain hashable values whose shape is documented per instance;
morphisms are :class:`Morphism` records tagged with their theory.
Three hooks work per scan or per homset and default to a loop of the
one-at-a-time operation: :meth:`Theory.pairing_table` decides which pairs
of two event lists pair, :meth:`Theory.merge_table` merges every pair of
two parallel lists that pairs, and :meth:`Theory.sample_homset` draws a
sampled homset; an instance may do each at once, giving what the loop
gives.

All values are immutable after construction and every operation is a pure
function, so theories may be shared freely between workers.  The
exceptions are derived caches that never change what a value is: a
cpsu morphism's ``form`` slot, which it fills on first use with a value
computed from the payload alone; every morphism's ``observation`` slot,
which ``ops.observation`` fills with its discard composite on first use;
the payload of a semiring-matrix event, which is derived from its form on
first read (the form itself is set when the event is born); the store of
homsets that :meth:`Theory.enumerate_hom` keeps, one tuple per
``(a, b)``; and an instance's memos of the codiagonals that
``ops.codiagonal`` has built and of the discard effects that
``ops._discard`` has built.
"""

from __future__ import annotations

from .errors import BoundExceeded, CompositionError, NotEnumerable, NotMonoidal


class Morphism:
    """An event: an instance-tagged payload with explicit domain and codomain.

    Equality delegates to the owning theory (exact for the discrete and
    rational instances, tolerance-based for the operator instance), so
    morphisms of different theories never compare equal.

    ``form`` is None or a value that the owning theory derives from the
    payload alone and keeps: cpsu keeps the unital image of each entry
    there.  It never changes what the morphism is.  A semiring-matrix event
    (``instances.matrix.MatrixEvent``) turns this around: it is born in its
    carrier's form, on which all its arithmetic is done, and its payload of
    rows is derived from that form on first read.

    ``observation`` is None or the discard composite ``discard . f``, which
    ``ops.observation`` computes on first use and keeps there.
    """

    __slots__ = ("theory", "dom", "cod", "payload", "form", "observation")

    def __init__(self, theory, dom, cod, payload, form=None):
        self.theory = theory
        self.dom = dom
        self.cod = cod
        self.payload = payload
        self.form = form
        self.observation = None

    def __eq__(self, other):
        if not isinstance(other, Morphism) or self.theory is not other.theory:
            return NotImplemented
        return self.theory.equal(self, other)

    def __ne__(self, other):
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    __hash__ = None

    def __repr__(self):
        return (f"Morphism({self.theory.name}: {self.theory.object_str(self.dom)}"
                f" -> {self.theory.object_str(self.cod)}, {self.payload!r})")


class Theory:
    """Base class for operational theories (partial-form presentation)."""

    name = "theory"
    monoidal = False
    #: comparison tolerance, or None when equality is exact
    tol = None

    # -- objects ----------------------------------------------------------
    def unit(self):
        raise NotImplementedError

    def zero(self):
        raise NotImplementedError

    def coproduct(self, summands):
        """Object of the finite coproduct of ``summands`` (a tuple).

        Iterated coproducts are flattened: the canonical n-ary coproduct is
        built in one go rather than by nesting binary ones.
        """
        raise NotImplementedError

    def object_str(self, a):
        return repr(a)

    def probe_objects(self, bound):
        """Deterministic list of probe objects of size up to ``bound``."""
        raise NotImplementedError

    def object_size(self, a):
        raise NotImplementedError

    # -- morphisms --------------------------------------------------------
    def identity(self, a):
        raise NotImplementedError

    def compose(self, g, f):
        """The composite ``g`` after ``f``; raises on a signature mismatch."""
        if f.cod != g.dom:
            raise self._mismatch(f.dom, f.cod, g)
        return self._compose(g, f)

    def _mismatch(self, dom, cod, g):
        """The :class:`CompositionError` of ``g`` after an event from
        ``dom`` to ``cod``, whose codomain is not ``g``'s domain."""
        return CompositionError(
            f"{self.name}: cannot compose {self.object_str(dom)}->{self.object_str(cod)} "
            f"then {self.object_str(g.dom)}->{self.object_str(g.cod)}")

    def _compose(self, g, f):
        raise NotImplementedError

    def zero_morphism(self, a, b):
        raise NotImplementedError

    def coprojection(self, summands, i):
        """The coprojection of summand ``i`` into the coproduct."""
        raise NotImplementedError

    def cotuple(self, summands, fs):
        """The unique morphism out of a coproduct restricting to each ``fs[i]``."""
        raise NotImplementedError

    def discard(self, a):
        raise NotImplementedError

    def equal(self, f, g, tol=None):
        """Whether ``f`` and ``g`` are the same event.

        A tolerance-based theory compares within ``tol``, or within its own
        ``self.tol`` when ``tol`` is None; exact theories ignore ``tol``.
        """
        raise NotImplementedError

    def payload_key(self, f):
        """A hashable canonical key for exact payloads (dedup, dict lookup).

        Only exact theories need support this; tolerance-based ones raise.
        """
        raise NotEnumerable(f"{self.name}: payloads have no exact key")

    def rounded_key(self, f):
        """A hashable key for any payload: the exact key where there is one,
        else a rounded fingerprint that events equal within the tolerance
        share, barring values that round apart.
        """
        return self.payload_key(f)

    def outcome_key(self, f, states, effects):
        """A hashable key of the outcomes of ``f``: two events of one homset
        get equal keys exactly when each outcome ``e . f . w``, over ``w``
        in ``states`` and ``e`` in ``effects``, has the same
        :meth:`rounded_key` for both (Sec. 5's operational equivalence on a
        finite probe set).  The states go out of the trivial object into
        ``f.dom``, the effects from ``f.cod`` into it.

        The default composes each outcome: ``f . w`` for every state, then
        ``e . (f . w)`` for every effect, state by state.  An instance may
        compute all outcomes at once; it must raise
        :class:`CompositionError` where ``compose`` would.
        """
        return tuple(self.rounded_key(self.compose(e, fw))
                     for fw in [self.compose(f, w) for w in states]
                     for e in effects)

    def probe_basis(self, a):
        """``(states, effects)``: finitely many states ``unit -> a`` and
        effects ``a -> unit`` such that two events share an
        :meth:`outcome_key` over the states into their domain and the
        effects out of their codomain exactly when they share one over
        every state and effect; or None when the theory has no such set.

        The default is None: operational equivalence is then decided on
        the enumerated (or sampled) states and effects themselves.  An
        instance whose events are read off by a few probes, as a matrix is
        by its point states and effects, returns those.
        """
        return None

    def morphism_key(self, f):
        """The exact key ``(dom, cod, payload_key)`` of event ``f``, or None
        when it has none (``payload_key`` raises ``NotEnumerable``)."""
        try:
            return (f.dom, f.cod, self.payload_key(f))
        except NotEnumerable:
            return None

    # -- tests and merging ------------------------------------------------
    def try_pairing(self, events):
        """Pairing morphism into the coproduct of codomains, or None.

        ``events`` is a nonempty sequence with common domain.  A non-None
        result witnesses that the family forms a partial test; None means
        the instance admits no joint test containing the family.
        """
        raise NotImplementedError

    def pairing_table(self, fs, gs):
        """One row of booleans per event of ``fs``: entry ``j`` of the row
        of ``f`` says whether ``[f, gs[j]]`` pair (``try_pairing``).

        The events of ``fs`` and of ``gs`` share one domain; the events of
        ``fs`` share a codomain, and so do those of ``gs``.  The default
        asks ``self.try_pairing`` for each entry, lazily, when the row and
        the entry are read, so its calls interleave with the reader's work
        as a loop of ``try_pairing`` calls would.  An instance may decide
        the whole table at once; every entry must equal the default's.
        """
        def row(f):
            return (self.try_pairing([f, g]) is not None for g in gs)
        return map(row, fs)

    def merge_table(self, fs, gs):
        """One row per event of ``fs``: entry ``j`` of the row of ``f`` is
        the merge ``f v gs[j]`` (the codiagonal after their pairing), or
        None when they do not pair.

        The events of ``fs`` and ``gs`` are parallel.  The default decides
        and merges each entry by ``self.try_pairing``, lazily, as
        :meth:`pairing_table` does.  An instance may build the whole table
        at once; every entry must equal the default's.
        """
        from . import ops

        def merge(f, g):
            h = self.try_pairing([f, g])
            return None if h is None else ops.merge_pairing(h, f.cod)

        def row(f):
            return (merge(f, g) for g in gs)
        return map(row, fs)

    def effect_complements(self, e):
        """All effects ``b`` with ``e`` merged with ``b`` equal to discard.

        The default enumerates the effect homset, which only works for
        enumerable theories; instances override with analytic answers.
        """
        from . import ops
        out = []
        for b in self.enumerate_hom(e.dom, self.unit()):
            h = self.try_pairing([e, b])
            if h is None:
                continue
            if self.equal(ops.merge_pairing(h, e.cod), self.discard(e.dom)):
                out.append(b)
        return out

    # -- enumeration / sampling -------------------------------------------
    def enumerate_hom(self, a, b, cap=None):
        """Complete duplicate-free enumeration of hom(a, b), fixed order:
        one tuple, built by :meth:`_homset` on the first call for ``(a, b)``
        and returned by every later call.  Raises :class:`NotEnumerable`
        when impossible, keeping nothing, and :class:`BoundExceeded`
        whenever :meth:`hom_count` passes ``cap``, kept homset or not.
        """
        count = self.hom_count(a, b) if cap is not None else None
        if count is not None and count > cap:
            raise BoundExceeded(f"homset size {count} over cap", count)
        store = vars(self).setdefault("_homsets", {})
        homs = store.get((a, b))
        if homs is None:
            homs = store[a, b] = tuple(self._homset(a, b, cap))
        return homs

    def _homset(self, a, b, cap):
        """The events of hom(a, b) in order, for :meth:`enumerate_hom` to
        keep; a subclass whose count is known only as it builds tests
        ``cap`` here."""
        raise NotEnumerable(f"{self.name}: hom enumeration not supported")

    def hom_count(self, a, b):
        """The number of events enumerating hom(a, b) visits (a bound on
        its size), when cheap to know without building them; else None."""
        return None

    def sample_hom(self, a, b, rng):
        """One pseudo-random morphism a -> b (used where enumeration fails)."""
        raise NotEnumerable(f"{self.name}: hom sampling not supported")

    def sample_homset(self, a, b, rng, n):
        """``n`` pseudo-random morphisms a -> b: by default ``n`` calls of
        :meth:`sample_hom`.  An instance may draw them at once; it must
        return what those calls return and leave ``rng`` where they do."""
        return [self.sample_hom(a, b, rng) for _ in range(n)]

    # -- monoidal structure (optional) -------------------------------------
    def tensor_obj(self, a, b):
        raise NotMonoidal(f"{self.name} has no tensor")

    def tensor(self, f, g):
        raise NotMonoidal(f"{self.name} has no tensor")

    def unitor_left(self, a):
        """The canonical isomorphism from unit tensor ``a`` to ``a``."""
        raise NotMonoidal(f"{self.name} has no tensor")

    # -- validation --------------------------------------------------------
    def validate_event(self, payload, dom, cod):
        """Checked :class:`Morphism` or a diagnostic naming the violation."""
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"

