"""Matrix theories over a semiring, including the substochastic instance.

Objects are natural numbers; an event n -> m is an n-by-m matrix whose
entries and row sums all lie in the sub-unit subset of the carrier (row =
source element, column = target element: morphisms act on the left of
row-indexed states).  An event is total when every row sums to one.

Every event is a :class:`MatrixEvent`, held in its carrier's form
(``semiring.form``), and all matrix arithmetic is done by the semiring on
those forms; no method here asks which carrier it has.  The substochastic
instance is the same structure over the nonnegative rationals, where the
sub-unit subset is the rationals in [0, 1] and the form is the canonical
integer one; it keeps a denominator grid so homsets become enumerable
(exhaustive relative to the grid), which is fixed when the theory is
built.  Sets and partial functions are the same structure over the
naturals, held in the same integer form, always over 1.
"""

from __future__ import annotations

from itertools import product

from .. import kernel
from ..errors import (
    EntryOutOfRange,
    EventViolation,
    RowSumExceedsOne,
    ValidationError,
)
from ..theory import Morphism, Theory


class MatrixEvent(Morphism):
    """An event of a semiring-matrix theory, born in its carrier's form
    ``form`` (``theory.semiring.form``).

    Its ``payload``, the rows of carrier elements, is given at birth or
    built by ``theory.semiring.rows`` when first read, and then kept.
    """

    __slots__ = ()

    def __init__(self, theory, dom, cod, form, rows=None):
        self.theory = theory
        self.dom = dom
        self.cod = cod
        self.form = form
        self.observation = None
        if rows is not None:
            self.payload = rows

    def __getattr__(self, name):
        # called only for a slot not yet set: the payload before its first read
        if name != "payload":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        rows = self.payload = self.theory.semiring.rows(self.form)
        return rows


class SemiringMatrices(Theory):
    """The category of matrices over ``self.semiring``, whatever the objects.

    An event between objects of sizes n and m is an n-by-m matrix: composition
    is the matrix product, the coproduct stacks rows, and pairing sets
    matrices side by side.  Subclasses supply the objects (``object_size``,
    ``coproduct``, ``zero`` and ``object_str``) and ``_diagnostic``, which
    turns a kernel ``EventViolation`` into their own error.

    Every event is a :class:`MatrixEvent`.  Composition, cotupling, pairing
    and equality work on the forms, and ``payload_key`` is the form, so over
    the rationals no ``Fraction`` arithmetic is done on those paths; the
    rows are built only where a payload is read (``repr``, witnesses, JSON
    and theory files).
    """

    def _m(self, dom, cod, rows):
        rows = tuple(tuple(r) for r in rows)
        return MatrixEvent(self, dom, cod, self.semiring.form(rows), rows)

    def _zero_one(self, dom, cod, bits):
        """The event whose matrix has the semiring's one where the rows of
        ``bits`` have 1, and its zero where they have 0."""
        return MatrixEvent(self, dom, cod, self.semiring.zero_one(
            tuple(tuple(r) for r in bits)))

    def identity(self, a):
        n = self.object_size(a)
        return self._zero_one(a, a, [[int(i == j) for j in range(n)]
                                     for i in range(n)])

    def _compose(self, g, f):
        try:
            form = self.semiring.product(f.form, g.form,
                                         self.object_size(g.cod))
        except EventViolation as bad:
            raise self._diagnostic(bad) from None
        return MatrixEvent(self, f.dom, g.cod, form)

    def zero_morphism(self, a, b):
        return self._zero_one(a, b, [[0] * self.object_size(b)
                                     for _ in range(self.object_size(a))])

    def coprojection(self, summands, i):
        total = self.object_size(self.coproduct(summands))
        offset = self.object_size(self.coproduct(summands[:i]))
        n = self.object_size(summands[i])
        return self._zero_one(summands[i], self.coproduct(summands),
                              [[int(c == offset + r) for c in range(total)]
                               for r in range(n)])

    def cotuple(self, summands, fs):
        cod = fs[0].cod if fs else self.zero()
        return MatrixEvent(self, self.coproduct(summands), cod,
                           self.semiring.stack([f.form for f in fs]))

    def equal(self, f, g, tol=None):
        return f.dom == g.dom and f.cod == g.cod and f.form == g.form

    def payload_key(self, f):
        return f.form

    def try_pairing(self, events):
        form = self.semiring.side_by_side([f.form for f in events])
        return None if form is None else MatrixEvent(
            self, events[0].dom,
            self.coproduct(tuple(f.cod for f in events)), form)

    def validate_event(self, payload, dom, cod):
        rows = tuple(tuple(r) for r in payload)
        n, m = self.object_size(dom), self.object_size(cod)
        if len(rows) != n or any(len(r) != m for r in rows):
            raise ValidationError(
                f"{self.name}: payload shape does not match "
                f"{self.object_str(dom)} -> {self.object_str(cod)}")
        try:
            kernel.check_event(self.semiring, rows)
        except EventViolation as bad:
            raise self._diagnostic(bad) from None
        return self._m(dom, cod, rows)


class MatrixTheory(SemiringMatrices):
    monoidal = True

    def __init__(self, semiring, grid=2, name=None):
        self.semiring = semiring
        self._grid = grid
        self.name = name or f"mat_{semiring.name}"
        self._row_cache = {}

    @property
    def grid(self):
        """The denominator grid homsets are enumerated on; it cannot be
        reassigned, since the kept homsets and rows are built on it."""
        return self._grid

    # -- objects ----------------------------------------------------------
    def unit(self):
        return 1

    def zero(self):
        return 0

    def coproduct(self, summands):
        return sum(summands)

    def object_size(self, a):
        return a

    def probe_objects(self, bound):
        return list(range(0, bound + 1))

    # -- morphisms --------------------------------------------------------
    def discard(self, a):
        return self._zero_one(a, 1, [[1]] * a)

    def probe_basis(self, a):
        """The point states and point effects of ``a``: the outcome of
        effect ``k`` after ``f`` after state ``i`` is the entry ``f[i][k]``,
        over any semiring, so they tell every two events apart."""
        points = [[int(i == j) for j in range(a)] for i in range(a)]
        return ([self._zero_one(1, a, [row]) for row in points],
                [self._zero_one(a, 1, [[x] for x in row]) for row in points])

    # -- tests and merging -------------------------------------------------
    def effect_complements(self, e):
        return [MatrixEvent(self, e.dom, 1, form)
                for form in self.semiring.effect_complements(e.form)]

    # -- enumeration -------------------------------------------------------
    def _valid_rows(self, m):
        if m not in self._row_cache:
            s = self.semiring
            els = [x for x in s.grid_elements(self.grid) if s.in_unit_interval(x)]
            rows = []
            # depth-first with running-sum pruning when addition cannot
            # bring an over-one sum back into the unit interval
            def extend(prefix, total):
                if len(prefix) == m:
                    if s.in_unit_interval(total):
                        rows.append(tuple(prefix))
                    return
                for x in els:
                    new_total = s.add(total, x)
                    if s.monotone and not s.in_unit_interval(new_total):
                        continue
                    prefix.append(x)
                    extend(prefix, new_total)
                    prefix.pop()
            extend([], s.zero)
            self._row_cache[m] = tuple(rows)
        return self._row_cache[m]

    def hom_count(self, a, b):
        return len(self._valid_rows(b)) ** a

    def _homset(self, a, b, cap):
        # each event stacks the forms of its rows, made once per valid row;
        # its payload is built from its form when first read
        s = self.semiring
        forms = [s.form((row,)) for row in self._valid_rows(b)]
        return (MatrixEvent(self, a, b, s.stack(rows))
                for rows in product(forms, repeat=a))

    def sample_hom(self, a, b, rng):
        rows = self._valid_rows(b)
        return self._m(a, b, [rows[rng.randrange(len(rows))] for _ in range(a)])

    # -- monoidal structure ------------------------------------------------
    def tensor_obj(self, a, b):
        return a * b

    def tensor(self, f, g):
        return MatrixEvent(self, f.dom * g.dom, f.cod * g.cod,
                           self.semiring.kron(f.form, g.form))

    unitor_left = SemiringMatrices.identity

    # -- validation --------------------------------------------------------
    def _diagnostic(self, bad):
        if bad.kind == "row":
            return RowSumExceedsOne(
                f"{self.name}: row {bad.row} sums to {bad.value!r}, which has no complement")
        why = "not in carrier" if bad.kind == "carrier" else "has no complement"
        return EntryOutOfRange(
            f"{self.name}: entry ({bad.row},{bad.col}) = {bad.value!r} {why}")


class SubStochTheory(MatrixTheory):
    """Substochastic rational matrices: probabilistic classical events."""

    def __init__(self, grid=4):
        super().__init__(kernel.RATIONALS01, grid=grid, name="substoch")


class PFunTheory(MatrixTheory):
    """Partial functions: each row holds at most one 1, in the column of
    the point its source goes to, if any."""

    def __init__(self):
        super().__init__(kernel.NATURALS, grid=1, name="pfun")
