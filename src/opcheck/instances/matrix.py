"""Matrix theories over a semiring, including the substochastic instance.

Objects are natural numbers; an event n -> m is an n-by-m matrix whose
entries and row sums all lie in the sub-unit subset of the carrier (row =
source element, column = target element: morphisms act on the left of
row-indexed states).  An event is total when every row sums to one.

The substochastic instance is the same structure over the nonnegative
rationals, where the sub-unit subset is the rationals in [0, 1]; it keeps
a denominator grid so homsets become enumerable (exhaustive relative to
the grid).
"""

from __future__ import annotations

from itertools import product

from .. import kernel
from ..errors import (
    BoundExceeded,
    EntryOutOfRange,
    EventViolation,
    RowSumExceedsOne,
    ValidationError,
)
from ..theory import Morphism, Theory


class SemiringMatrices(Theory):
    """The category of matrices over ``self.semiring``, whatever the objects.

    An event between objects of sizes n and m is an n-by-m matrix: composition
    is the matrix product, the coproduct stacks rows, and pairing sets
    matrices side by side.  Subclasses supply the objects (``object_size``,
    ``coproduct``, ``zero`` and ``object_str``) and ``_diagnostic``, which
    turns a kernel ``EventViolation`` into their own error.

    Over :data:`kernel.RATIONALS01` an event is also held in its canonical
    integer form: the product is computed from the factors' forms and keeps
    its own, and ``payload_key`` is the form, so keyed lookups hash
    integers rather than ``Fraction``s.
    """

    def _m(self, dom, cod, rows):
        return Morphism(self, dom, cod, tuple(tuple(r) for r in rows))

    def identity(self, a):
        s = self.semiring
        n = self.object_size(a)
        return self._m(a, a, [[s.one if i == j else s.zero for j in range(n)]
                              for i in range(n)])

    def _compose(self, g, f):
        width = self.object_size(g.cod)
        try:
            if self.semiring is kernel.RATIONALS01:
                rows, form = kernel.rational_product(
                    self.rational_form(f), self.rational_form(g), width)
            else:
                rows, form = kernel.semiring_product(
                    self.semiring, f.payload, g.payload, width), None
        except EventViolation as bad:
            raise self._diagnostic(bad) from None
        return Morphism(self, f.dom, g.cod, rows, form)

    def zero_morphism(self, a, b):
        s = self.semiring
        return self._m(a, b, [[s.zero] * self.object_size(b)
                              for _ in range(self.object_size(a))])

    def coprojection(self, summands, i):
        s = self.semiring
        total = self.object_size(self.coproduct(summands))
        offset = self.object_size(self.coproduct(summands[:i]))
        n = self.object_size(summands[i])
        return self._m(summands[i], self.coproduct(summands),
                       [[s.one if c == offset + r else s.zero
                         for c in range(total)] for r in range(n)])

    def cotuple(self, summands, fs):
        rows = []
        for f in fs:
            rows.extend(f.payload)
        return self._m(self.coproduct(summands), fs[0].cod if fs else self.zero(),
                       rows)

    def equal(self, f, g, tol=None):
        return f.dom == g.dom and f.cod == g.cod and f.payload == g.payload

    def payload_key(self, f):
        if self.semiring is kernel.RATIONALS01:
            return self.rational_form(f)
        return f.payload

    @staticmethod
    def rational_form(f):
        """The :func:`kernel.rational_form` of ``f``'s rational payload,
        computed on first use and kept in ``f.form``."""
        form = f.form
        if form is None:
            form = f.form = kernel.rational_form(f.payload)
        return form

    def try_pairing(self, events):
        rows = kernel.side_by_side(self.semiring, [f.payload for f in events])
        if rows is None:
            return None
        return Morphism(self, events[0].dom,
                        self.coproduct(tuple(f.cod for f in events)), rows)

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
        return Morphism(self, dom, cod, rows)


class MatrixTheory(SemiringMatrices):
    monoidal = True

    def __init__(self, semiring, grid=2, name=None):
        self.semiring = semiring
        self.grid = grid
        self.name = name or f"mat_{semiring.name}"
        self._row_cache = {}

    # -- objects ----------------------------------------------------------
    def unit(self):
        return 1

    def zero(self):
        return 0

    def coproduct(self, summands):
        return sum(summands)

    def object_str(self, a):
        return str(a)

    def object_size(self, a):
        return a

    def probe_objects(self, bound):
        return list(range(0, bound + 1))

    # -- morphisms --------------------------------------------------------
    def discard(self, a):
        s = self.semiring
        return self._m(a, 1, [[s.one]] * a)

    # -- tests and merging -------------------------------------------------
    def effect_complements(self, e):
        s = self.semiring
        per_entry = [s.complements(e.payload[i][0]) for i in range(e.dom)]
        if any(not c for c in per_entry):
            return []
        return [self._m(e.dom, 1, [[c] for c in combo])
                for combo in product(*per_entry)]

    # -- enumeration -------------------------------------------------------
    def _valid_rows(self, m):
        key = (m, self.grid)
        if key not in self._row_cache:
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
            self._row_cache[key] = tuple(rows)
        return self._row_cache[key]

    def hom_count(self, a, b):
        return len(self._valid_rows(b)) ** a

    def enumerate_hom(self, a, b, cap=None):
        if cap is not None and self.hom_count(a, b) > cap:
            raise BoundExceeded(
                f"{self.name}: hom({a},{b}) has {self.hom_count(a, b)} elements",
                self.hom_count(a, b))
        rows = self._valid_rows(b)
        return [self._m(a, b, combo) for combo in product(rows, repeat=a)]

    def sample_hom(self, a, b, rng):
        rows = self._valid_rows(b)
        return self._m(a, b, [rows[rng.randrange(len(rows))] for _ in range(a)])

    # -- monoidal structure ------------------------------------------------
    def tensor_obj(self, a, b):
        return a * b

    def tensor(self, f, g):
        s = self.semiring
        rows = []
        for i in range(f.dom):
            for p in range(g.dom):
                row = []
                for j in range(f.cod):
                    for q in range(g.cod):
                        row.append(s.mul(f.payload[i][j], g.payload[p][q]))
                rows.append(row)
        return self._m(f.dom * g.dom, f.cod * g.cod, rows)

    def unitor_right(self, a):
        return self.identity(a)

    def unitor_left(self, a):
        return self.identity(a)

    def unitor_right_inv(self, a):
        return self.identity(a)

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
