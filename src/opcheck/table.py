"""Finite theories given by explicit tables.

A table theory lists a finite set of named base objects with sizes over a
semiring, and for every ordered pair of base objects an explicit set of
allowed event matrices.  Compound objects are tuples of base names (the
coproduct is concatenation, the empty tuple is the zero object); an event
between compound objects is a matrix assembled blockwise from allowed base
events, subject to the usual sub-unit row-sum condition.

The table must be closed: identities, zeros, the designated discard
effects, all composites and all merges of compatible listed events must
themselves be listed.  Closure is validated eagerly by
:func:`TableTheory.validate_tables`, so a malformed table fails at load
time with a located error instead of mid-check.
"""

from __future__ import annotations

from itertools import product

from . import kernel, ops
from .errors import (
    CompositionError,
    Incompatible,
    NotEnumerable,
    TheoryFileError,
    ValidationError,
)
from .instances.matrix import SemiringMatrices


class TableTheory(SemiringMatrices):
    monoidal = False

    def __init__(self, name, semiring, sizes, unit_name, homs, discards,
                 tests=None, coarse_grain_table=None):
        """``sizes`` maps base-object names to positive sizes; ``homs`` maps
        ordered name pairs to lists of ``(event_name, payload)``; ``discards``
        maps each base name to the event name of its discard effect."""
        self.name = name
        self.semiring = semiring
        self.sizes = dict(sizes)
        self.unit_name = unit_name
        self.order = list(self.sizes)
        self.homs = {pair: list(entries) for pair, entries in homs.items()}
        self.discards = dict(discards)
        self.tests = dict(tests or {})
        self.coarse_grain_table = list(coarse_grain_table or [])
        self.validate_tables()

    # -- objects ----------------------------------------------------------
    def unit(self):
        return (self.unit_name,)

    def zero(self):
        return ()

    def coproduct(self, summands):
        return tuple(n for a in summands for n in a)

    def object_str(self, a):
        return "+".join(a) if a else "0"

    def object_size(self, a):
        return sum(self.sizes[n] for n in a)

    def probe_objects(self, bound):
        out = [()]
        singles = [(n,) for n in self.order if self.sizes[n] <= bound]
        out.extend(singles)
        for i, (x,) in enumerate(singles):
            for (y,) in singles[i:]:
                if self.sizes[x] + self.sizes[y] <= bound:
                    out.append((x, y))
        return out

    # -- morphisms --------------------------------------------------------
    def discard(self, a):
        rows = []
        for n in a:
            rows.extend(self._discard_payload(n))
        return self._m(a, self.unit(), rows)

    def _discard_payload(self, base_name):
        ev = self.discards[base_name]
        for nm, payload in self.homs[(base_name, self.unit_name)]:
            if nm == ev:
                return payload
        raise TheoryFileError(f"discard event {ev!r} not found",
                              f"hom({base_name},{self.unit_name})")

    # -- enumeration -------------------------------------------------------
    def _base_payloads(self, x, y):
        if (x, y) not in self.homs:
            raise TheoryFileError(f"no hom table for ({x},{y})", f"hom({x},{y})")
        return [payload for _, payload in self.homs[(x, y)]]

    def hom_count(self, a, b):
        count = 1
        for x in a:
            for y in b:
                count *= len(self._base_payloads(x, y))
        return count

    def _homset(self, a, b, cap):
        block_lists = [self._base_payloads(x, y) for x in a for y in b]
        for choice in product(*block_lists):
            # block (ri, ci) is choice[ri * len(b) + ci]; a row of the event
            # is row r of every block in its block row, side by side
            rows = [[e for ci in range(len(b))
                     for e in choice[ri * len(b) + ci][r]]
                    for ri, x in enumerate(a) for r in range(self.sizes[x])]
            if all(kernel.row_in_unit(self.semiring, row) for row in rows):
                yield self._m(a, b, rows)

    def sample_hom(self, a, b, rng):
        all_homs = self.enumerate_hom(a, b)
        if not all_homs:
            raise NotEnumerable(f"{self.name}: empty hom set")
        return all_homs[rng.randrange(len(all_homs))]

    # -- validation --------------------------------------------------------
    def _diagnostic(self, bad):
        if bad.kind == "row":
            return ValidationError(
                f"{self.name}: row {bad.row} sums outside the unit interval")
        return ValidationError(
            f"{self.name}: entry ({bad.row},{bad.col}) = {bad.value!r} out of range")

    def _find(self, x, y, payload):
        for nm, p in self.homs[(x, y)]:
            if p == payload:
                return nm
        return None

    def validate_tables(self):
        if self.unit_name not in self.sizes:
            raise TheoryFileError(f"unit object {self.unit_name!r} not declared",
                                  "objects")
        if self.sizes[self.unit_name] != 1:
            raise TheoryFileError("the unit object must have size 1", "objects")
        for (x, y), entries in self.homs.items():
            for nm, payload in entries:
                try:
                    self.validate_event(payload, (x,), (y,))
                except ValidationError as exc:
                    raise TheoryFileError(str(exc), f"event {nm!r}") from exc
        for x in self.sizes:
            for y in self.sizes:
                if (x, y) not in self.homs:
                    raise TheoryFileError(f"missing hom table for ({x},{y})",
                                          f"hom({x},{y})")
                zero = self.zero_morphism((x,), (y,)).payload
                if self._find(x, y, zero) is None:
                    raise TheoryFileError("zero event missing", f"hom({x},{y})")
            ident = self.identity((x,)).payload
            if self._find(x, x, ident) is None:
                raise TheoryFileError("identity event missing", f"hom({x},{x})")
            if x not in self.discards:
                raise TheoryFileError(f"no discard designated for {x!r}",
                                      "discards")
            self._discard_payload(x)
        # closure under composition
        for (x, y), fs in self.homs.items():
            for z in self.sizes:
                for fn, fp in fs:
                    f = self._m((x,), (y,), fp)
                    for gn, gp in self.homs[(y, z)]:
                        g = self._m((y,), (z,), gp)
                        comp = self._compose(g, f)
                        if self._find(x, z, comp.payload) is None:
                            raise TheoryFileError(
                                f"composite {gn!r} . {fn!r} not listed",
                                f"hom({x},{z})")
        # closure under merging of compatible events
        for (x, y), fs in self.homs.items():
            for fn, fp in fs:
                f = self._m((x,), (y,), fp)
                for gn, gp in fs:
                    try:
                        merged = ops.coarse_grain(f, self._m((x,), (y,), gp))
                    except Incompatible:
                        continue
                    if self._find(x, y, merged.payload) is None:
                        raise TheoryFileError(
                            f"merge {fn!r} v {gn!r} not listed", f"hom({x},{y})")
        # declared tests must form partial tests
        by_name = {}
        for (x, y), entries in self.homs.items():
            for nm, payload in entries:
                by_name.setdefault(nm, []).append(self._m((x,), (y,), payload))
        for test_name, event_names in self.tests.items():
            events = []
            for nm in event_names:
                if nm not in by_name or len(by_name[nm]) != 1:
                    raise TheoryFileError(
                        f"test refers to unknown or ambiguous event {nm!r}",
                        f"test {test_name!r}")
                events.append(by_name[nm][0])
            if self.try_pairing(events) is None:
                raise TheoryFileError("events do not form a partial test",
                                      f"test {test_name!r}")
        # declared coarse-grain identities must agree with matrix merging
        for fn, gn, hn in self.coarse_grain_table:
            for nm in (fn, gn, hn):
                if nm not in by_name or len(by_name[nm]) != 1:
                    raise TheoryFileError(
                        f"coarse-grain entry names unknown event {nm!r}",
                        "coarse_grain")
            f, g, h = by_name[fn][0], by_name[gn][0], by_name[hn][0]
            try:
                merged = ops.coarse_grain(f, g)
            except (CompositionError, Incompatible):
                raise TheoryFileError(
                    f"{fn!r} and {gn!r} are not compatible", "coarse_grain") from None
            if merged.payload != h.payload:
                raise TheoryFileError(
                    f"{fn!r} v {gn!r} does not equal {hn!r}", "coarse_grain")
