"""Block matrices: the morphisms between direct sums.

An object is a tuple of summands.  A morphism from ``(x_0, ..., x_n)`` to
``(y_0, ..., y_m)`` is a grid of entries, one row per source summand and
one column per target summand: entry ``(i, j)`` is a morphism from ``x_i``
to ``y_j`` of an underlying category of entries (Sec. 4, the direct-sum
completion; Lemma 4.2).  Composition is the matrix product, the coproduct
concatenates summands, pairing sets grids side by side and the tensor is
the Kronecker product, so all of this depends only on the grid.

Two theories are built this way.  ``PlusTheory`` completes a base theory,
whose events are its entries; ``CpsuTheory`` is block sums of full matrix
algebras, whose entries are completely positive maps between single blocks.
A subclass sets ``self.entries`` to the object that supplies the entry
operations (``identity``, ``zero_morphism``, ``discard``, ``equal``,
``effect_complements``, ``rounded_key``, ``object_size``, ``tensor_obj``,
``tensor`` and the unitor ``unitor_left``); an entry that ``zero_morphism``
or ``identity`` returns may be one shared read-only object, so grids never
write to their entries.  A subclass defines:

- ``unit``, ``object_str`` and ``probe_objects``;
- ``_m(dom, cod, grid)``, which wraps a grid as a morphism; it neither
  copies nor converts the entries, so each entry is made in its final form
  where it is computed (cpsu freezes its arrays there);
- ``try_pairing``, which extends the one here (the grids side by side) by
  deciding whether each row of the result is a partial test, and may
  override ``Theory.pairing_table`` and ``Theory.merge_table`` to decide
  and merge many pairs at once, as cpsu does on its stacked unital images
  and blocks;
- optionally ``Theory.outcome_key``, to compute every outcome of a
  separation scan at once, as cpsu does on stacked blocks;
- ``_dot(x, z, row, col)``, the entry from ``x`` to ``z`` of a matrix
  product: the merge over ``j`` of ``col[j]`` after ``row[j]``;
- enumeration, sampling (optionally ``Theory.sample_homset``, to draw a
  homset at once, as cpsu does over stacked blocks) and validation.
"""

from __future__ import annotations

from itertools import product

from .theory import Theory


class BlockMatrices(Theory):
    """Objects are tuples of summands, morphisms are grids of entries."""

    # -- objects -----------------------------------------------------------
    def zero(self):
        return ()

    def coproduct(self, summands):
        return tuple(x for s in summands for x in s)

    def object_size(self, a):
        size = self.entries.object_size
        return sum(size(x) for x in a)

    def tensor_obj(self, a, b):
        t = self.entries.tensor_obj
        return tuple(t(x, y) for x in a for y in b)

    # -- morphisms ---------------------------------------------------------
    def _diagonal(self, dom, cod, diag, offset=0):
        """The grid with ``diag[r]`` at ``(r, r + offset)`` and zeros elsewhere."""
        zero = self.entries.zero_morphism
        return self._m(dom, cod, [[diag[r] if j == r + offset else zero(x, y)
                                   for j, y in enumerate(cod)]
                                  for r, x in enumerate(dom)])

    def identity(self, a):
        one = self.entries.identity
        return self._diagonal(a, a, [one(x) for x in a])

    def _compose(self, g, f):
        cols = list(zip(*g.payload)) if g.payload else [()] * len(g.cod)
        dot = self._dot
        return self._m(f.dom, g.cod,
                       [[dot(x, z, row, col) for z, col in zip(g.cod, cols)]
                        for x, row in zip(f.dom, f.payload)])

    def zero_morphism(self, a, b):
        zero = self.entries.zero_morphism
        return self._m(a, b, [[zero(x, y) for y in b] for x in a])

    def coprojection(self, summands, i):
        one = self.entries.identity
        offset = sum(len(s) for s in summands[:i])
        return self._diagonal(summands[i], self.coproduct(summands),
                              [one(x) for x in summands[i]], offset)

    def cotuple(self, summands, fs):
        return self._m(self.coproduct(summands), fs[0].cod if fs else (),
                       [row for f in fs for row in f.payload])

    def discard(self, a):
        d = self.entries.discard
        return self._m(a, self.unit(), [[d(x)] for x in a])

    def equal(self, f, g, tol=None):
        if f.dom != g.dom or f.cod != g.cod:
            return False
        same = self.entries.equal
        return all(same(ef, eg, tol)
                   for rf, rg in zip(f.payload, g.payload)
                   for ef, eg in zip(rf, rg))

    def rounded_key(self, f):
        key = self.entries.rounded_key
        return tuple(tuple(key(e) for e in row) for row in f.payload)

    # -- tests and merging -------------------------------------------------
    def try_pairing(self, events):
        dom = events[0].dom
        grid = [[e for f in events for e in f.payload[i]]
                for i in range(len(dom))]
        return self._m(dom, self.coproduct(tuple(f.cod for f in events)), grid)

    def effect_complements(self, e):
        per_row = [self.entries.effect_complements(row[0]) for row in e.payload]
        return [self._m(e.dom, self.unit(), [[c] for c in combo])
                for combo in product(*per_row)]

    # -- monoidal structure ------------------------------------------------
    def tensor(self, f, g):
        t = self.entries.tensor
        return self._m(self.tensor_obj(f.dom, g.dom),
                       self.tensor_obj(f.cod, g.cod),
                       [[t(e1, e2) for e1 in r1 for e2 in r2]
                        for r1 in f.payload for r2 in g.payload])

    def unitor_left(self, a):
        lam = self.entries.unitor_left
        return self._diagonal(self.tensor_obj(self.unit(), a), a,
                              [lam(x) for x in a])
