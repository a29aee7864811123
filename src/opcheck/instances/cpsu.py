"""Sub-unital completely positive maps between finite-dimensional algebras.

An object is a tuple of block dimensions, standing for the direct sum of
full matrix algebras of those sizes; the trivial object is ``(1,)`` and the
zero object the empty tuple.  An event from A (dims d) to B (dims e) is
stored in the Heisenberg picture as a grid of blocks: block (i, j) is the
representation of a completely positive map from the j-th block of B into
the i-th block of A, kept as the 4-tensor ``C[k, a, l, b] = Phi(E_kl)[a, b]``
over the matrix units ``E_kl``.  Sub-unitality says the images of the block
identities sum below the identity in every row.

Comparisons are tolerance-based; positivity goes through the eigensolver on
the flattened block, so validity is decided up to the configured ``tol``.
"""

from __future__ import annotations

import numpy as np

from .. import kernel
from ..errors import (
    ChoiNotPositive,
    CompositionError,
    NotAvailable,
    NotSubUnital,
    ValidationError,
)
from ..theory import Morphism, Theory


def _freeze(arr):
    arr = np.ascontiguousarray(arr, dtype=complex)
    arr.flags.writeable = False
    return arr


def _block_identity(e, d):
    """The block of the identity event (requires e == d)."""
    c = np.zeros((e, d, e, d), dtype=complex)
    for k in range(e):
        for l in range(e):
            c[k, k, l, l] = 1.0
    return c


class CpsuTheory(Theory):
    name = "cpsu"
    monoidal = True

    def __init__(self, tol=kernel.DEFAULT_TOL):
        self.tol = tol

    # -- objects ----------------------------------------------------------
    def unit(self):
        return (1,)

    def zero(self):
        return ()

    def coproduct(self, summands):
        return tuple(d for a in summands for d in a)

    def object_str(self, a):
        return "(" + ",".join(str(d) for d in a) + ")"

    def object_size(self, a):
        return sum(a)

    def probe_objects(self, bound):
        out = [()]
        def compositions(total):
            if total == 0:
                yield ()
                return
            for first in range(1, total + 1):
                for rest in compositions(total - first):
                    yield (first,) + rest
        for n in range(1, bound + 1):
            out.extend(compositions(n))
        return out

    # -- morphisms --------------------------------------------------------
    def _m(self, dom, cod, blocks):
        frozen = tuple(tuple(_freeze(b) for b in row) for row in blocks)
        return Morphism(self, dom, cod, frozen)

    def identity(self, a):
        n = len(a)
        blocks = [[_block_identity(a[j], a[i]) if i == j
                   else np.zeros((a[j], a[i], a[j], a[i]), dtype=complex)
                   for j in range(n)] for i in range(n)]
        return self._m(a, a, blocks)

    def _compose(self, g, f):
        # block (i, k) of the composite pulls an effect on g.cod back
        # through g, then through f
        blocks = []
        for i in range(len(f.dom)):
            row = []
            for k in range(len(g.cod)):
                acc = np.zeros((g.cod[k], f.dom[i], g.cod[k], f.dom[i]),
                               dtype=complex)
                for j in range(len(f.cod)):
                    acc += np.einsum("pkql,kalb->paqb",
                                     g.payload[j][k], f.payload[i][j])
                row.append(acc)
            blocks.append(row)
        return self._m(f.dom, g.cod, blocks)

    def zero_morphism(self, a, b):
        return self._m(a, b, [[np.zeros((e, d, e, d), dtype=complex)
                               for e in b] for d in a])

    def coprojection(self, summands, i):
        total = self.coproduct(summands)
        offset = sum(len(s) for s in summands[:i])
        src = summands[i]
        blocks = []
        for r, d in enumerate(src):
            row = []
            for j, e in enumerate(total):
                if j == offset + r:
                    row.append(_block_identity(e, d))
                else:
                    row.append(np.zeros((e, d, e, d), dtype=complex))
            blocks.append(row)
        return self._m(src, total, blocks)

    def cotuple(self, summands, fs):
        if not fs:
            return self._m((), (), [])
        cod = fs[0].cod
        blocks = []
        for f in fs:
            blocks.extend(f.payload)
        return self._m(self.coproduct(summands), cod, blocks)

    def discard(self, a):
        return self._m(a, (1,), [[np.eye(d, dtype=complex).reshape(1, d, 1, d)]
                                 for d in a])

    def equal(self, f, g, tol=None):
        if f.dom != g.dom or f.cod != g.cod:
            return False
        if tol is None:
            tol = self.tol
        for row_f, row_g in zip(f.payload, g.payload):
            for bf, bg in zip(row_f, row_g):
                if not kernel.matrix_approx_eq(
                        bf.reshape(bf.shape[0] * bf.shape[1], -1),
                        bg.reshape(bg.shape[0] * bg.shape[1], -1), tol):
                    return False
        return True

    # -- tests and merging -------------------------------------------------
    def _unital_images(self, f):
        """Per-domain-block sum of the images of the codomain identities."""
        out = []
        for i, d in enumerate(f.dom):
            acc = np.zeros((d, d), dtype=complex)
            for j in range(len(f.cod)):
                acc += np.einsum("kakb->ab", f.payload[i][j])
            out.append(acc)
        return out

    def try_pairing(self, events):
        events = tuple(events)
        dom = events[0].dom
        blocks = [[] for _ in dom]
        for f in events:
            for i, row in enumerate(f.payload):
                blocks[i].extend(row)
        paired = self._m(dom, self.coproduct(tuple(f.cod for f in events)), blocks)
        for i, img in enumerate(self._unital_images(paired)):
            defect = np.eye(dom[i], dtype=complex) - img
            if not kernel.choi_positivity(defect, self.tol):
                return None
        return paired

    def effect_complements(self, e):
        blocks = []
        for i, d in enumerate(e.dom):
            img = np.einsum("kakb->ab", e.payload[i][0])
            blocks.append([(np.eye(d, dtype=complex) - img).reshape(1, d, 1, d)])
        return [self._m(e.dom, (1,), blocks)]

    # -- sampling ----------------------------------------------------------
    def sample_hom(self, a, b, rng):
        np_rng = np.random.default_rng(rng.getrandbits(64))
        blocks = []
        for d in a:
            row = []
            for e in b:
                k1 = np_rng.normal(size=(e, d)) + 1j * np_rng.normal(size=(e, d))
                k2 = np_rng.normal(size=(e, d)) + 1j * np_rng.normal(size=(e, d))
                c = (np.einsum("ka,lb->kalb", k1.conj(), k1)
                     + np.einsum("ka,lb->kalb", k2.conj(), k2))
                row.append(c)
            blocks.append(row)
        # scale each domain block so the unital images sum below identity
        for i, d in enumerate(a):
            img = np.zeros((d, d), dtype=complex)
            for c in blocks[i]:
                img += np.einsum("kakb->ab", c)
            top = kernel.min_eigenvalue(-img)
            scale = np_rng.uniform(0.1, 1.0) / max(-top, 1e-12)
            blocks[i] = [c * scale for c in blocks[i]]
        return self._m(a, b, blocks)

    # -- monoidal structure ------------------------------------------------
    def tensor_obj(self, a, b):
        return tuple(d * e for d in a for e in b)

    def tensor(self, f, g):
        blocks = []
        for i1 in range(len(f.dom)):
            for i2 in range(len(g.dom)):
                row = []
                for j1 in range(len(f.cod)):
                    for j2 in range(len(g.cod)):
                        c = np.einsum("kalb,KALB->kKaAlLbB",
                                      f.payload[i1][j1], g.payload[i2][j2])
                        e = f.cod[j1] * g.cod[j2]
                        d = f.dom[i1] * g.dom[i2]
                        row.append(c.reshape(e, d, e, d))
                blocks.append(row)
        return self._m(self.tensor_obj(f.dom, g.dom),
                       self.tensor_obj(f.cod, g.cod), blocks)

    def unitor_right(self, a):
        return self.identity(a)

    def unitor_left(self, a):
        return self.identity(a)

    def unitor_right_inv(self, a):
        return self.identity(a)

    def unitor_left_inv(self, a):
        return self.identity(a)

    # -- validation --------------------------------------------------------
    def validate_event(self, payload, dom, cod):
        blocks = []
        if len(payload) != len(dom):
            raise ValidationError(
                f"cpsu: expected {len(dom)} block rows, got {len(payload)}")
        for i, (d, row) in enumerate(zip(dom, payload)):
            if len(row) != len(cod):
                raise ValidationError(
                    f"cpsu: row {i} has {len(row)} blocks, expected {len(cod)}")
            checked = []
            for j, (e, c) in enumerate(zip(cod, row)):
                c = np.asarray(c, dtype=complex)
                if c.shape != (e, d, e, d):
                    raise ValidationError(
                        f"cpsu: block ({i},{j}) has shape {c.shape}, "
                        f"expected {(e, d, e, d)}")
                flat = c.reshape(e * d, e * d)
                if not kernel.choi_positivity(flat, self.tol):
                    raise ChoiNotPositive(
                        f"cpsu: block ({i},{j}) is not completely positive "
                        f"(min eigenvalue {kernel.min_eigenvalue((flat + flat.conj().T) / 2):.3e})")
                checked.append(c)
            blocks.append(checked)
        m = self._m(dom, cod, blocks)
        for i, img in enumerate(self._unital_images(m)):
            defect = np.eye(dom[i], dtype=complex) - img
            if not kernel.choi_positivity(defect, self.tol):
                raise NotSubUnital(
                    f"cpsu: block row {i} exceeds the identity "
                    f"(min defect eigenvalue {kernel.min_eigenvalue((defect + defect.conj().T) / 2):.3e})")
        return m


class FinHilbTheory(CpsuTheory):
    """The single-block restriction: only full matrix algebras as objects.

    Coproducts of two or more nontrivial objects leave the subcategory, so
    requesting one raises :class:`NotAvailable`.
    """

    name = "finhilb"

    def coproduct(self, summands):
        summands = tuple(summands)
        if not summands:
            raise NotAvailable("finhilb: no zero object in the single-block restriction")
        if len(summands) == 1:
            return summands[0]
        raise NotAvailable("finhilb: coproducts are not available")

    def zero(self):
        raise NotAvailable("finhilb: no zero object in the single-block restriction")

    def probe_objects(self, bound):
        return [(n,) for n in range(1, bound + 1)]

    def validate_event(self, payload, dom, cod):
        if len(dom) != 1 or len(cod) != 1:
            raise NotAvailable("finhilb: objects are single blocks")
        return super().validate_event(payload, dom, cod)

    def direct_sum_decision(self, summands, candidate):
        """Decide whether ``candidate`` is a direct sum of ``summands``.

        A direct sum would split the identity on the candidate block into
        injection-after-projection pieces whose merge is the identity.  The
        identity's block has a rank-one matrix form, so each piece must be a
        scalar multiple of the identity; the retraction equations force every
        scalar to be one, which the merge condition cannot accommodate for
        two or more nontrivial summands.  The certificate below re-verifies
        the rank-one fact numerically for the candidate at hand.
        """
        summands = tuple(summands)
        if len(summands) == 1:
            same = candidate == summands[0]
            return same, ("the summand itself" if same else "dimension mismatch")
        n = candidate[0]
        flat = _block_identity(n, n).reshape(n * n, n * n)
        eigs = np.linalg.eigvalsh(flat)
        rank = int(np.sum(eigs > self.tol))
        if rank != 1:
            return True, "rank certificate failed; cannot rule the candidate out"
        return False, (f"identity block on dimension {n} has rank-one form "
                       "(rank certificate verified); no splitting into "
                       f"{len(summands)} retraction pieces can merge to it")
