"""Sub-unital completely positive maps between finite-dimensional algebras.

An object is a tuple of block dimensions, standing for the direct sum of
full matrix algebras of those sizes; the trivial object is ``(1,)`` and the
zero object the empty tuple.  An event from A (dims d) to B (dims e) is a
block matrix (:mod:`opcheck.blocks`): a grid with one row per block of A
and one column per block of B.  It is stored in the Heisenberg picture:
block (i, j) is the representation of a completely positive map from the
j-th block of B into the i-th block of A, kept as the 4-tensor
``C[k, a, l, b] = Phi(E_kl)[a, b]`` of shape ``(e_j, d_i, e_j, d_i)`` over
the matrix units ``E_kl``.  Sub-unitality says the images of the block
identities sum below the identity in every row.

Comparisons are tolerance-based; positivity goes through the eigensolver on
the flattened block, so validity is decided up to the configured ``tol``.
A one-dimensional block is its own eigenvalue, so it skips the eigensolver
(:func:`opcheck.kernel.min_eigenvalue`).

The zero block and the identity block of each shape are shared read-only
arrays, built once: every zero morphism, identity, coprojection,
projection and codiagonal holds these very objects.  A product tells them
apart by object identity, never by value: it leaves out each term with a
shared zero factor, takes the other factor as it is when one factor is a
shared identity, and sums what is left from its first term.  Each entry
then equals the full sum over every block up to the sign of zero, so a
product with a coprojection selects entries and a merge (the codiagonal
after a pairing) adds them, without an ``einsum``.

Every entry is a read-only complex C-contiguous array from the moment it
is made: a sampled or validated block, a product, a tensor and an effect
complement are frozen where they are computed, and every other grid reuses
the frozen entries of existing events.  ``CpsuTheory._m`` only wraps a grid.

An event keeps the unital image of each of its entries in ``Morphism.form``,
filled on first use; a pairing assembles its rows' images from its events'
images and decides sub-unitality from them.  ``pairing_table`` decides a
whole scan of pairs that way: per domain block it stacks the events'
images, sums them in the order that a pairing sums them and decides every
defect in one stacked eigensolver call, so each entry is what
``try_pairing`` decides for that pair.  ``outcome_key`` stacks the outcomes
of a separation scan per block the same way: per block pair it forms
``f . w`` for every state in one ``einsum``, summed over the domain blocks
in ``_dot``'s order, contracts that with every effect per codomain block
and rounds the states-by-effects array once, so each outcome has the bits
of its composite up to the sign of zero.
"""

from __future__ import annotations

import functools

import numpy as np

from .. import kernel
from ..blocks import BlockMatrices
from ..errors import (
    ChoiNotPositive,
    NotAvailable,
    NotSubUnital,
    ValidationError,
)
from ..theory import Morphism


def _freeze(arr):
    """``arr`` as a read-only complex C-contiguous array: itself when it is
    one already.  A writable complex C-contiguous array is made read-only
    in place, so pass only arrays that nothing else holds; any other array
    is copied first."""
    flags = arr.flags
    if not flags.writeable and flags.c_contiguous and arr.dtype == complex:
        return arr
    arr = np.ascontiguousarray(arr, dtype=complex)
    arr.flags.writeable = False
    return arr


@functools.cache
def _eye(d):
    """The d-by-d identity matrix, shared and so read-only."""
    return _freeze(np.eye(d, dtype=complex))


@functools.cache
def _block_zero(d, e):
    """The block of the zero map from the d-by-d to the e-by-e matrices
    (shared)."""
    return _freeze(np.zeros((e, d, e, d), dtype=complex))


@functools.cache
def _block_identity(d):
    """The block of the identity map on the d-by-d matrices (shared)."""
    c = np.zeros((d, d, d, d), dtype=complex)
    for k in range(d):
        for l in range(d):
            c[k, k, l, l] = 1.0
    return _freeze(c)


class CpBlocks:
    """Completely positive maps between single full matrix algebras: the
    entries of cpsu's grids.  An object is a dimension; the map from ``d``
    to ``e`` is an ``(e, d, e, d)`` 4-tensor, compared within ``tol``."""

    def __init__(self, tol):
        self.tol = tol

    def object_size(self, d):
        return d

    def tensor_obj(self, d, e):
        return d * e

    def identity(self, d):
        return _block_identity(d)

    unitor_left = identity

    def zero_morphism(self, d, e):
        return _block_zero(d, e)

    def discard(self, d):
        return _eye(d).reshape(1, d, 1, d)

    def equal(self, c1, c2, tol=None):
        if c1 is c2:
            return True
        if c1.shape != c2.shape:
            return False
        tol = self.tol if tol is None else tol
        return bool(np.abs(c1 - c2).max(initial=0.0) <= tol)

    def rounded_key(self, c):
        # adding 0.0 turns -0.0 into 0.0, so that entries equal up to the
        # sign of zero give the same bytes
        return (np.round(c, 6) + 0.0).tobytes()

    def effect_complements(self, c):
        d = c.shape[1]
        img = np.einsum("kakb->ab", c)
        return [_freeze((_eye(d) - img).reshape(1, d, 1, d))]

    def tensor(self, c1, c2):
        e = c1.shape[0] * c2.shape[0]
        d = c1.shape[1] * c2.shape[1]
        return _freeze(
            np.einsum("kalb,KALB->kKaAlLbB", c1, c2).reshape(e, d, e, d))


class CpsuTheory(BlockMatrices):
    name = "cpsu"
    monoidal = True

    def __init__(self, tol=kernel.DEFAULT_TOL):
        self.tol = tol
        self.entries = CpBlocks(tol)

    # -- objects ----------------------------------------------------------
    def unit(self):
        return (1,)

    def object_str(self, a):
        return "(" + ",".join(str(d) for d in a) + ")"

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
        # every entry is frozen already (see the module docstring)
        return Morphism(self, dom, cod, tuple(map(tuple, blocks)))

    def _dot(self, x, z, row, col):
        # pull an effect on block z back through col[j], then through row[j];
        # the shared zero and identity blocks are tested by identity (see
        # the module docstring)
        one_x, one_z = _block_identity(x), _block_identity(z)
        acc = None
        for f, g in zip(row, col):
            y = f.shape[0]
            if f is _block_zero(x, y) or g is _block_zero(y, z):
                continue
            if f is one_x:
                term = g
            elif g is one_z:
                term = f
            else:
                term = _freeze(np.einsum("pkql,kalb->paqb", g, f))
            acc = term if acc is None else _freeze(acc + term)
        return _block_zero(x, z) if acc is None else acc

    def outcome_key(self, f, states, effects):
        # per block pair (j, k), f . w for every state in one einsum, summed
        # over j in _dot's order; then per codomain block k, every effect
        # after those in one einsum, summed over k.  Zero and identity
        # blocks enter the sums, which changes at most the sign of a zero
        for w in states:
            if w.cod != f.dom:
                raise self._mismatch(w.dom, w.cod, f)
        if not states:  # no f . w for an effect to follow
            return b""
        for e in effects:
            if e.dom != f.cod:
                raise self._mismatch(states[0].dom, f.cod, e)
        if not effects:
            return b""
        s, t = len(states), len(effects)
        state_blocks = [np.stack([w.payload[0][j] for w in states])
                        for j in range(len(f.dom))]
        outcomes = np.zeros((s, t), dtype=complex)
        for k, e in enumerate(f.cod):
            fw = sum((np.einsum("pkql,skalb->spaqb", row[k], ws)
                      for row, ws in zip(f.payload, state_blocks)),
                     np.zeros((s, e, 1, e, 1), dtype=complex))
            effect_blocks = np.stack([x.payload[k][0] for x in effects])
            outcomes += np.einsum("tpkql,skalb->stpaqb", effect_blocks,
                                  fw).reshape(s, t)
        return self.entries.rounded_key(outcomes)

    # -- tests and merging -------------------------------------------------
    @staticmethod
    def _images(f):
        """The unital image of each entry of ``f``, row by row: block
        ``(i, j)`` sends the identity of block ``j`` to this ``d_i``-square
        matrix.  Computed on first use and kept in ``f.form``."""
        images = f.form
        if images is None:
            images = f.form = tuple(
                tuple(np.einsum("kakb->ab", c) for c in row)
                for row in f.payload)
        return images

    def _first_excess(self, dom, images):
        """``(i, defect)`` for the first row ``i`` whose unital ``images`` do
        not sum below the identity, or None when every row is sub-unital."""
        for i, (d, row) in enumerate(zip(dom, images)):
            defect = _eye(d) - sum(row[1:], row[0]) if row else _eye(d)
            if not kernel.choi_positivity(defect, self.tol):
                return i, defect
        return None

    def try_pairing(self, events):
        # the paired rows' images are the events' images side by side, so
        # a family that is not sub-unital is refused before its grid is built
        dom = events[0].dom
        per_event = [self._images(f) for f in events]
        images = tuple(tuple(im for rows in per_event for im in rows[i])
                       for i in range(len(dom)))
        if self._first_excess(dom, images):
            return None
        paired = super().try_pairing(events)
        paired.form = images
        return paired

    def pairing_table(self, fs, gs):
        # per domain block, the defects 1 - U_f - U_g of every pair at once,
        # summed column block by column block as _first_excess sums a row,
        # so each defect has the bits that try_pairing decides on
        table = np.ones((len(fs), len(gs)), dtype=bool)
        if not (fs and gs):
            return table.tolist()
        f_images = [self._images(f) for f in fs]
        g_images = [self._images(g) for g in gs]
        for i, d in enumerate(fs[0].dom):
            row = ([np.stack([im[i][j] for im in f_images])[:, None]
                    for j in range(len(fs[0].cod))]
                   + [np.stack([im[i][j] for im in g_images])[None, :]
                      for j in range(len(gs[0].cod))])
            if row:  # else the defect is the identity
                table &= self._sub_unital(_eye(d) - sum(row[1:], row[0]))
        return table.tolist()

    def _sub_unital(self, defects):
        """Whether each matrix of a stack of square ``defects`` passes
        :func:`opcheck.kernel.choi_positivity`, by the same comparisons."""
        tol = self.tol
        herm = np.abs(defects - defects.conj().swapaxes(-1, -2)).max(
            axis=(-2, -1)) <= tol
        if defects.shape[-1] == 1:
            return herm & (defects[..., 0, 0].real >= -tol)
        ok = np.zeros(herm.shape, dtype=bool)
        if herm.any():
            ok[herm] = kernel.least_eigenvalues(defects[herm]) >= -tol
        return ok

    # -- sampling ----------------------------------------------------------
    def sample_hom(self, a, b, rng):
        seed = rng.getrandbits(64)
        if not a or not b:
            # the homset has one member; the seed is drawn all the same, so
            # the draws that follow do not depend on the shortcut
            return self.zero_morphism(a, b)
        np_rng = np.random.default_rng(seed)
        # block (i, j) takes four (e, d) draws, in block order: the real and
        # imaginary parts of one Kraus operator, then of a second
        normals = np_rng.normal(size=4 * sum(a) * sum(b))
        at = 0
        blocks = []
        for d in a:
            row = []
            for e in b:
                k = normals[at:at + 4 * e * d].reshape(2, 2, e, d)
                at += 4 * e * d
                kraus = k[:, 0] + 1j * k[:, 1]
                row.append(np.einsum("nka,nlb->kalb", kraus.conj(), kraus))
            blocks.append(row)
        # scale each domain block so the unital images sum below identity
        peaks = np_rng.uniform(0.1, 1.0, size=len(a))
        for i, d in enumerate(a):
            img = np.zeros((d, d), dtype=complex)
            for c in blocks[i]:
                img += np.einsum("kakb->ab", c)
            top = kernel.min_eigenvalue(-img)
            scale = peaks[i] / max(-top, 1e-12)
            blocks[i] = [_freeze(c * scale) for c in blocks[i]]
        return self._m(a, b, blocks)

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
                c = np.array(c, dtype=complex)  # the event's own copy
                if c.shape != (e, d, e, d):
                    raise ValidationError(
                        f"cpsu: block ({i},{j}) has shape {c.shape}, "
                        f"expected {(e, d, e, d)}")
                flat = c.reshape(e * d, e * d)
                if not kernel.choi_positivity(flat, self.tol):
                    raise ChoiNotPositive(
                        f"cpsu: block ({i},{j}) is not completely positive "
                        f"(min eigenvalue {kernel.min_eigenvalue((flat + flat.conj().T) / 2):.3e})")
                checked.append(_freeze(c))
            blocks.append(checked)
        m = self._m(dom, cod, blocks)
        excess = self._first_excess(dom, self._images(m))
        if excess:
            i, defect = excess
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
        flat = _block_identity(n).reshape(n * n, n * n)
        eigs = np.linalg.eigvalsh(flat)
        rank = int(np.sum(eigs > self.tol))
        if rank != 1:
            return True, "rank certificate failed; cannot rule the candidate out"
        return False, (f"identity block on dimension {n} has rank-one form "
                       "(rank certificate verified); no splitting into "
                       f"{len(summands)} retraction pieces can merge to it")
