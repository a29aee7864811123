"""Arithmetic substrates: exact rationals, semirings, semiring matrices and
complex-matrix checks.

Exact rational values are ``fractions.Fraction``, which already keeps them
in lowest terms with a positive denominator.
A matrix theory holds each event in its carrier's *form* and leaves all
matrix arithmetic (product, stacking, pairing, Kronecker product and
effect complements) to the :class:`Semiring` methods on that form.  By
default the form is the tuple of rows itself.  The rationals and the
naturals (:data:`RATIONALS01` and :data:`NATURALS`, each a
:class:`RationalSemiring`) use the canonical integer form instead, the
numerators over their least common denominator (:func:`rational_form`;
for the naturals it is 1), and compute on plain Python integers;
:func:`rational_rows` turns a form back into rows where those are read.
:func:`semiring_product` and :func:`check_event` work on rows over the
semiring's own operations; they are the reference the integer path is
tested against.
Floating point is confined to the complex-matrix helpers; every tolerance
is passed explicitly.  Only the quantum theories (cpsu, finhilb) call them,
and they are the only code here that uses numpy, which each imports when
called, so the exact theories never load it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm

from .errors import EigensolverError, EventViolation, SemiringLawError

DEFAULT_TOL = 1e-9


def parse_rational(text):
    """Parse a rational literal of the form ``"p/q"`` or ``"p"``.

    Floats are rejected on purpose: values read from files must stay exact.
    """
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise ValueError(f"rational literal must be a string, got {text!r}")
    parts = text.split("/")
    if len(parts) == 1:
        return Fraction(int(parts[0]))
    if len(parts) == 2:
        numerator, denominator = int(parts[0]), int(parts[1])
        if denominator == 0:
            raise ValueError(f"rational literal {text!r} has denominator 0")
        return Fraction(numerator, denominator)
    raise ValueError(f"malformed rational literal {text!r}")


def rational_str(q):
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class Semiring:
    """A unital semiring with a complement oracle for its sub-unit subset.

    The sub-unit subset consists of the elements ``a`` for which some ``b``
    satisfies ``a + b = 1``.  ``complements(a)`` returns every such ``b``;
    an empty result means ``a`` lies outside the subset.  The oracle returns
    a collection rather than a single element because uniqueness is a
    property to be checked, not assumed (the boolean semiring violates it).
    """

    def __init__(self, name, *, zero, one):
        self.name = name
        self.zero = zero
        self.one = one

    # Subclasses implement: add, mul, contains, complements, grid_elements,
    # element_str, parse_element.  ``elements`` is a tuple for finite
    # carriers and None otherwise.
    elements = None

    # True when leaving the sub-unit subset is irreversible under addition
    # (no negative elements); enables pruning during row enumeration.
    monotone = False

    def in_unit_interval(self, a):
        """Whether the carrier element ``a`` lies in the sub-unit subset."""
        return bool(self.complements(a))

    def __repr__(self):
        return f"Semiring({self.name})"

    # -- matrices in the carrier's form --------------------------------------
    # A matrix theory holds each event in its carrier's form and leaves all
    # matrix arithmetic to these methods.  Here the form is the tuple of
    # row tuples itself; a subclass that chooses another form overrides
    # them all together.

    def form(self, rows):
        """The form of the matrix ``rows``, a tuple of row tuples."""
        return rows

    def rows(self, form):
        """The rows of the matrix whose form is ``form``."""
        return form

    def zero_one(self, bits):
        """The form of the matrix with one where the rows ``bits`` have 1
        and zero where they have 0."""
        one, zero = self.one, self.zero
        return tuple(tuple(one if x else zero for x in row) for row in bits)

    def product(self, f, g, width):
        """The form of the checked event ``f`` times ``g``, ``width`` being
        the number of columns of ``g``: :func:`semiring_product`."""
        return semiring_product(self, f, g, width)

    def stack(self, forms):
        """The matrices stacked row by row: a cotuple."""
        return tuple(row for f in forms for row in f)

    def side_by_side(self, forms):
        """The matrices joined row by row, or None when a joined row sums
        outside the sub-unit subset: the pairing of events with a common
        domain."""
        rows = tuple(tuple(x for m in parts for x in m) for parts in zip(*forms))
        if all(row_in_unit(self, row) for row in rows):
            return rows
        return None

    def kron(self, f, g):
        """The Kronecker product of two matrices: their tensor."""
        mul = self.mul
        return tuple(tuple(mul(x, y) for x in frow for y in grow)
                     for frow in f for grow in g)

    def effect_complements(self, form):
        """The forms of the one-column matrices whose every entry complements
        the entry of ``form`` in its row, in the order of ``complements``."""
        per_entry = [self.complements(row[0]) for row in form]
        if not all(per_entry):
            return []
        return [tuple((c,) for c in combo) for combo in product(*per_entry)]


class FiniteSemiring(Semiring):
    """Semiring given by explicit addition/multiplication tables.

    The tables are validated eagerly and exhaustively against the semiring
    laws; a bad table raises :class:`SemiringLawError` naming the law.
    """

    def __init__(self, name, elements, add_table, mul_table, zero, one):
        super().__init__(name, zero=zero, one=one)
        self.elements = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise SemiringLawError(f"{name}: duplicate carrier elements")
        self._add = dict(add_table)
        self._mul = dict(mul_table)
        for x in (zero, one):
            if x not in self.elements:
                raise SemiringLawError(f"{name}: designated unit {x!r} not in carrier")
        self._validate()

    @classmethod
    def from_tables(cls, name, elements, add_rows, mul_rows, zero, one):
        """Build from full n-by-n tables of element names (row-major)."""
        n = len(elements)
        if len(add_rows) != n or len(mul_rows) != n:
            raise SemiringLawError(f"{name}: tables must be {n}x{n}")
        add_table, mul_table = {}, {}
        for i, a in enumerate(elements):
            if len(add_rows[i]) != n or len(mul_rows[i]) != n:
                raise SemiringLawError(f"{name}: tables must be {n}x{n}")
            for j, b in enumerate(elements):
                add_table[a, b] = add_rows[i][j]
                mul_table[a, b] = mul_rows[i][j]
        return cls(name, elements, add_table, mul_table, zero, one)

    def _validate(self):
        els = self.elements
        for a, b in product(els, repeat=2):
            for table, op in ((self._add, "+"), (self._mul, "*")):
                if (a, b) not in table or table[a, b] not in els:
                    raise SemiringLawError(f"{self.name}: table entry {a!r} {op} {b!r} missing or out of carrier")
        laws = [
            ("addition associativity", lambda a, b, c: self.add(self.add(a, b), c) == self.add(a, self.add(b, c))),
            ("addition commutativity", lambda a, b, c: self.add(a, b) == self.add(b, a)),
            ("additive unit", lambda a, b, c: self.add(a, self.zero) == a),
            ("multiplication associativity", lambda a, b, c: self.mul(self.mul(a, b), c) == self.mul(a, self.mul(b, c))),
            ("multiplicative unit", lambda a, b, c: self.mul(a, self.one) == a and self.mul(self.one, a) == a),
            ("left distributivity", lambda a, b, c: self.mul(a, self.add(b, c)) == self.add(self.mul(a, b), self.mul(a, c))),
            ("right distributivity", lambda a, b, c: self.mul(self.add(a, b), c) == self.add(self.mul(a, c), self.mul(b, c))),
            ("zero annihilation", lambda a, b, c: self.mul(a, self.zero) == self.zero and self.mul(self.zero, a) == self.zero),
        ]
        for lawname, law in laws:
            for a, b, c in product(els, repeat=3):
                if not law(a, b, c):
                    raise SemiringLawError(
                        f"{self.name}: {lawname} fails at ({a!r}, {b!r}, {c!r})")

    def add(self, a, b):
        return self._add[a, b]

    def mul(self, a, b):
        return self._mul[a, b]

    def contains(self, a):
        return a in self.elements

    def complements(self, a):
        if not self.contains(a):
            raise ValueError(f"{a!r} not in carrier of {self.name}")
        return tuple(b for b in self.elements if self.add(a, b) == self.one)

    def grid_elements(self, grid):
        return self.elements

    def element_str(self, a):
        return str(a)

    def parse_element(self, text):
        if text not in self.elements:
            raise ValueError(f"{text!r} not in carrier of {self.name}")
        return text


class RuleSemiring(Semiring):
    """Rule-defined carrier (a trusted builtin, not validated at load time)."""

    def __init__(self, name, *, zero, one, add, mul, contains, complements,
                 grid_elements, element_str=str, parse_element=None,
                 monotone=False):
        super().__init__(name, zero=zero, one=one)
        self.monotone = monotone
        self.add = add
        self.mul = mul
        self.contains = contains
        self._complements = complements
        self._grid = grid_elements
        self.element_str = element_str
        self._parse = parse_element

    def complements(self, a):
        if not self.contains(a):
            raise ValueError(f"{a!r} not in carrier of {self.name}")
        return self._complements(a)

    def grid_elements(self, grid):
        return self._grid(grid)

    def parse_element(self, text):
        if self._parse is None:
            raise ValueError(f"{self.name} has no element parser")
        return self._parse(text)


def _int_parse(text):
    return int(text)


INTEGERS = RuleSemiring(
    "integers",
    zero=0, one=1,
    add=lambda a, b: a + b,
    mul=lambda a, b: a * b,
    contains=lambda a: isinstance(a, int) and not isinstance(a, bool),
    complements=lambda a: (1 - a,),
    grid_elements=lambda grid: tuple(range(-grid, grid + 1)),
    parse_element=_int_parse,
)

# The two-element semiring with OR as addition and AND as multiplication.
# Here 1 has two complements (1+0 = 1+1 = 1), which is exactly why Mat over
# this carrier is shipped as a negative fixture.
BOOLEANS = FiniteSemiring(
    "booleans",
    elements=(0, 1),
    add_table={(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1},
    mul_table={(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1},
    zero=0, one=1,
)

# ---------------------------------------------------------------------------
# Semiring matrices: the product and the event check shared by every matrix
# theory.  A matrix is a tuple of row tuples; an event is a matrix whose
# entries and row sums all lie in the sub-unit subset of the carrier.

def check_event(semiring, rows):
    """Raise :class:`EventViolation` at the first entry (not in the carrier,
    or with no complement) or row sum (with no complement) of ``rows``,
    scanning row by row and each row's entries before its sum."""
    s = semiring
    add, contains, in_unit = s.add, s.contains, s.in_unit_interval
    for i, row in enumerate(rows):
        total = s.zero
        for j, x in enumerate(row):
            if not contains(x):
                raise EventViolation("carrier", i, j, x)
            if not in_unit(x):
                raise EventViolation("complement", i, j, x)
            total = add(total, x)
        if not in_unit(total):
            raise EventViolation("row", i, None, total)


def semiring_product(semiring, f_rows, g_rows, width):
    """The checked event ``f_rows`` times ``g_rows`` over the semiring's own
    operations; ``width`` is the number of columns of ``g_rows``.

    A term is skipped when either factor is zero, which changes no entry by
    the zero-annihilation and additive-unit laws (checked when a finite
    semiring loads, and true of the builtins).  This is also the reference
    :func:`rational_product` is tested against.
    """
    s = semiring
    zero, add, mul = s.zero, s.add, s.mul
    rows = []
    for frow in f_rows:
        row = [zero] * width
        for x, grow in zip(frow, g_rows):
            if x == zero:
                continue
            for k, y in enumerate(grow):
                if y != zero:
                    row[k] = add(row[k], mul(x, y))
        rows.append(tuple(row))
    rows = tuple(rows)
    check_event(s, rows)
    return rows


def rational_form(rows):
    """The canonical integer form ``(numerators, d)`` of ``rows`` of
    rationals: ``d`` is the least common denominator of the entries and
    ``numerators`` the rows of integers ``x * d``.  Equal rows have equal
    forms, since ``fractions.Fraction`` keeps each entry reduced."""
    d = lcm(*[x.denominator for row in rows for x in row])
    return tuple(tuple(x.numerator * (d // x.denominator) for x in row)
                 for row in rows), d


def reduced_form(numerators, d):
    """The canonical form of the rational rows ``numerators`` over ``d``:
    both divided by their gcd, which leaves ``d`` the least common
    denominator of the entries."""
    g = d
    for row in numerators:
        g = gcd(g, *row)
        if g == 1:
            return numerators, d
    return tuple(tuple(n // g for n in row) for row in numerators), d // g


def rational_rows(form, zero=Fraction(0), one=Fraction(1)):
    """The rows of rationals whose :func:`rational_form` is ``form``, with
    ``zero`` and ``one`` for the entries 0 and 1."""
    numerators, d = form
    return tuple(tuple(zero if n == 0 else one if n == d else Fraction(n, d)
                       for n in row) for row in numerators)


def rational_product(f_form, g_form, width):
    """The :func:`rational_form` of :func:`semiring_product` over
    :data:`RATIONALS01`, computed exactly in integers from the two factors'
    forms.

    The integer product has denominator ``d``, the product of the factors'
    denominators.  A row of the first factor that is over 1 and holds one
    1 and zeros, or only zeros (a row of a coprojection, an identity or a
    point state), selects a row of the second factor or the zero row; any
    other row is multiplied out.  A result numerator ``n`` is in the
    carrier iff ``n >= 0`` and has a complement iff ``n <= d``; a row has
    a complement iff its numerators sum to at most ``d``.  These are the
    checks of :func:`check_event`, in the same order, so both raise the
    same violation.  The result is reduced by :func:`reduced_form`.
    """
    fn, fd = f_form
    gn, gd = g_form
    d = fd * gd
    zero = (0,) * width
    accs = []
    for i, frow in enumerate(fn):
        if fd == 1 and sum(frow) <= 1 and (not frow or min(frow) >= 0):
            acc = gn[frow.index(1)] if 1 in frow else zero
        else:
            acc = [0] * width
            for x, grow in zip(frow, gn):
                if x:
                    for k, y in enumerate(grow):
                        if y:
                            acc[k] += x * y
            acc = tuple(acc)
        if acc and (min(acc) < 0 or sum(acc) > d):
            _raise_first_violation(i, acc, d)
        accs.append(acc)
    return reduced_form(tuple(accs), d)


def _raise_first_violation(i, acc, d):
    """Raise the :class:`EventViolation` of the first bad numerator of row
    ``i``, ``acc`` over ``d``, or else of its sum."""
    total = 0
    for k, n in enumerate(acc):
        if n < 0:
            raise EventViolation("carrier", i, k, Fraction(n, d))
        if n > d:
            raise EventViolation("complement", i, k, Fraction(n, d))
        total += n
    raise EventViolation("row", i, None, Fraction(total, d))


def _over_lcm(forms):
    """Each form's numerators over the least common denominator of all the
    ``forms``, and that denominator.  As every ``d`` of a form is the least
    common denominator of its entries, their lcm is the least one of all
    the entries together, so a matrix assembled from these numerators is in
    canonical form without reduction."""
    d = lcm(*[fd for _, fd in forms])
    return [n if fd == d else tuple(tuple(x * (d // fd) for x in row)
                                    for row in n)
            for n, fd in forms], d


def rational_stack(forms):
    """The form of the rational matrices ``forms`` stacked row by row."""
    parts, d = _over_lcm(forms)
    return tuple(row for n in parts for row in n), d


def rational_side_by_side(forms):
    """:meth:`Semiring.side_by_side` on rational forms: the form of the
    matrices joined row by row, or None when a joined row's numerators
    sum past the common denominator, that is the row sums past one."""
    parts, d = _over_lcm(forms)
    rows = []
    for pieces in zip(*parts):
        row = sum(pieces, ())
        if sum(row) > d:
            return None
        rows.append(row)
    return tuple(rows), d


def row_in_unit(semiring, row):
    """Whether the entries of ``row`` sum into the sub-unit subset."""
    s = semiring
    total = s.zero
    for x in row:
        total = s.add(total, x)
    return s.in_unit_interval(total)


class RationalSemiring(RuleSemiring):
    """A carrier inside the nonnegative rationals whose matrix form is the
    canonical integer form ``(numerators, d)`` of :func:`rational_form`, so
    every matrix operation runs on plain Python integers; ``rows`` builds
    the rows of carrier elements where those are read."""

    form = staticmethod(rational_form)
    product = staticmethod(rational_product)
    stack = staticmethod(rational_stack)
    side_by_side = staticmethod(rational_side_by_side)

    def rows(self, form):
        return rational_rows(form, self.zero, self.one)

    def zero_one(self, bits):
        return bits, 1

    def kron(self, f, g):
        (fn, fd), (gn, gd) = f, g
        return reduced_form(tuple(tuple(x * y for x in frow for y in grow)
                                  for frow in fn for grow in gn), fd * gd)

    def effect_complements(self, form):
        # 1 - n/d is (d - n)/d, and d stays the least common denominator
        numerators, d = form
        if any(row[0] > d for row in numerators):
            return []
        return [(tuple((d - row[0],) for row in numerators), d)]


# Nonnegative rationals; the sub-unit subset is the rationals in [0, 1].
RATIONALS01 = RationalSemiring(
    "rationals01",
    monotone=True,
    zero=Fraction(0), one=Fraction(1),
    add=lambda a, b: a + b,
    mul=lambda a, b: a * b,
    contains=lambda a: isinstance(a, Fraction) and a >= 0,
    complements=lambda a: (1 - a,) if a <= 1 else (),
    grid_elements=lambda grid: tuple(Fraction(k, grid) for k in range(grid + 1)),
    element_str=rational_str,
    parse_element=parse_rational,
)

# The sub-unit subset is {0, 1}, so every form has ``d`` 1.
NATURALS = RationalSemiring(
    "naturals",
    monotone=True,
    zero=0, one=1,
    add=lambda a, b: a + b,
    mul=lambda a, b: a * b,
    contains=lambda a: isinstance(a, int) and not isinstance(a, bool) and a >= 0,
    complements=lambda a: (1 - a,) if a <= 1 else (),
    grid_elements=lambda grid: tuple(range(0, grid + 1)),
    parse_element=_int_parse,
)

BUILTIN_SEMIRINGS = {
    "integers": INTEGERS,
    "naturals": NATURALS,
    "booleans": BOOLEANS,
    "rationals01": RATIONALS01,
}


# ---------------------------------------------------------------------------
# Complex matrices with tolerance-based comparison.

def matrix_approx_eq(m, n, tol=DEFAULT_TOL):
    """Entrywise comparison; a dimension mismatch is just ``False``."""
    import numpy as np
    m = np.asarray(m)
    n = np.asarray(n)
    if m.shape != n.shape:
        return False
    if m.size == 0:
        return True
    return bool(np.abs(m - n).max() <= tol)


def is_hermitian(m, tol=DEFAULT_TOL):
    import numpy as np
    m = np.asarray(m)
    return m.shape[0] == m.shape[1] and matrix_approx_eq(m, m.conj().T, tol)


def min_eigenvalue(m):
    """The least eigenvalue of the Hermitian matrix ``m``, read from its
    lower triangle.  A 1-by-1 matrix's eigenvalue is the real part of its
    entry, which is what the eigensolver returns for it."""
    import numpy as np
    m = np.asarray(m, dtype=complex)
    if m.shape == (1, 1):
        return float(m[0, 0].real)
    try:
        return float(np.linalg.eigvalsh(m).min())
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver failed: {exc}") from exc


def least_eigenvalues(ms):
    """The least eigenvalue of each Hermitian matrix in the stack ``ms``
    (shape ``(..., d, d)``), in one eigensolver call; each equals what
    :func:`min_eigenvalue` gives for that matrix alone."""
    import numpy as np
    try:
        return np.linalg.eigvalsh(ms).min(axis=-1)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver failed: {exc}") from exc


def choi_positivity(c, tol=DEFAULT_TOL):
    """True iff ``c`` is Hermitian within ``tol`` with min eigenvalue >= -tol.
    A 1-by-1 matrix is decided on its entry as a Python ``complex``, by the
    same comparisons that the array path makes."""
    import numpy as np
    c = np.asarray(c, dtype=complex)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"positivity check needs a square matrix, got shape {c.shape}")
    if c.size == 0:
        return True
    if c.shape == (1, 1):
        z = c.item()
        return abs(z - z.conjugate()) <= tol and z.real >= -tol
    if not is_hermitian(c, tol):
        return False
    return min_eigenvalue(c) >= -tol
