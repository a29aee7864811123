"""Semiring carriers, rational parsing, the semiring-matrix kernel and the
complex-matrix helpers."""

import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opcheck.errors import EventViolation, OpcheckError, SemiringLawError
from opcheck.instances import MatrixTheory, SubStochTheory
from opcheck.instances.matrix import MatrixEvent
from opcheck.kernel import (
    BOOLEANS,
    BUILTIN_SEMIRINGS,
    INTEGERS,
    NATURALS,
    RATIONALS01,
    FiniteSemiring,
    Semiring,
    check_event,
    choi_positivity,
    is_hermitian,
    matrix_approx_eq,
    min_eigenvalue,
    parse_rational,
    rational_form,
    rational_product,
    rational_rows,
    rational_side_by_side,
    rational_stack,
    rational_str,
    row_in_unit,
    semiring_product,
)


def test_parse_rational_roundtrip():
    for text, value in [("1/2", Fraction(1, 2)), ("0", Fraction(0)),
                        ("3", Fraction(3)), ("7/3", Fraction(7, 3))]:
        assert parse_rational(text) == value
        assert parse_rational(rational_str(value)) == value


def test_parse_rational_rejects_floats():
    with pytest.raises(ValueError):
        parse_rational("0.5")


def test_parse_rational_rejects_a_zero_denominator():
    with pytest.raises(ValueError, match="denominator 0"):
        parse_rational("1/0")


def test_builtin_semiring_registry():
    assert set(BUILTIN_SEMIRINGS) == {"integers", "naturals", "booleans",
                                      "rationals01"}


def test_integer_complements_are_unique():
    for a in range(-3, 4):
        assert INTEGERS.complements(a) == (1 - a,)


def test_naturals_sub_unit_subset():
    assert NATURALS.complements(0) == (1,)
    assert NATURALS.complements(1) == (0,)
    assert NATURALS.complements(2) == ()


def test_boolean_one_has_two_complements():
    assert set(BOOLEANS.complements(1)) == {0, 1}
    assert BOOLEANS.complements(0) == (1,)


def test_rationals_grid():
    grid = RATIONALS01.grid_elements(4)
    assert grid == tuple(Fraction(k, 4) for k in range(5))
    assert all(RATIONALS01.in_unit_interval(x) for x in grid)
    assert not RATIONALS01.in_unit_interval(Fraction(5, 4))


def test_finite_semiring_law_validation():
    # a two-element structure where addition is not associative
    with pytest.raises(SemiringLawError):
        FiniteSemiring.from_tables(
            "broken", (0, 1),
            [[0, 1], [1, 0]],  # xor-like, fails distributive/absorption checks
            [[0, 0], [0, 0]],  # multiplication without a unit
            0, 1)


def test_monotone_flags():
    assert RATIONALS01.monotone and NATURALS.monotone
    assert not INTEGERS.monotone


def test_matrix_helpers():
    eye = np.eye(2, dtype=complex)
    assert matrix_approx_eq(eye, eye + 1e-12)
    assert not matrix_approx_eq(eye, 2 * eye)
    assert is_hermitian(eye)
    assert min_eigenvalue(eye) == pytest.approx(1.0)
    assert choi_positivity(eye)
    assert not choi_positivity(-eye)


def test_one_by_one_eigenvalues_match_the_eigensolver(monkeypatch):
    # a 1-by-1 matrix is read without the eigensolver; its value and every
    # positivity decision must be the eigensolver's, also at the tolerance
    tol = 1e-9
    cases = [np.array([[complex(real, imag)]])
             for real in (0.0, -0.0, 1.0, -1.0, 0.3, tol, -tol, 0.5 * tol,
                          -1.5 * tol, np.nextafter(-tol, 0),
                          np.nextafter(-tol, -1))
             for imag in (0.0, tol / 2, -tol / 2, np.nextafter(tol / 2, 0),
                          np.nextafter(tol / 2, 1), 2 * tol)]
    want = [float(np.linalg.eigvalsh(m).min()) for m in cases]
    decisions = [is_hermitian(m, tol) and w >= -tol for m, w in zip(cases, want)]

    def refuse(m):
        raise AssertionError("a 1-by-1 matrix reached the eigensolver")
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert [min_eigenvalue(m) for m in cases] == want
    assert [choi_positivity(m, tol) for m in cases] == decisions
    assert True in decisions and False in decisions


# -- the semiring-matrix kernel --------------------------------------------

def _outcome(fn, *args):
    """The result of ``fn(*args)``, or the type and message it raised."""
    try:
        return ("ok", fn(*args))
    except OpcheckError as exc:
        return ("raised", type(exc), str(exc))


def _naive_product(semiring, f_rows, g_rows, width):
    """The dense triple loop, every term included."""
    s = semiring
    rows = []
    for frow in f_rows:
        row = []
        for k in range(width):
            acc = s.zero
            for j, x in enumerate(frow):
                acc = s.add(acc, s.mul(x, g_rows[j][k]))
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


@st.composite
def _substochastic(draw, n, m, grid):
    """An n-by-m matrix on the 1/grid grid whose rows sum to at most one."""
    rows = []
    for _ in range(n):
        budget = grid
        row = []
        for _ in range(m):
            k = draw(st.integers(min_value=0, max_value=budget))
            budget -= k
            row.append(Fraction(k, grid))
        rows.append(tuple(draw(st.permutations(row))))
    return tuple(rows)


@st.composite
def _chains(draw):
    """Substochastic matrices of matching shapes, each on its own grid."""
    dims = draw(st.lists(st.integers(min_value=0, max_value=3),
                         min_size=3, max_size=5))
    grids = st.integers(min_value=2, max_value=6)
    return [draw(_substochastic(a, b, draw(grids)))
            for a, b in zip(dims, dims[1:])], dims


@settings(max_examples=200, deadline=None)
@given(_chains())
def test_rational_product_matches_the_fraction_reference(chain):
    """Composites of composites, so the common denominators grow."""
    mats, dims = chain
    acc = mats[0]
    for mat, width in zip(mats[1:], dims[2:]):
        form = rational_product(rational_form(acc), rational_form(mat), width)
        want = semiring_product(RATIONALS01, acc, mat, width)
        assert form == rational_form(want)
        fast = rational_rows(form)
        assert fast == want
        assert repr(fast) == repr(_naive_product(RATIONALS01, acc, mat, width))
        acc = fast


@settings(max_examples=200, deadline=None)
@given(_chains())
def test_a_composite_carries_the_form_of_its_payload(chain):
    """The form a composite of composites keeps equals the form read
    afresh from its ``Fraction`` payload."""
    mats, dims = chain
    sub = SubStochTheory(grid=4)
    acc = sub._m(dims[0], dims[1], mats[0])
    for mat, a, b in zip(mats[1:], dims[1:], dims[2:]):
        acc = sub.compose(sub._m(a, b, mat), acc)
        assert acc.form == rational_form(acc.payload)
        assert sub.payload_key(acc) == sub.payload_key(
            sub._m(acc.dom, acc.cod, acc.payload))


_GRID3 = SubStochTheory(grid=3)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_identity_composites_keep_the_payload_key(data):
    """Over each homset up to bound 2 on grid 3, ``id . f`` keys like ``f``.
    The composites ``g . f`` put ninths over a grid of thirds, which often
    reduce, so ``id . (g . f)`` keys like its payload read afresh only when
    the product keeps a reduced form."""
    sub = _GRID3
    a, b, c = (data.draw(st.integers(min_value=0, max_value=2))
               for _ in range(3))
    g = data.draw(st.sampled_from(sub.enumerate_hom(b, c)))
    idb, idc = sub.identity(b), sub.identity(c)
    for f in sub.enumerate_hom(a, b):
        assert sub.payload_key(sub.compose(idb, f)) == sub.payload_key(f)
        gf = sub.compose(g, f)
        assert (sub.payload_key(sub.compose(idc, gf))
                == sub.payload_key(sub._m(a, c, gf.payload)))


# -- the form path against the Fraction reference ----------------------------

_grids = st.integers(min_value=1, max_value=6)
_sizes = st.integers(min_value=0, max_value=3)


def _side_by_side_reference(matrices):
    """Pairing on ``Fraction`` rows: the rows joined, or None when a joined
    row sums past one."""
    rows = tuple(tuple(x for m in parts for x in m) for parts in zip(*matrices))
    if all(sum(row, Fraction(0)) <= 1 for row in rows):
        return rows
    return None


@st.composite
def _families(draw, common_rows=True):
    """Matrices with a common number of rows (or of columns), each on its
    own grid."""
    common = draw(_sizes)
    others = draw(st.lists(_sizes, min_size=1, max_size=3))
    return [draw(_substochastic(common, m, draw(_grids)) if common_rows
                 else _substochastic(m, common, draw(_grids)))
            for m in others]


@settings(max_examples=300, deadline=None)
@given(_families())
def test_form_pairing_matches_the_fraction_reference(mats):
    """The forms side by side give the reference rows, and refuse the
    same pairings."""
    want = _side_by_side_reference(mats)
    paired = rational_side_by_side([rational_form(m) for m in mats])
    assert (paired is None) == (want is None)
    if want is not None:
        assert paired == rational_form(want)
        assert rational_rows(paired) == want


@settings(max_examples=200, deadline=None)
@given(_families(common_rows=False))
def test_form_stacking_matches_row_concatenation(mats):
    want = tuple(row for m in mats for row in m)
    stacked = rational_stack([rational_form(m) for m in mats])
    assert stacked == rational_form(want)
    assert rational_rows(stacked) == want


def _sums_into_unit(s, row):
    total = s.zero
    for x in row:
        total = s.add(total, x)
    return s.in_unit_interval(total)


def _event_rows(s, m, elements):
    """Every row of ``m`` entries from ``elements`` that an event over the
    semiring ``s`` may have, in lexicographic order."""
    return [row for row in product(elements, repeat=m)
            if all(s.in_unit_interval(x) for x in row) and _sums_into_unit(s, row)]


def _born_events(th, data, sizes, drawn):
    """Events of the matrix theory ``th`` built every way a matrix event is
    born, each with the rows it must have, computed on plain rows by the
    carrier's own ``add`` and ``mul``.  ``drawn(n, m)`` draws the rows of
    an n-by-m event.  Enumeration is checked on its own, on homsets up to
    2-by-2."""
    s = th.semiring
    one, zero = s.one, s.zero
    a, b, c = (data.draw(sizes) for _ in range(3))

    def event(n, m):
        rows = drawn(n, m)
        return th.validate_event(rows, n, m), rows

    def ones(n, m, col):
        return tuple(tuple(one if j == col(i) else zero for j in range(m))
                     for i in range(n))
    (f, fr), (h, hr), (g, gr), (k, kr), (effect, er) = (
        event(a, b), event(c, b), event(a, c), event(b, c), event(a, 1))
    born = [
        (f, fr), (effect, er),
        (th.identity(a), ones(a, a, lambda i: i)),
        (th.zero_morphism(a, b), ones(a, b, lambda i: None)),
        (th.coprojection((a, b), 0), ones(a, a + b, lambda i: i)),
        (th.coprojection((a, b), 1), ones(b, a + b, lambda i: a + i)),
        (th.discard(a), ones(a, 1, lambda i: 0)),
        (th.compose(k, f), _naive_product(s, fr, kr, c)),
        (th.cotuple((a, c), [f, h]), fr + hr),
        (th.tensor(f, k), tuple(tuple(s.mul(x, y) for x in frow for y in krow)
                                for frow in fr for krow in kr)),
    ]
    complements = th.effect_complements(effect)
    want = [tuple((x,) for x in combo)
            for combo in product(*[s.complements(x) for (x,) in er])]
    assert [e.payload for e in complements] == want
    born += zip(complements, want)
    joined = tuple(x + y for x, y in zip(fr, gr))
    paired = th.try_pairing([f, g])
    assert (paired is None) == (not all(_sums_into_unit(s, row) for row in joined))
    if paired is not None:
        born.append((paired, joined))
    valid = _event_rows(s, b, s.grid_elements(th.grid))
    seed = data.draw(st.integers(min_value=0, max_value=99))
    rng = random.Random(seed)
    born.append((th.sample_hom(a, b, random.Random(seed)),
                 tuple(valid[rng.randrange(len(valid))] for _ in range(a))))
    a, b = min(a, 2), min(b, 2)
    hom = th.enumerate_hom(a, b)
    want = list(product(_event_rows(s, b, s.grid_elements(th.grid)), repeat=a))
    assert [e.payload for e in hom] == want
    assert [e.form for e in hom] == [s.form(rows) for rows in want]
    return born


def _check_born(th, born):
    """Each event has the form of its reference rows, a lazily built
    payload with the reference ``repr``, and an ``equal`` that agrees with
    payload equality."""
    for e, want in born:
        lazy = MatrixEvent(th, e.dom, e.cod, e.form)
        assert e.form == th.semiring.form(want)
        assert repr(lazy) == repr(th._m(e.dom, e.cod, want))
        assert lazy.payload == want
        assert e.payload == want
    events = [e for e, _ in born]
    for x in events:
        for y in events:
            assert th.equal(x, y) == (x.dom == y.dom and x.cod == y.cod
                                      and x.payload == y.payload)
    f = events[0]
    assert th.equal(th.compose(th.identity(f.cod), f), f)


@settings(max_examples=150, deadline=None)
@given(_grids, st.data())
def test_rational_events_are_born_in_the_form_of_their_payload(grid, data):
    sub = SubStochTheory(grid=grid)
    _check_born(sub, _born_events(
        sub, data, _sizes,
        lambda n, m: data.draw(_substochastic(n, m, data.draw(_grids)))))


def _drawn_rows(semiring, elements, data):
    """``drawn(n, m)`` for :func:`_born_events`: n rows drawn from the
    event rows of m entries from ``elements``."""
    rows = {m: _event_rows(semiring, m, elements) for m in range(3)}
    return lambda n, m: tuple(data.draw(st.sampled_from(rows[m]))
                              for _ in range(n))


@pytest.mark.parametrize("semiring,grid,elements", [
    (BOOLEANS, 1, (0, 1)),
    (INTEGERS, 1, (-2, -1, 0, 1, 2)),
], ids=["booleans", "integers"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_matrix_events_over_other_carriers_match_plain_rows(semiring, grid,
                                                           elements, data):
    """The booleans and the integers, whose form is the rows themselves,
    run through the same ``Semiring`` methods as the rationals; the pairing
    of two identities is refused exactly where one plus one has no
    complement."""
    th = MatrixTheory(semiring, grid=grid)
    _check_born(th, _born_events(th, data, st.integers(min_value=0, max_value=2),
                                 _drawn_rows(semiring, elements, data)))
    pair = th.try_pairing([th.identity(1), th.identity(1)])
    assert (pair is None) == (not semiring.in_unit_interval(
        semiring.add(semiring.one, semiring.one)))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_natural_events_are_born_in_the_integer_form(data):
    """The naturals share the rationals' integer form, always over 1, and
    their payloads come back as ints; the pairing of two identities is
    refused, as one plus one has no complement."""
    th = MatrixTheory(NATURALS, grid=2)
    born = _born_events(th, data, st.integers(min_value=0, max_value=2),
                        _drawn_rows(NATURALS, (0, 1, 2), data))
    _check_born(th, born)
    for e, want in born:
        assert e.form == (want, 1)
        assert repr(MatrixEvent(th, e.dom, e.cod, e.form).payload) == repr(want)
    assert th.try_pairing([th.identity(1), th.identity(1)]) is None


@st.composite
def _partial_functions(draw, n, m):
    """The 0/1 matrix over the naturals of a partial function from n
    points to m: each row holds at most one 1."""
    targets = st.one_of(st.none(), st.integers(min_value=0, max_value=m - 1)) \
        if m else st.none()
    return tuple(tuple(int(j == y) for j in range(m))
                 for y in (draw(targets) for _ in range(n)))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_natural_forms_match_the_plain_rows_reference(data):
    """On sub-unit matrices over the naturals, each integer-form method of
    ``NATURALS`` gives the form of what the plain-rows ``Semiring`` method
    gives on the rows, and ``rows`` turns a form back into ints."""
    s, plain = NATURALS, Semiring
    n, k, m, p = (data.draw(st.integers(min_value=0, max_value=3))
                  for _ in range(4))
    f, h = (data.draw(_partial_functions(rows, m)) for rows in (n, k))
    g, side, e = (data.draw(_partial_functions(rows, cols))
                  for rows, cols in ((m, p), (n, p), (n, 1)))
    form = s.form
    for rows in (f, g, e):
        assert repr(s.rows(form(rows))) == repr(rows)
    assert s.product(form(f), form(g), p) == form(plain.product(s, f, g, p))
    assert s.stack([form(f), form(h)]) == form(plain.stack(s, [f, h]))
    joined = plain.side_by_side(s, [f, side])
    assert s.side_by_side([form(f), form(side)]) == (
        None if joined is None else form(joined))
    assert s.kron(form(f), form(g)) == form(plain.kron(s, f, g))
    assert s.effect_complements(form(e)) == [
        form(c) for c in plain.effect_complements(s, e)]


@pytest.mark.parametrize("grid", range(1, 7))
def test_enumerated_events_carry_the_form_of_their_payload(grid):
    sub = SubStochTheory(grid=grid)
    for a in range(3):
        for b in range(3):
            for f in sub.enumerate_hom(a, b):
                assert f.form == rational_form(f.payload)
                lazy = MatrixEvent(sub, a, b, f.form)
                assert repr(lazy) == repr(f)


_any_rational = st.fractions(min_value=-1, max_value=2, max_denominator=6)


@st.composite
def _rational_pairs(draw):
    n, m, p = (draw(st.integers(min_value=0, max_value=3)) for _ in range(3))
    f = tuple(tuple(draw(_any_rational) for _ in range(m)) for _ in range(n))
    g = tuple(tuple(draw(_any_rational) for _ in range(p)) for _ in range(m))
    return f, g, p


@settings(max_examples=300, deadline=None)
@given(_rational_pairs())
def test_rational_product_rejects_like_the_fraction_reference(case):
    """Entries outside [0, 1] and rows summing past one: the same
    violation, found at the same place, from both paths."""
    f, g, p = case

    def fast_rows(f, g, p):
        return rational_rows(rational_product(rational_form(f),
                                              rational_form(g), p))
    fast = _outcome(fast_rows, f, g, p)
    assert fast == _outcome(semiring_product, RATIONALS01, f, g, p)
    if fast[0] == "raised":
        assert fast[1] is EventViolation


@st.composite
def _selections(draw):
    """A 0/1 left factor with at most one 1 per row (an identity, a
    coprojection, a point state or a partial function, zero rows allowed)
    and a right factor of arbitrary rationals in [-1, 2]."""
    m, p = (draw(st.integers(min_value=0, max_value=3)) for _ in range(2))
    kind = draw(st.sampled_from(("identity", "coprojection", "point",
                                 "partial")))
    if kind == "identity":
        picks = list(range(m))
    elif kind == "coprojection":
        n = draw(st.integers(min_value=0, max_value=m))
        offset = draw(st.integers(min_value=0, max_value=m - n))
        picks = [offset + i for i in range(n)]
    else:
        index = st.integers(min_value=0, max_value=m - 1) if m else st.none()
        picks = draw(st.lists(st.one_of(st.none(), index),
                              min_size=int(kind == "point"),
                              max_size=1 if kind == "point" else 3))
    f = tuple(tuple(Fraction(int(j == pick)) for j in range(m))
              for pick in picks)
    g = tuple(tuple(draw(_any_rational) for _ in range(p)) for _ in range(m))
    return f, g, p


def _form_or_violation(fn):
    try:
        return fn()
    except EventViolation as bad:
        return bad.kind, bad.row, bad.col, bad.value


@settings(max_examples=300, deadline=None)
@given(_selections())
def test_selected_rows_match_the_fraction_reference(case):
    """A 0/1 left factor selects rows of the right one; the product is
    the reference's form, or the same violation at the same place."""
    f, g, p = case
    form = rational_form(f)
    assert form[1] == 1
    fast = _form_or_violation(
        lambda: rational_product(form, rational_form(g), p))
    want = _form_or_violation(
        lambda: rational_form(semiring_product(RATIONALS01, f, g, p)))
    assert fast == want


@settings(max_examples=200, deadline=None)
@given(_rational_pairs())
def test_substoch_compose_keeps_the_validate_event_diagnostics(case):
    """The theory's composite equals the old dense product run through
    ``validate_event``: same payload, or same exception type and message."""
    f, g, p = case
    sub = SubStochTheory(grid=4)
    fm = sub._m(len(f), len(g), f)
    gm = sub._m(len(g), p, g)
    dense = _naive_product(RATIONALS01, f, g, p)

    def payload(thunk):
        return thunk().payload
    assert (_outcome(payload, lambda: sub.compose(gm, fm))
            == _outcome(payload, lambda: sub.validate_event(dense, len(f), p)))


@pytest.mark.parametrize("semiring,elements", [
    (BOOLEANS, (0, 1)),
    (INTEGERS, (-2, -1, 0, 1, 2)),
    (NATURALS, (0, 1, 2)),
])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_sparse_product_matches_the_dense_triple_loop(semiring, elements, data):
    n, m, p = (data.draw(st.integers(min_value=0, max_value=3)) for _ in range(3))
    entry = st.sampled_from(elements)
    f = tuple(tuple(data.draw(entry) for _ in range(m)) for _ in range(n))
    g = tuple(tuple(data.draw(entry) for _ in range(p)) for _ in range(m))

    def dense(*args):
        rows = _naive_product(*args)
        check_event(semiring, rows)
        return rows
    assert (_outcome(semiring_product, semiring, f, g, p)
            == _outcome(dense, semiring, f, g, p))


@given(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=6),
                max_size=5))
def test_rational_row_check_matches_the_fraction_sum(row):
    assert row_in_unit(RATIONALS01, row) is (sum(row, Fraction(0)) <= 1)
