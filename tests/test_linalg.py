"""Exact linear algebra: solve, kernels, saturation, function-field rank."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from expofield import FieldElem, ff_rank, integer_kernel_basis, kernel_basis, qlin_solve
from expofield.errors import DimensionMismatch
from expofield.fieldelem import cyclotomic_root
from expofield.linalg import (SpanBasis, _add_multiple, _integer_columns,
                              coordinate_matrix, extend_basis, hermite_form,
                              rational_span_solve, reduce_mod)

S = FieldElem.from_symbol


def test_solve_identity():
    assert qlin_solve([[1, 0], [0, 1]], [3, 4]) == [Fraction(3), Fraction(4)]


def test_solve_unsolvable():
    assert qlin_solve([[1, 1], [1, 1]], [0, 1]) is None


def test_kernel_single_row():
    kb = kernel_basis([[1, 2]])
    assert len(kb) == 1
    v = kb[0]
    assert v[0] * 1 + v[1] * 2 == 0 and any(v)


def test_kernel_of_tp2_coefficient_matrix():
    """The 3x4-ish coefficient matrix of the n=2 array variety has no
    integer relation; brute force over |m_i| <= 10 confirms."""
    u, b1, b2 = S("_p1"), S("b1"), S("b2")
    xs = [u, b1 * u, b2 * u]
    derivs = [x.derivative("_p1") for x in xs]
    rows = coordinate_matrix(derivs)
    assert kernel_basis(rows) == []
    # independent oracle: enumerate the box
    found = []
    for m0 in range(-10, 11):
        for m1 in range(-10, 11):
            for m2 in range(-10, 11):
                if (m0, m1, m2) != (0, 0, 0):
                    if all(sum(m * r for m, r in zip((m0, m1, m2), row)) == 0
                           for row in rows):
                        found.append((m0, m1, m2))
    assert not found


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        qlin_solve([[1, 2], [1]], [0, 0])
    with pytest.raises(DimensionMismatch):
        qlin_solve([[1, 2]], [0, 0])


def test_integer_kernel_saturation():
    # Q-kernel of [x + y + 2z = 0] scaled naively misses primitive vectors
    ik = integer_kernel_basis([[Fraction(1, 2), Fraction(1, 2), 1]])
    sol = qlin_solve([[v[i] for v in ik] for i in range(3)], [1, 1, -1])
    assert sol is not None and all(q.denominator == 1 for q in sol)


def hermite_kernel(rows):
    """The integer kernel from two ``hermite_form`` calls and no peel: the
    left kernel of the transpose, read off the transform, then brought to
    Hermite normal form."""
    h, t = hermite_form(_integer_columns(rows))
    return hermite_form(t[len(h):])[0]


kernel_entries = st.one_of(st.just(0), st.integers(-4, 4),
                           st.fractions(-4, 4, max_denominator=4))


@st.composite
def peelable_matrices(draw):
    """int and Fraction matrices up to 8x8, biased to zero columns and to
    rows with one nonzero entry."""
    ncols = draw(st.integers(0, 8))
    zero_cols = draw(st.sets(st.integers(0, 7), max_size=4))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        row = [0 if j in zero_cols else draw(kernel_entries)
               for j in range(ncols)]
        if ncols and draw(st.booleans()):
            keep = draw(st.integers(0, ncols - 1))
            row = [x if j == keep else 0 for j, x in enumerate(row)]
        rows.append(row)
    return rows


CASCADE = [[1, 1, 0, 0], [0, 2, Fraction(1, 2), 0], [0, 0, 3, 0]]


@settings(max_examples=200, deadline=None)
@given(peelable_matrices())
@example([])
@example([[0, 0, 0]])
@example(CASCADE)  # each peel makes the next lone entry
@example([[1, 2, 3], [4, 5, 6]])  # nothing to peel
def test_peeled_integer_kernel_is_the_hermite_kernel(rows):
    assert integer_kernel_basis(rows) == hermite_kernel(rows)


def test_peeled_integer_kernel_pins():
    assert integer_kernel_basis([]) == []
    assert integer_kernel_basis([[0, 0, 0]]) == [[1, 0, 0], [0, 1, 0],
                                                 [0, 0, 1]]
    assert integer_kernel_basis(CASCADE) == [[0, 0, 0, 1]]
    assert integer_kernel_basis([[1, 2, 3], [4, 5, 6]]) == [[1, -2, 1]]


def test_ff_rank_examples():
    t1, t2 = S("t1"), S("t2")
    assert ff_rank([[t1, t2], [t2, t1]]) == 2
    assert ff_rank([[t1], [2 * t1]]) == 1
    assert ff_rank([[FieldElem.zero(), FieldElem.zero()]]) == 0
    z = cyclotomic_root(3)
    one3 = FieldElem.one(3)
    assert ff_rank([[z, one3], [one3, z]]) == 2
    assert ff_rank([[z, one3], [z * z, z]]) == 1


def test_ff_rank_sparse_rows_and_ragged_rows():
    t1, t2 = S("t1"), S("t2")
    assert ff_rank([{1: t2}, {0: t1, 1: t2}, {0: 2 * t1}]) == 2
    with pytest.raises(DimensionMismatch):
        ff_rank([[t1, t2], [t1]])
    with pytest.raises(DimensionMismatch):
        ff_rank([[t1], [t1, FieldElem.zero()]])


def test_rank_determinant_identity():
    # det(t1^2 - t2^2) is a nonzero polynomial, so the rank is full
    t1, t2 = S("t1"), S("t2")
    det = t1 * t1 - t2 * t2
    assert not det.is_zero()
    assert ff_rank([[t1, t2], [t2, t1]]) == 2


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.fractions(min_value=-3, max_value=3,
                                      max_denominator=3),
                         min_size=3, max_size=3), min_size=1, max_size=4))
def test_kernel_combination_vanishes(rows):
    for v in kernel_basis(rows):
        for row in rows:
            assert sum(c * x for c, x in zip(row, v)) == 0
    for v in integer_kernel_basis(rows):
        assert any(v)
        for row in rows:
            assert sum(c * x for c, x in zip(row, v)) == 0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_rank_transpose(seed):
    rng = random.Random(seed)
    rows = rng.randint(1, 3)
    cols = rng.randint(1, 3)
    syms = ["t1", "t2"]
    order = rng.choice((1, 3))
    def entry():
        e = FieldElem.from_int(rng.randint(-2, 2), order)
        if order == 3:
            e = e + rng.randint(-1, 1) * cyclotomic_root(3, rng.randint(1, 2))
        for _ in range(rng.randint(0, 2)):
            e = e * S(rng.choice(syms))
        if rng.random() < 0.3:
            e = e / (S(rng.choice(syms)) + rng.randint(1, 2))
        return e
    m = [[entry() for _ in range(cols)] for _ in range(rows)]
    mt = [[m[r][c] for r in range(rows)] for c in range(cols)]
    rank = ff_rank(m)
    assert rank == ff_rank(mt)
    a, b = entry(), entry()
    i, j = rng.randrange(rows), rng.randrange(rows)
    combination = [a * x + b * y for x, y in zip(m[i], m[j])]
    assert ff_rank(m + [combination]) == rank


sparse_vectors = st.dictionaries(
    st.integers(0, 5), st.fractions(-3, 3, max_denominator=4).filter(bool),
    max_size=4)


@settings(max_examples=100, deadline=None)
@given(st.lists(sparse_vectors, max_size=6), sparse_vectors)
def test_basis_rows_are_the_combinations_their_coordinates_name(vectors,
                                                                 target):
    """After ``extend_basis`` with coordinates, each row is the combination
    of inputs its coordinates name; a reduction's residue, which has no
    pivot, plus the combination its coordinates name is the vector
    reduced, and an input leaves no residue."""
    def combination(coords):
        out = {}
        for i, c in coords.items():
            _add_multiple(out, c, vectors[i])
        return out

    basis = []
    for i, v in enumerate(vectors):
        extend_basis(basis, dict(v), {i: 1})
    for c, p, rest, coords in basis:
        assert combination(coords) == {c: p, **rest}
    for v in vectors + [target]:
        coords = {}
        residue = reduce_mod(basis, dict(v), coords)
        assert not residue.keys() & {c for c, *_ in basis}
        assert not residue or v is target
        out = combination(coords)
        _add_multiple(out, 1, residue)
        assert out == v


def test_span_basis_reduce_rejects_an_uncleared_element():
    t = S("t")
    with pytest.raises(ValueError):
        SpanBasis([t]).reduce(1 / (t + 1))


def test_rational_span_solve():
    t1, t2 = S("t1"), S("t2")
    sol = rational_span_solve([t1, t2], 2 * t1 - 3 * t2)
    assert sol == [Fraction(2), Fraction(-3)]
    assert rational_span_solve([t1], t2) is None
    assert rational_span_solve([], FieldElem.zero()) == []
    assert rational_span_solve([], t1) is None


def _exact(x) -> bool:
    return x.__class__ is int or x.__class__ is Fraction


small_ints = st.integers(-3, 3)


@st.composite
def integral_elems(draw):
    """Quotients of polynomials in t1, t2 with int coefficients."""
    t1, t2 = S("t1"), S("t2")

    def poly():
        out = FieldElem.from_int(draw(st.integers(1, 3)))
        for _ in range(draw(st.integers(0, 2))):
            out = out + draw(small_ints) * t1 ** draw(st.integers(0, 2)) \
                * t2 ** draw(st.integers(0, 1))
        return out

    num, den = poly(), poly()
    return num / den if den else num


@settings(max_examples=60, deadline=None)
@given(st.lists(integral_elems(), min_size=1, max_size=4),
       st.lists(small_ints, min_size=4, max_size=4), st.integers(1, 4))
def test_int_coefficients_never_become_floats(elems, zs, k):
    """Integral coefficients are ints, and 1 / int is a float: every pivot
    inversion, every quotient and every coordinate stays an int or a
    Fraction, and an integral quotient of ints stays an int."""
    from expofield import e_eval, presentation
    from expofield.linalg import _divide, _rref
    rows, _ = _rref(coordinate_matrix(elems))
    assert all(_exact(x) for row in rows for x in row.values())
    assert _divide(zs[0] * k, k).__class__ is int
    assert _divide(2 * zs[0] + 1, 2 * k).__class__ is Fraction
    target = sum((z * e for z, e in zip(zs, elems)), FieldElem.zero()) / k
    coords = SpanBasis(elems).coordinates(target)
    assert coords is not None and all(_exact(q) for q in coords)
    t1, t2 = S("t1"), S("t2")
    f = presentation("F", transcendentals=("t1", "t2"),
                     egraph=[(t1, FieldElem.from_int(2)), (t1 * t2 + 1, t2),
                             (t2 ** 2, t1 + 3)])
    res = e_eval(f, (zs[0] * t1 + zs[1] * (t1 * t2 + 1) + zs[2] * t2 ** 2) / k)
    assert all(_exact(q) for q in f.arg_basis.coordinates(
        (zs[0] * t1 + zs[1] * (t1 * t2 + 1)) / k))
    assert all(d.__class__ is int and d >= 2 for _, d in res.root_specs)
