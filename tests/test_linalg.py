"""Exact linear algebra: solve, kernels, saturation, function-field rank."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from expofield import FieldElem, ff_rank, integer_kernel_basis, kernel_basis, qlin_solve
from expofield.errors import DimensionMismatch
from expofield.fieldelem import cyclotomic_root
from expofield.linalg import (SpanBasis, _add_multiple, _integer_columns,
                              column_kernel_basis, coordinate_matrix,
                              hermite_form, rational_span_solve)
from gen import CASCADE, kernel_entries

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
    """The integer kernel from two ``hermite_form`` calls: the left kernel
    of the transpose, read off the transform, then brought to Hermite
    normal form.  It is ``integer_kernel_basis``'s own code, which the
    sympy oracle checks; here it checks ``column_kernel_basis``."""
    h, t = hermite_form(_integer_columns(rows))
    return hermite_form(t[len(h):])[0]


def dense_rows(blocks):
    """The matrix whose column j stacks column j of each block of sparse
    columns, a row per key of each block; a zero row when it has none, so
    that the oracle sees every column."""
    n = len(blocks[0])
    rows = [[col.get(k, 0) for col in b]
            for b in blocks for k in sorted(set().union(*b))]
    return rows or [[0] * n]


nonzero_entries = kernel_entries.filter(bool)


@st.composite
def sparse_blocks(draw):
    """One or two blocks of up to 7 sparse columns over the keys 0..5; a
    block is drawn with no key shared by two of its columns half the time,
    and a column is empty a third of the time."""
    n = draw(st.integers(0, 7))
    blocks = []
    for _ in range(draw(st.integers(1, 2))):
        disjoint, used, block = draw(st.booleans()), set(), []
        for _ in range(n):
            keys = draw(st.sets(st.integers(0, 5), max_size=3))
            if draw(st.integers(0, 2)) == 0:
                keys = set()
            if disjoint:
                keys -= used
                used |= keys
            block.append({k: draw(nonzero_entries) for k in sorted(keys)})
        blocks.append(block)
    return blocks


def columns(rows):
    """A dense matrix as one block of sparse columns."""
    return [[{i: row[j] for i, row in enumerate(rows) if row[j]}
             for j in range(len(rows[0]))]]


@settings(max_examples=300, deadline=None)
@given(sparse_blocks())
@example([[]])
@example([[{}, {}, {}]])
# no shared key, and one key in two blocks is two keys: no kernel
@example([[{0: 1}, {}], [{}, {0: 1}]])
# no shared key: the zero column gives the kernel
@example([[{0: 1}, {}, {1: 2, 2: Fraction(1, 2)}, {}], [{}, {3: 1}, {}, {}]])
@example([[{0: 1}, {0: -2}, {}]])  # two columns share their one key
@example([[{}, {}, {0: 1}], [{0: 1}, {0: -1}, {}]])  # in the second block
@example(columns(CASCADE))  # lone keys, each in a column with a shared one
@example(columns([[1, 1, 0], [0, 1, 1]]) + [[{}, {0: 1}, {}]])
@example(columns([[1, 2, 3], [4, 5, 6]]))  # every key shared
@example(columns([[1, 2, 0], [2, 4, 0], [0, 0, 5]]))  # a lone key, and Hermite
def test_column_kernel_is_the_hermite_kernel(blocks):
    assert column_kernel_basis(blocks) == hermite_kernel(dense_rows(blocks))


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
    """Each ``SpanBasis`` row, over the polynomials sum(c_k * t^k) of the
    vectors, is the combination of inputs its coordinates name; a
    reduction's residue, which has no pivot, plus the combination its
    coordinates name is the element reduced, and an input leaves no
    residue."""
    t = S("t")
    elems = [sum((c * t ** k for k, c in v.items()), FieldElem.zero())
             for v in vectors + [target]]
    span = SpanBasis().covering(elems)
    for e in elems[:-1]:
        span.add(e)
    cleared = [dict(e.num.terms) for e in elems]  # D is 1

    def combination(coords):
        out = {}
        for i, c in coords.items():
            _add_multiple(out, c, cleared[i])
        return out

    for c, p, rest, coords in span.rows:
        assert combination(coords) == {c: p, **rest}
    for i, e in enumerate(elems):
        residue, coords = span.reduce(e)
        assert not residue.keys() & {c for c, *_ in span.rows}
        assert not residue or i == len(vectors)
        out = combination(coords)
        _add_multiple(out, 1, residue)
        assert out == cleared[i]


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
