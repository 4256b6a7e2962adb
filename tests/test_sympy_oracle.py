"""Differential oracle: the polynomial kernel, field equality and exact
linear algebra against sympy.

``MPoly`` sums, products, powers and exact quotients are compared with
``sympy.Poly`` over ``QQ`` in the generators (zeta, t1, t2, t3), where zeta
is a plain variable reduced modulo ``cyclotomic_poly(m)``; ``FieldElem``
equality is compared with ``sympy.cancel`` of the difference, whose
numerator must vanish modulo the same polynomial, and a power p/q of n/d
must have p * d^k - q * n^k vanish there.  Elements reach sympy only
through their printed text, so the oracle reads no internals of the kernel.

``integer_kernel_basis`` must give a saturated Z-basis of sympy's rational
null space: it annihilates the rows, has n - rank vectors, its Smith normal
form has only unit invariants, and it and sympy's ``nullspace`` span the
same lattice.  ``ff_rank`` must agree, on dense rows and on the same rows
as sparse dicts, with the rank over ``QQ(zeta_m)(t1, t2, t3)`` for m = 1,
3, 4 and 6, where zeta_m is ``exp(2*pi*I/m)`` in sympy's algebraic field.
Each row is cleared of denominators into ``QQ(zeta_m)[t1, t2, t3]`` and
ranked by the fraction-free ``DomainMatrix.rref_den``; ``rank`` over the
fraction field gives the same ranks, but spent up to a minute on single
examples.  ``hermite_form`` must give the same H for every basis of a
lattice.  Whenever ``coprime_base`` passes a list of elements, sympy's
``gcd`` of every two of their non-constant numerators and denominators is
a constant.  Skipped where sympy does not import.
"""

import functools
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, example, given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from sympy.matrices.normalforms import smith_normal_form  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from expofield.fieldelem import FieldElem, coprime_base  # noqa: E402
from expofield.linalg import (ff_rank, hermite_form,  # noqa: E402
                              integer_kernel_basis)
from expofield.mpoly import MPoly  # noqa: E402
from gen import CASCADE, peelable_matrices  # noqa: E402

NAMES = ("t1", "t2", "t3")
Z = sympy.Symbol("zeta")
T = sympy.symbols(NAMES)
GENS = (Z,) + T
LOCALS = {"zeta": Z, **dict(zip(NAMES, T))}

orders = st.sampled_from([1, 3, 4, 6])
coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=3)


def _cyclo(m):
    return sympy.Poly(sympy.cyclotomic_poly(m, Z), *GENS, domain=sympy.QQ)


def _reduced(expr, m) -> sympy.Poly:
    """expr as a polynomial over QQ, zeta reduced modulo Phi_m."""
    p = sympy.Poly(expr, *GENS, domain=sympy.QQ)
    return p.rem(_cyclo(m)) if m > 1 else p


def _text_to_sympy(text: str):
    return sympy.sympify(text.replace("^", "**"), locals=LOCALS)


def _as_poly(p: MPoly) -> sympy.Poly:
    return sympy.Poly(_text_to_sympy(str(p)), *GENS, domain=sympy.QQ)


def _q(c: Fraction):
    return sympy.Rational(c.numerator, c.denominator)


@st.composite
def terms(draw, m, zeta=True, symbols=True, max_terms=4):
    """(coefficient, exponents of t1..t3, zeta power) per term; the zeta
    power may exceed phi(m), so building the polynomial reduces it."""
    out = []
    for _ in range(draw(st.integers(0, max_terms))):
        c = draw(coeffs)
        exps = tuple(draw(st.integers(0, 2)) if symbols else 0 for _ in NAMES)
        k = draw(st.integers(0, 2 * m - 1)) if zeta and m > 1 else 0
        out.append((c, exps, k))
    return out


def build(spec, m):
    """(MPoly, sympy expression) of the same terms."""
    poly, expr = MPoly.zero(m), sympy.Integer(0)
    for c, exps, k in spec:
        term = MPoly.const(c, m)
        for name, e in zip(NAMES, exps):
            term = term * MPoly.var(name, m) ** e
        if k:
            term = term * MPoly.zeta(m, k)
        poly = poly + term
        expr += _q(c) * sympy.Mul(*(t ** e for t, e in zip(T, exps))) * Z ** k
    return poly, expr


@st.composite
def poly_pairs(draw):
    m = draw(orders)
    a, sa = build(draw(terms(m)), m)
    b, sb = build(draw(terms(m)), m)
    return m, a, sa, b, sb


@settings(max_examples=80, deadline=None)
@given(poly_pairs())
def test_add_and_mul_match_sympy(case):
    m, a, sa, b, sb = case
    assert _as_poly(a) == _reduced(sa, m)
    assert _as_poly(a + b) == _reduced(sa + sb, m)
    assert _as_poly(a - b) == _reduced(sa - sb, m)
    assert _as_poly(a * b) == _reduced(sa * sb, m)
    pa = _reduced(sa, m)
    for k in range(5):
        want = pa ** k
        assert _as_poly(a ** k) == (want.rem(_cyclo(m)) if m > 1 else want)


@st.composite
def division_cases(draw):
    """(m, a, sa, den, sden): den is nonzero and either zeta-free, or a
    constant in zeta alone, the two shapes ``exact_divide`` decides."""
    m = draw(orders)
    a, sa = build(draw(terms(m)), m)
    if m > 1 and draw(st.booleans()):
        den, sden = build(draw(terms(m, symbols=False, max_terms=3)), m)
    else:
        den, sden = build(draw(terms(m, zeta=False)), m)
    if den.is_zero():
        den, sden = MPoly.const(2, m), sympy.Integer(2)
    if draw(st.booleans()):
        # a multiple of den, so a quotient exists
        a, sa = a * den, sa * sden
    return m, a, sa, den, sden


@settings(max_examples=150, deadline=None)
@given(division_cases())
def test_exact_divide_matches_sympy(case):
    m, a, sa, den, sden = case
    q = a.exact_divide(den)
    pa, pden = _reduced(sa, m), _reduced(sden, m)
    if all(pden.degree(t) <= 0 for t in T):
        # a unit of Q(zeta_m): the quotient is a times its inverse mod Phi_m
        if m > 1:
            inv = sympy.invert(pden.as_expr(), sympy.cyclotomic_poly(m, Z), Z)
        else:
            inv = 1 / pden.as_expr()
        assert q is not None
        assert _as_poly(q) == _reduced(sympy.expand(pa.as_expr() * inv), m)
        return
    ref_q, ref_r = pa.div(pden)
    if ref_r.is_zero:
        assert q is not None
        assert _as_poly(q) == ref_q
    else:
        assert q is None


@st.composite
def unit_cases(draw):
    """(m, c, sc): a constant c in zeta alone that is not rational, at an
    order whose unit group (Z/m)^x has four or more elements; those of
    8 and 12 are not cyclic."""
    m = draw(st.sampled_from([5, 7, 8, 12, 15]))
    c, sc = build(draw(terms(m, symbols=False)), m)
    assume(not c.is_rational())
    return m, c, sc


@settings(max_examples=60, deadline=None)
@given(unit_cases())
def test_constant_inverse_matches_sympy_at_larger_unit_groups(case):
    """``exact_divide`` inverts c as the product of its other conjugates
    over its norm; at orders 1, 3, 4 and 6 there is one other conjugate,
    so only these orders tell a product that skips or repeats one."""
    m, c, sc = case
    inv = MPoly.const(1, m).exact_divide(c)
    ref = sympy.invert(_reduced(sc, m).as_expr(), sympy.cyclotomic_poly(m, Z), Z)
    assert inv is not None
    assert _as_poly(inv) == _reduced(ref, m)


def _elem(draw, m):
    """(FieldElem, sympy expression): a quotient of two small polynomials."""
    num, snum = build(draw(terms(m, max_terms=3)), m)
    den, sden = build(draw(terms(m, zeta=False, max_terms=2)), m)
    if den.is_zero():
        return FieldElem(num), snum
    return FieldElem(num, den), snum / sden


@st.composite
def elem_pairs(draw):
    """Two elements that are often equal by construction: the same value
    reached along different routes, or two unrelated values."""
    m = draw(orders)
    a, sa = _elem(draw, m)
    b, sb = _elem(draw, m)
    c, sc = _elem(draw, m)
    route = draw(st.integers(0, 3))
    if route == 0:
        return m, (a + b) * c, (sa + sb) * sc, a * c + b * c, sa * sc + sb * sc
    if route == 1 and not c.is_zero():
        return m, a, sa, (a * c) / c, (sa * sc) / sc
    if route == 2 and not b.is_zero():
        return m, a / b + c, sa / sb + sc, (a + b * c) / b, (sa + sb * sc) / sb
    return m, a + b, sa + sb, c, sc


@settings(max_examples=50, deadline=None)
@given(elem_pairs())
def test_fieldelem_equality_matches_cancel(case):
    m, x, sx, y, sy = case
    for e, s in ((x, sx), (y, sy)):
        # each side prints as its own value
        diff_num, _ = sympy.fraction(sympy.cancel(_text_to_sympy(str(e)) - s))
        assert _reduced(sympy.expand(diff_num), m).is_zero
    num, _ = sympy.fraction(sympy.cancel(sx - sy))
    assert (x == y) == _reduced(sympy.expand(num), m).is_zero
    # x prints as n/d, checked above; x ** k prints as p/q with
    # p * d^k = q * n^k mod Phi_m.  Cross-multiplied in sympy's sparse
    # polynomial ring: cancel takes a minute on the cubes.
    ring = sympy.ring(GENS, sympy.QQ)[0]
    cyclo = ring.from_expr(sympy.cyclotomic_poly(m, Z))

    def num_den(elem):
        return [ring.from_expr(f)
                for f in sympy.fraction(_text_to_sympy(str(elem)))]

    assert str(x ** 0) == "1"
    n, d = num_den(x)
    for k in (-3, -2, -1, 1, 2, 3):
        if k < 0 and not x:
            continue
        p, q = num_den(x ** k)
        a, b = (n, d) if k > 0 else (d, n)
        assert not (p * b ** abs(k) - q * a ** abs(k)).rem(cyclo)


@st.composite
def value_bases(draw):
    """Two to four order-1 quotients of small polynomials; each numerator
    and denominator takes a factor shared with others a third of the
    time, so many lists are no coprime base."""
    shared = build(draw(terms(1, zeta=False, max_terms=2)), 1)[0]
    out = []
    for _ in range(draw(st.integers(2, 4))):
        num, den = (build(draw(terms(1, zeta=False, max_terms=3)), 1)[0]
                    for _ in range(2))
        if draw(st.integers(0, 2)) == 0:
            num = num * shared
        if draw(st.integers(0, 2)) == 0:
            den = den * shared
        if not num.is_zero():
            out.append(FieldElem(num, den) if not den.is_zero()
                       else FieldElem(num))
    return out


@settings(max_examples=150, deadline=None)
@given(value_bases())
def test_a_coprime_base_is_one_for_sympy(vals):
    """One-sided: whenever ``coprime_base`` says yes, sympy's GCD of every
    two of the non-constant numerators and denominators is a constant."""
    if not coprime_base(vals):
        return
    polys = [_as_poly(p) for e in vals for p in (e.num, e.den)
             if not p.is_constant()]
    for i, p in enumerate(polys):
        for q in polys[:i]:
            assert sympy.gcd(p, q).is_ground


# -- integer lattices and function-field rank ---------------------------------


@st.composite
def int_matrices(draw, entries=st.integers(-6, 6), max_rows=5, max_cols=5):
    """Matrices with at least one row, often of lower rank: some rows are
    integer combinations of the ones before them."""
    n = draw(st.integers(1, max_cols))
    rows = [draw(st.lists(entries, min_size=n, max_size=n))]
    for _ in range(draw(st.integers(0, max_rows - 1))):
        if draw(st.booleans()):
            k = draw(st.lists(st.integers(-3, 3), min_size=len(rows),
                              max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(k, rows))
                         for j in range(n)])
        else:
            rows.append(draw(st.lists(entries, min_size=n, max_size=n)))
    return rows


def _in_lattice(v, basis):
    """v is an integer combination of the independent rows ``basis``."""
    sol, _ = sympy.Matrix(basis).T.gauss_jordan_solve(sympy.Matrix(v))
    return all(x.is_integer for x in sol)


fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@settings(max_examples=150, deadline=None)
@given(int_matrices(entries=st.one_of(st.just(Fraction(0)), fractions)))
@example([])
@example([[0, 0, 0]])
@example(CASCADE)
@example([[1, 2, 3], [4, 5, 6]])
def test_integer_kernel_basis_is_a_saturated_basis_of_the_null_space(rows):
    _assert_saturated_kernel(rows)


@settings(max_examples=200, deadline=None)
@given(peelable_matrices())
@example([])
@example([[0, 0, 0]])
@example(CASCADE)  # lone entries, each next to a shared one
@example([[1, 2, 3], [4, 5, 6]])  # no lone entry
def test_peeled_integer_kernel_is_the_hermite_kernel(rows):
    """The Hermite kernel on matrices up to 8x8, biased to zero columns and
    to rows with one nonzero entry, also with no row or no column."""
    _assert_saturated_kernel(rows)


def _assert_saturated_kernel(rows):
    n = len(rows[0]) if rows else 0
    basis = integer_kernel_basis(rows)
    a = sympy.Matrix(len(rows), n, [sympy.Rational(x.numerator, x.denominator)
                                    for row in rows for x in row])
    for z in basis:
        assert all(x.__class__ is int for x in z)
        assert a * sympy.Matrix(z) == sympy.zeros(len(rows), 1)
    assert len(basis) == n - a.rank()
    if basis:
        snf = smith_normal_form(sympy.Matrix(basis), domain=sympy.ZZ)
        assert all(abs(snf[i, i]) == 1 for i in range(len(basis)))
    # the same lattice: each null vector, cleared, is an integer
    # combination of the basis, and each (integer) basis vector is a
    # rational one of the null vectors, so it lies in their saturation
    null = a.nullspace()
    for v in null:
        den = lcm(*(int(x.q) for x in v))
        assert _in_lattice([int(x * den) for x in v], basis)
    for z in basis:
        assert sympy.Matrix.hstack(*null, sympy.Matrix(z)).rank() == \
            len(null)


def _is_hermite(h):
    """Row-style Hermite normal form: nonzero rows, pivots positive and
    strictly to the right row by row, entries above a pivot in [0, pivot)."""
    last = -1
    for r, row in enumerate(h):
        c = next((j for j, x in enumerate(row) if x), None)
        if c is None or c <= last or row[c] <= 0:
            return False
        if any(not 0 <= h[i][c] < row[c] for i in range(r)):
            return False
        last = c
    return True


@st.composite
def unimodular_ops(draw, m):
    """Elementary row operations on m rows: swap, negate, add a multiple."""
    ops = []
    for _ in range(draw(st.integers(0, 8))):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        kind = draw(st.sampled_from(["swap", "negate", "add"]))
        ops.append((kind, i, j, draw(st.integers(-4, 4))))
    return ops


def _apply(ops, rows):
    u = [list(r) for r in rows]
    for kind, i, j, k in ops:
        if kind == "swap":
            u[i], u[j] = u[j], u[i]
        elif kind == "negate":
            u[i] = [-x for x in u[i]]
        elif i != j:
            u[i] = [x + k * y for x, y in zip(u[i], u[j])]
    return u


@st.composite
def lattice_bases(draw):
    rows = draw(int_matrices())
    return rows, _apply(draw(unimodular_ops(len(rows))), rows)


@settings(max_examples=200, deadline=None)
@given(lattice_bases())
def test_hermite_form_depends_only_on_the_lattice(case):
    rows, moved = case
    h, t = hermite_form(rows)
    assert _is_hermite(h)
    assert hermite_form(moved)[0] == h
    assert len(t) == len(rows) and abs(sympy.Matrix(t).det()) == 1
    width = len(rows[0])
    padded = h + [[0] * width] * (len(rows) - len(h))
    assert (sympy.Matrix(t) * sympy.Matrix(rows)).tolist() == padded
    assert len(h) == sympy.Matrix(rows).rank()


@functools.lru_cache(maxsize=None)
def _rank_ring(m):
    """Q(zeta_m)[t1, t2, t3], with zeta_m the complex number
    exp(2 pi i / m), and zeta_m in its coefficient field."""
    if m == 1:
        return sympy.QQ[T], sympy.QQ.one
    root = sympy.exp(2 * sympy.pi * sympy.I / m)
    coeffs = sympy.QQ.algebraic_field(root)
    return coeffs[T], coeffs.from_sympy(root)


def _in_rank_ring(expr, m):
    """A polynomial in zeta, t1, t2 and t3 as an element of
    ``_rank_ring(m)``."""
    ring, zeta = _rank_ring(m)
    coeffs = ring.domain
    out = {}
    for (k, *exps), c in sympy.Poly(expr, Z, *T).terms():
        key = tuple(map(int, exps))
        out[key] = out.get(key, coeffs.zero) + coeffs.convert(c) * zeta ** k
    return ring.ring.from_dict(out)


def _cleared_rows(rows, m):
    """Each row times the product of its entries' denominators, as
    polynomials in ``_rank_ring(m)``: scaling a row by a nonzero element
    keeps the rank."""
    ring = _rank_ring(m)[0]
    out = []
    for row in rows:
        parts = [sympy.fraction(sympy.together(_text_to_sympy(str(e))))
                 for e in row]
        nums = [_in_rank_ring(n, m) for n, _ in parts]
        dens = [_in_rank_ring(d, m) for _, d in parts]
        out.append([functools.reduce(ring.mul, dens[:j] + dens[j + 1:], num)
                    for j, num in enumerate(nums)])
    return out


@st.composite
def function_matrices(draw):
    """(m, rows): matrices of small quotients in t1, t2, t3 and zeta_m,
    often of lower rank: some rows are sums of multiples of the ones before
    them by field elements."""
    m = draw(orders)
    n = draw(st.integers(1, 4))

    def poly(zeta):
        return build(draw(terms(m, zeta=zeta, max_terms=2)), m)[0]

    def entry():
        num, den = poly(True), poly(False)
        return FieldElem(num) if den.is_zero() else FieldElem(num, den)

    rows = [[entry() for _ in range(n)]]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            k = [entry() for _ in rows]
            rows.append([sum((c * r[j] for c, r in zip(k, rows)),
                             FieldElem.zero(m)) for j in range(n)])
        else:
            rows.append([entry() for _ in range(n)])
    return m, rows


@settings(max_examples=60, deadline=None)
@given(function_matrices())
def test_ff_rank_matches_domain_matrix_rank(case):
    """On dense rows, and on the same rows as sparse dicts."""
    m, rows = case
    dm = DomainMatrix(_cleared_rows(rows, m), (len(rows), len(rows[0])),
                      _rank_ring(m)[0])
    sparse = [{j: e for j, e in enumerate(row) if e} for row in rows]
    assert ff_rank(rows) == ff_rank(sparse) == len(dm.rref_den()[2])
