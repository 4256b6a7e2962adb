"""Differential oracle: the polynomial kernel and field equality against sympy.

``MPoly`` sums, products and exact quotients are compared with ``sympy.Poly``
over ``QQ`` in the generators (zeta, t1, t2, t3), where zeta is a plain
variable reduced modulo ``cyclotomic_poly(m)``; ``FieldElem`` equality is
compared with ``sympy.cancel`` of the difference, whose numerator must
vanish modulo the same polynomial.  Elements reach sympy only through their
printed text, so the oracle reads no internals of the kernel.  Skipped
where sympy does not import.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from expofield.fieldelem import FieldElem  # noqa: E402
from expofield.mpoly import MPoly  # noqa: E402

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
