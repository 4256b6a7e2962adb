"""Polynomial layer: cyclotomic reduction, ring laws, exact division."""

import tracemalloc
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import example, given, settings, strategies as st

from expofield import mpoly
from expofield.fieldelem import cyclotomic_root
from expofield.mpoly import (FIELD_BITS, MAX_EXPONENT, MPoly,
                             cyclotomic_polynomial, decode, encode,
                             monomial_power, monomial_product)
from expofield.errors import (CyclotomicOrderMismatch, UnknownVariable,
                              UnsupportedShape)
from expofield.exprlang import parse_element


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(3) == [1, 1, 1]
    assert cyclotomic_polynomial(4) == [1, 0, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]
    # the degree is phi(m)
    assert len(cyclotomic_polynomial(12)) - 1 == 4
    assert len(cyclotomic_polynomial(27720)) - 1 == 5760


def _divide(num: list, den: list) -> list:
    """Exact division of integer polynomials, low degree first."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        q, r = divmod(num[k + len(den) - 1], den[-1])
        assert r == 0
        out[k] = q
        for i, d in enumerate(den):
            num[k + i] -= q * d
    assert not any(num)
    return out


@cache
def _cyclotomic_by_recursion(m: int) -> list:
    """Phi_m = (x^m - 1) / prod of Phi_d over the divisors d < m of m."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _divide(poly, _cyclotomic_by_recursion(d))
    return poly


def test_cyclotomic_polynomials_match_the_divisor_recursion():
    for m in range(1, 301):
        assert cyclotomic_polynomial(m) == _cyclotomic_by_recursion(m), m


def test_cyclotomic_polynomials_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for m in (*range(1, 121), 210, 1155, 2310, 4001, 16002):
        want = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()
        assert cyclotomic_polynomial(m) == want[::-1], m


def test_zeta_reduction_keeps_no_table():
    """Memory stays linear in the order: a table of the powers of zeta
    would hold about 4001 x 4000 integers here."""
    tracemalloc.start()
    try:
        assert cyclotomic_root(4001) ** 4001 == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_zeta_relation_order3():
    z = MPoly.zeta(3)
    assert z * z * z == MPoly.const(1, 3)
    # power basis stays reduced: zeta^2 = -1 - zeta
    zz = z * z
    assert zz == MPoly.const(-1, 3) - z


def test_zeta_primitive_roots_nontrivial():
    for m in (2, 3, 4, 5, 6, 8, 12):
        z = MPoly.zeta(m)
        assert z ** m == MPoly.const(1, m)
        for k in range(1, m):
            assert z ** k != MPoly.const(1, m), (m, k)


def test_zeta_power_multiple_of_order_is_one():
    # zeta^m was once kept as a monomial "zeta^0" next to the constant 1
    for m in (1, 3, 4, 6):
        for k in (0, m, -m, 2 * m):
            assert MPoly.zeta(m, k) == MPoly.const(1, m)
            assert str(MPoly.zeta(m, k) + MPoly.const(1, m)) == "2"


def test_order_mixing():
    a = MPoly.zeta(3)
    b = MPoly.zeta(4)
    with pytest.raises(CyclotomicOrderMismatch):
        a * b
    with pytest.raises(CyclotomicOrderMismatch,
                       match="zeta used with cyclotomic order 1"):
        MPoly.var("zeta")
    # order 1 constants lift into any layer
    assert MPoly.const(2) * a == a + a


def test_str_deterministic_grlex():
    x, y = MPoly.var("x"), MPoly.var("y")
    p = y + x * x + MPoly.const(3) + x * y
    assert str(p) == "x^2 + x*y + y + 3"
    assert str(MPoly.zero()) == "0"
    assert str(-x + MPoly.const(Fraction(1, 2))) == "-x + 1/2"


def test_exact_divide():
    x, y = MPoly.var("x"), MPoly.var("y")
    f = x * x - y * y
    g = x - y
    q = f.exact_divide(g)
    assert q == x + y
    assert (x * x + y).exact_divide(g) is None
    assert f.exact_divide(MPoly.const(2)) == f * Fraction(1, 2)


def test_content_and_monomial_content():
    x, y = MPoly.var("x"), MPoly.var("y")
    p = x * y * 4 + x * x * y * 6
    assert p.content() == 2
    assert decode(p.monomial_content()) == (("x", 1), ("y", 1))


def test_reflected_operators_and_coercing_equality():
    """A rational on the left of +, - or * acts as the constant polynomial,
    and == compares a polynomial with a rational by value."""
    x = MPoly.var("x", 3)
    assert 2 + x == x + 2 and (2 + x).order == 3
    assert str(1 - x) == "-x + 1" and (1 - x).order == 3
    assert 3 * x == x + x + x
    assert Fraction(1, 2) * x == x * Fraction(1, 2)
    assert MPoly.const(5) == 5 and MPoly.const(5) != 4
    assert MPoly.zero() == 0
    assert repr(x * x - Fraction(1, 2)) == "MPoly(x^2 - 1/2, order=3)"


def test_degree_and_content_of_trivial_polynomials():
    x = MPoly.var("x")
    assert MPoly.zero().degree_in("x") == 0
    # an unseen symbol is not interned by asking for its degree
    assert x.degree_in("never_interned_symbol") == 0
    assert "never_interned_symbol" not in mpoly._INDEX
    assert MPoly.zero().content() == 1
    assert MPoly.const(Fraction(-4, 6)).content() == Fraction(2, 3)


@pytest.mark.parametrize("make, error", [
    (lambda: MPoly({}, 0), CyclotomicOrderMismatch),
    (lambda: MPoly.var("2x"), UnknownVariable),
    (lambda: MPoly.var("x").as_fraction(), ValueError),
    (lambda: MPoly.var("x") ** -1, ValueError),
    (lambda: MPoly.var("x").derivative("zeta"), UnknownVariable),
    (lambda: MPoly.var("x").exact_divide(MPoly.zero()), ZeroDivisionError),
])
def test_malformed_polynomial_operations_are_rejected(make, error):
    with pytest.raises(error):
        make()


def test_exponent_limit_raises_and_never_wraps():
    # fresh symbols, so y's field lies above x's and y leads in packed order
    x, y = MPoly.var("limit_x"), MPoly.var("limit_y")
    top = x ** MAX_EXPONENT * y
    assert decode(next(iter(top.terms))) == (("limit_x", MAX_EXPONENT),
                                             ("limit_y", 1))
    assert top.degree_in("limit_x") == MAX_EXPONENT
    assert top.degree_in("limit_y") == 1
    assert (top * y).exact_divide(y * y) == x ** MAX_EXPONENT
    for make in (lambda: top * x,
                 lambda: x ** (1 << FIELD_BITS),  # one field up, if it wrapped
                 lambda: top.rename({"limit_y": "limit_x"}),
                 lambda: encode([("limit_x", MAX_EXPONENT + 1)]),
                 lambda: encode([("limit_x", MAX_EXPONENT), ("limit_x", 1)])):
        with pytest.raises(UnsupportedShape):
            make()
    # the first quotient term x^MAX_EXPONENT lies below the last one an
    # exact quotient would have, trail(top)/trail(y + x^5) = x^(MAX - 5)*y
    assert top.exact_divide(y + x ** 5) is None
    # over a trailing 1 the first step leaves x^(MAX_EXPONENT + 5) in the
    # remainder, which no exact quotient needs: an exponent above the
    # dividend's
    assert (top + 1).exact_divide(y + x ** 5 + 1) is None


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(["x", "limit_x", "limit_y"]),
                       st.one_of(st.integers(1, 9),
                                 st.integers(1, MAX_EXPONENT)), max_size=3),
       st.one_of(st.integers(1, 9), st.integers(1, 1 << 40),
                 st.sampled_from([MAX_EXPONENT, MAX_EXPONENT + 1,
                                  1 << FIELD_BITS, 1 << 30])))
@example({"x": 1 << 29}, 3)
@example({"x": 3}, MAX_EXPONENT)
@example({"x": 1, "limit_x": 2}, 1 << 30)
def test_monomial_power_and_product_raise_as_mpoly_does(exps, n):
    """mono ** n multiplies each exponent by n and raises exactly where
    ``MPoly.__pow__`` does; a product raises where ``MPoly.__mul__`` does."""
    def outcome(make):
        try:
            return make()
        except UnsupportedShape:
            return UnsupportedShape

    mono = encode(exps.items())
    poly = MPoly({mono: 1})
    power = outcome(lambda: monomial_power(mono, n))
    assert (power is UnsupportedShape) == any(e * n > MAX_EXPONENT
                                              for e in exps.values())
    if power is not UnsupportedShape:
        assert decode(power) == tuple(sorted((s, e * n)
                                             for s, e in exps.items()))
        power = {power: 1}
    assert power == outcome(lambda: (poly ** n).terms)
    square = outcome(lambda: {monomial_product(mono, mono): 1})
    assert square == outcome(lambda: (poly * poly).terms)


LATE = [f"late{i}" for i in range(24)]


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.sampled_from(["x"] + LATE),
                       st.integers(1, MAX_EXPONENT), max_size=6))
def test_decode_inverts_encode(exps):
    """decode finds every set field, however late its symbol lies in the
    table and however large its exponent."""
    encode([(s, 0) for s in LATE])  # interned after every earlier symbol
    pairs = tuple(sorted(exps.items()))
    assert decode(encode(pairs)) == pairs


def test_inexact_division_near_the_limit_stops_at_once():
    """Long division of t^N*u by t + 1 would take one step per power of t;
    the quotient's trailing term t^N*u lies above the first candidate."""
    n = MAX_EXPONENT - 1
    t, u = MPoly.var("t"), MPoly.var("u")
    assert (t ** n * u).exact_divide(t + 1) is None
    assert (t + 1).exact_divide(t ** n * u) is None
    assert str(parse_element(f"(t^{n}*u)/(t + 1)")) == f"(t^{n}*u)/(t + 1)"


names = st.sampled_from(["x", "y", "z"])
coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def polys(draw, max_terms=4):
    out = MPoly.zero()
    for _ in range(draw(st.integers(0, max_terms))):
        c = draw(coeffs)
        mono = MPoly.const(c)
        for _ in range(draw(st.integers(0, 3))):
            mono = mono * MPoly.var(draw(names))
        out = out + mono
    return out


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + MPoly.zero() == a
    assert a * MPoly.const(1) == a
    assert a - a == MPoly.zero()


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_division_roundtrip(a, b):
    if b.is_zero():
        return
    q = (a * b).exact_divide(b)
    assert q is not None and q == a
