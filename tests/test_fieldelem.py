"""Field elements: canonical form, field axioms, formal differentiation."""

import pytest
from hypothesis import example, given, settings, strategies as st

from expofield.fieldelem import (FieldElem, coerce, cyclotomic_root,
                                 eliminate_symbols)
from expofield.errors import UnknownVariable

S = FieldElem.from_symbol


def test_additive_identity():
    t1 = S("t1")
    assert t1 + FieldElem.zero() == t1


def test_factorization_identity_cross_multiplication():
    t1 = S("t1")
    e = (t1 * t1 - 1) / (t1 - 1)
    assert e == t1 + 1


def test_cyclotomic_cube():
    z = cyclotomic_root(3)
    assert (z * z * z).is_one()


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        S("t1") / FieldElem.zero()
    with pytest.raises(ZeroDivisionError):
        FieldElem(S("t1").num, FieldElem.zero().num)


def test_derivative_examples():
    t1, t2 = S("t1"), S("t2")
    assert (t1 ** 2 * t2).derivative("t1") == 2 * t1 * t2
    assert (1 / t1).derivative("t1") == -1 / t1 ** 2
    assert t2.derivative("t1").is_zero()


def test_derivative_rejects_reserved():
    with pytest.raises(UnknownVariable):
        S("t1").derivative("zeta")
    with pytest.raises(UnknownVariable):
        S("t1").derivative("not a symbol!")


def test_eliminate_symbols():
    t, u = S("t"), S("u")
    e = (u * t) / u
    assert eliminate_symbols(e, ["u"]) == t
    # denominator vanishing at the first probe points
    e2 = (u * u * t + u * t) / (u * u + u)  # = t, poles at u = 0, -1
    assert eliminate_symbols(e2, ["u"]) == t


def test_subs():
    t1, t2 = S("t1"), S("t2")
    e = (t1 + 1) / t2
    out = e.subs({"t1": t2 * t2 - 1})
    assert out == t2


names = st.sampled_from(["t1", "t2"])
scalars = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def elems(draw, depth=2):
    if depth == 0:
        kind = draw(st.integers(0, 1))
        return coerce(draw(scalars)) if kind else S(draw(names))
    a = draw(elems(depth=depth - 1))
    b = draw(elems(depth=depth - 1))
    op = draw(st.integers(0, 3))
    if op == 0:
        return a + b
    if op == 1:
        return a - b
    if op == 2:
        return a * b
    if b.is_zero():
        return a
    return a / b


@settings(max_examples=50, deadline=None)
@given(elems(), elems(), elems())
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == FieldElem.zero()
    if not a.is_zero():
        assert (a / a).is_one()
        assert ((1 / a) * a).is_one()


@settings(max_examples=50, deadline=None)
@given(elems(), elems())
def test_leibniz_rule(f, g):
    lhs = (f * g).derivative("t1")
    rhs = f * g.derivative("t1") + g * f.derivative("t1")
    assert lhs == rhs


@settings(max_examples=50, deadline=None)
@given(elems())
@example(-S("t1") ** 2 + S("t2") ** 2)
def test_canonical_text_roundtrip(e):
    from expofield.exprlang import parse_element
    assert parse_element(str(e)) == e
