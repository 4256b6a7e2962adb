"""Field elements: canonical form, field axioms, formal differentiation."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from expofield.fieldelem import (FieldElem, _elem, coerce, coprime_base,
                                 cyclotomic_root, eliminate_symbols,
                                 int_combination, power_product)
from expofield.errors import UnknownVariable, UnsupportedShape
from expofield.mpoly import MAX_EXPONENT, MPoly
from gen import fold_power_product

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


def test_an_order_1_side_lifts_to_the_other_order():
    for num, den in ((MPoly.var("t", 3), MPoly.var("u")),
                     (MPoly.var("t"), MPoly.var("u", 3))):
        e = FieldElem(num, den)
        assert e.order == 3 and str(e) == "(t)/(u)"


def test_reflected_and_foreign_operands():
    t = S("t")
    assert str(1 - (t + 1)) == "-t"
    assert ((t + 1) == "a") is False
    assert (t + 1).__eq__("a") is NotImplemented
    assert str(coerce(MPoly.var("t"))) == "t"


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        S("t1") / FieldElem.zero()
    with pytest.raises(ZeroDivisionError):
        FieldElem(S("t1").num, FieldElem.zero().num)
    for order in (1, 3):
        with pytest.raises(ZeroDivisionError):
            FieldElem.zero(order) ** -1


def test_rational_multiple_over_a_zeta_denominator_is_that_rational():
    """exact_divide decides divisibility by a polynomial that carries zeta
    only for a rational multiple of it, which cancels to that rational."""
    z, t2 = cyclotomic_root(3), S("t2", 3)
    x = t2 ** 2 * z - t2 ** 2 + t2 * z - t2 + 3 * z
    assert str(x) == "t2^2*zeta - t2^2 + t2*zeta - t2 + 3*zeta"
    assert str(x / x) == "1"
    assert str((2 * x) / (3 * x)) == "2/3"
    assert str((x + 1) / x) == \
        "(t2^2*zeta - t2^2 + t2*zeta - t2 + 3*zeta + 1)/(%s)" % x


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
    # a denominator that vanishes at u = 0 before cancellation
    e2 = (u * u * t + u * t) / (u * u + u)  # = t, poles at u = 0, -1
    assert eliminate_symbols(e2, ["u"]) == t
    # 1/u depends on u: u = 0 is a pole, not a value to skip
    with pytest.raises(ZeroDivisionError):
        eliminate_symbols(1 / u, ["u"])


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


@st.composite
def normal_forms(draw):
    """Quotients of sums of terms c * t1^i * t2^j * t3^k * zeta^l over
    Q(zeta_m), exponents in -2..2."""
    m = draw(st.sampled_from([1, 3, 4, 6]))
    atoms = [S(n, m) for n in ("t1", "t2", "t3")] + [cyclotomic_root(m)]

    def poly():
        out = coerce(draw(scalars), m)
        for _ in range(draw(st.integers(0, 3))):
            term = coerce(draw(scalars), m)
            for a in atoms:
                term = term * a ** draw(st.integers(-2, 2))
            out = out + term
        return out

    num, den = poly(), poly()
    return num / den if den else num


@settings(max_examples=200, deadline=None)
@given(normal_forms())
@example((S("t1", 3) + cyclotomic_root(3, 2)) / (S("t2", 3) - 2))
@example(cyclotomic_root(4) * S("t1", 4) ** 2 - S("t3", 4) / 3)
@example((cyclotomic_root(6, 5) + S("t2", 6)) ** 2 / S("t1", 6))
def test_normalization_is_idempotent(e):
    """int_combination and power_product start from their first term, not
    from 0 or 1, and so does ``**``; that prints the same because a normal
    form renormalizes to itself.  An MPoly is always reduced, so a
    numerator over the denominator 1 is taken as it is, and prints as it
    does after a division by 2 that reduces it again."""
    one, zero = FieldElem.one(e.order), FieldElem.zero(e.order)
    text = str(e)
    assert str(FieldElem(e.num, e.den)) == text
    assert str(one * e) == text == str(e * one)
    assert str(e + zero) == text == str(zero + e)
    assert str(e ** 1) == text
    for p in (e.num, e.den):
        assert str(FieldElem(p)) == str(FieldElem(p, MPoly.const(1, e.order)))
        assert str(FieldElem(p)) == str(FieldElem(p * 2,
                                                  MPoly.const(2, e.order)))


T1, T2 = S("t1"), S("t2")


@settings(max_examples=200, deadline=None)
@given(normal_forms(), elems())
@example(coerce(2), T1)
@example(T1, coerce(2))
@example(-T1 ** 2 + T2, T1)
@example(Fraction(3, 2) + Fraction(2, 3) * T1 * T2, -T1 ** 2 + T2)
@example((T1 + 1) / (T1 * T2 - 2), -3 / ((T1 + 1) * (T1 * T2 - 2)))
@example(cyclotomic_root(3) * S("t1", 3) + 1, T1)
def test_fast_paths_equal_the_full_normalization(e, b):
    """At order 1 a power of a normal form is taken as it is, an inverse is
    only rescaled, and a product is rescaled only after a division; each
    gives the key the full constructor gives.  At order 3 the square of
    t1*zeta + 1 has a negative leading coefficient, so there a power is
    ``num ** k`` over ``den ** k`` normalized once, by the constructor."""
    for k in (-3, -2, -1, 1, 2, 3):
        if k < 0 and e.is_zero():
            continue
        x = e if k > 0 else FieldElem(e.den, e.num)
        want = FieldElem(x.num ** abs(k), x.den ** abs(k))
        assert (e ** k).key() == want.key()
    assert (e * b).key() == FieldElem(e.num * b.num, e.den * b.den).key()


@settings(max_examples=200, deadline=None)
@given(normal_forms(), elems(), st.integers(-3, 3), scalars)
@example(coerce(2), T1, -1, Fraction(1, 2))
@example((T1 + 1) / (T1 * T2 - 2), T2 - 1, 2, Fraction(-3))
@example(cyclotomic_root(3) * S("t1", 3) + 1, T1, -2, Fraction(0))
def test_key_is_kept_and_is_the_key_of_num_and_den(a, b, k, q):
    """``key()`` fills a slot on its first call and then returns it, for an
    element made in any way: it must be the key its num and den give."""
    made = [FieldElem(a.num, a.den), _elem(a.num, a.den), a, -a, a + b,
            a - b, a * b, coerce(q, a.order), coerce(a.num), coerce(a)]
    if b:
        made.append(a / b)
    if k >= 0 or a:
        made.append(a ** k)
    for e in made:
        first = e.key()
        assert first == (e.num.key(), e.den.key())
        assert e.key() is first
    assert a.key() == (a.num.key(), a.den.key())  # after a + b and the rest


def test_power_product_takes_integer_exponents_only():
    """An exponent that is not an integer raises and is named, where it
    used to be truncated: t^(1/2) was t and t^2.7 was t^2."""
    t = S("t")
    for z, text in ((Fraction(1, 2), "1/2"), (2.7, "2.7")):
        with pytest.raises(ValueError, match=f"^power_product: the exponent "
                           f"{text} is not an integer$"):
            power_product([t], [z])
    assert str(power_product([t], [Fraction(4, 2)])) == "t^2"


def test_folds_skip_zero_entries():
    t1, t2 = S("t1"), S("t2")
    assert power_product([t1, t2, t1], [2, Fraction(-1), 0]) == t1 ** 2 / t2
    assert power_product([t1, t2], [0, 0]).is_one()
    assert power_product([], [], 3) == FieldElem.one(3)
    assert (int_combination([0, Fraction(1, 2), -3], [t2, t1, t2])
            == t1 / 2 - 3 * t2)
    assert int_combination([0], [t1]).is_zero()
    assert int_combination([1], [2]) == 2


# -- power products over a coprime base ---------------------------------------

# irreducible and pairwise coprime: the symbols, the forms t_i + r for
# distinct r, and two linear forms in two symbols
PIECES = [S(n) + r for n in ("t1", "t2", "t3")
          for r in (0, 1, -2, Fraction(3, 2))]
PIECES += [S("t1") + S("t2"), S("t1") - 2 * S("t3") + 1]
nonzero_scalars = scalars.filter(bool)


@st.composite
def value_lists(draw):
    """(values, exponents, coprime): values made of distinct pieces, each a
    rational constant, c * piece, c / piece or c * piece / piece; half the
    time one more value repeats a value or is the product of two, so that
    the list is not a coprime base."""
    pieces = iter(draw(st.permutations(PIECES)))
    vals = []
    for _ in range(draw(st.integers(1, 4))):
        kind, c = draw(st.integers(0, 3)), draw(nonzero_scalars)
        if kind == 0:
            vals.append(coerce(c))
        elif kind == 1:
            vals.append(c * next(pieces))
        elif kind == 2:
            vals.append(c / next(pieces))
        else:
            vals.append(c * next(pieces) / next(pieces))
    coprime = draw(st.booleans())
    if not coprime:
        i, j = (draw(st.integers(0, len(vals) - 1)) for _ in range(2))
        vals.append(vals[i] if draw(st.booleans()) else vals[i] * vals[j])
        coprime = vals[-1].is_constant()
    exps = draw(st.lists(st.integers(-3, 3), min_size=len(vals),
                         max_size=len(vals)))
    return vals, exps, coprime


P1, Q3 = T1 + 1, T2 + 3
TRAP = ([P1, Q3, P1], [-1, -1, 2], False)


NO_ZETA = [0] * 6


def same_form(got, want):
    """``got`` prints as ``want``, its num and den have the same terms in
    the same order, and each coefficient is an int where ``want``'s is an
    int and a Fraction where it is a Fraction."""
    assert str(got) == str(want)
    for g, w in ((got.num, want.num), (got.den, want.den)):
        assert list(g.terms.items()) == list(w.terms.items())
        assert [type(c) for c in g.terms.values()] == \
            [type(c) for c in w.terms.values()]


@settings(max_examples=300, deadline=None)
@given(value_lists(), st.lists(st.integers(0, 2), min_size=6, max_size=6))
@example(TRAP, NO_ZETA)
@example(([P1, P1], [1, -1], False), NO_ZETA)
@example(([(T1 + 1) * T2, (T1 + 1) * S("t3")], [1, 1], False), NO_ZETA)
@example(([coerce(2), T1 / 3, T2 - 2], [-2, 1, -1], True), NO_ZETA)
@example(([T1 + 1, T2], [1, -2], True), [0, 1, 1, 0, 0, 0])
def test_power_product_prints_as_the_fold(case, zetas):
    """The check passes exactly the lists that are coprime by construction
    (it may miss others, but not these), and ``power_product`` prints what
    the fold prints: with the check's answer, with none (multiplication
    alone up to the second non-constant base), and on the same list with
    zeta^k times the values where k > 0 and zeta itself appended, told the
    order 3 (no multiplication alone) or not (up to the first value of
    order 3); each with the fold's terms and coefficient types too."""
    vals, exps, coprime = case
    flag = coprime_base(vals)
    assert flag == coprime
    want = fold_power_product(vals, exps)
    same_form(power_product(vals, exps, coprime=lambda: flag), want)
    same_form(power_product(vals, exps), want)
    vals = [v * cyclotomic_root(3, k) if k else v for k, v in zip(zetas, vals)]
    vals.append(cyclotomic_root(3))
    exps = exps + [zetas[-1] - 1]
    for order in (1, 3):
        same_form(power_product(vals, exps, order, lambda: flag),
                  fold_power_product(vals, exps, order))


def test_coprime_power_product_pins():
    """The coprime-base rule multiplies primitive parts with int
    coefficients and scales the numerator once; these print as the fold,
    with its terms and coefficient types: a Fraction content, a negative
    constant, a numerator whose leading coefficient is negative turned
    into a denominator, which must lead positive, and a numerator of 1.
    A power whose exponent passes the limit raises as in the fold."""
    half = T1 / 2 + Fraction(1, 3)
    cases = [([half, T2 + 1], [2, -1]), ([half, T2 + 1], [-3, 1]),
             ([coerce(-3), T1 + 1], [3, -1]), ([coerce(-3), T1 + 1], [-1, 2]),
             ([2 - T1], [-1]), ([(2 - T1) / (T2 + 1), T2 - 3], [-1, -2]),
             ([-T1 * T2 + Fraction(5, 2), S("t3") + 1], [-2, 1]),
             ([1 / (T1 + 1), 1 / (T2 + 2)], [1, 1]),
             ([T1 + 1, Fraction(1, 3) * T2 + 1], [-1, -1])]
    for vals, exps in cases:
        want = fold_power_product(vals, exps)
        for coprime in (None, lambda: True):
            same_form(power_product(vals, exps, coprime=coprime), want)
    got = power_product([2 - T1, T2 + 1], [-1, -1], coprime=lambda: True)
    assert str(got) == "(-1)/(t1*t2 + t1 - 2*t2 - 2)"
    got = power_product([T1 + 1, T2 + 2], [-1, -1], coprime=lambda: True)
    assert str(got) == "(1)/(t1*t2 + 2*t1 + t2 + 2)"
    big = S("t") ** (1 << 30) + 1
    for vals, exps in (([big], [2]), ([T1 + 1, big], [1, -2])):
        with pytest.raises(UnsupportedShape):
            power_product(vals, exps, coprime=lambda: True)
        with pytest.raises(UnsupportedShape):
            fold_power_product(vals, exps)


def test_coprime_base_pins():
    t3 = S("t3")
    # the leading coefficient in t1 vanishes at the first point, t2 = 2,
    # and not at the second, t2 = 3
    lead = (T2 - 2) * T1 + 1
    assert coprime_base([lead, T1 + 3])
    # it vanishes at all three points (t2 = 2, 3, 4): a miss, not an error
    assert not coprime_base([(T2 - 2) * (T2 - 3) * (T2 - 4) * T1 + 1, T1 + 3])
    assert not coprime_base([P1, P1])
    assert not coprime_base([(T1 + 1) * T2, (T1 + 1) * t3])
    # an element's own pair: nothing cancels in (p*(t1 - 1))/(p*t2)
    own = FieldElem((P1 * (T1 - 1)).num, (P1 * T2).num)
    assert str(own) == "(t1^2 - 1)/(t1*t2 + t2)" and not coprime_base([own])
    assert coprime_base([coerce(2), T1, 1 / T2, (T1 + T2) / (t3 - 1)])
    # equal bases are not merged: the fold leaves p^2/(p*q) as it is
    text = "(t1^2 + 2*t1 + 1)/(t1*t2 + 3*t1 + t2 + 3)"
    vals, exps, _ = TRAP
    assert str(fold_power_product(vals, exps)) == text
    assert str(power_product(vals, exps)) == text
    assert str(power_product(vals, exps, coprime=lambda: coprime_base(vals))) \
        == text
    for vals, exps in (([lead, T1 + 3, 1 / T2], [2, -3, -1]),
                       ([coerce(3), T1 + 1], [-1, 2]), ([T1, T2], [0, 0])):
        assert str(power_product(vals, exps, coprime=lambda: True)) == \
            str(fold_power_product(vals, exps))
    # coprime() is asked at the second non-constant base, and not before
    asked = []

    def vouch():
        asked.append(True)
        return True
    power_product([coerce(2), P1, Q3], [1, 1, -1], coprime=vouch)
    power_product([P1, coerce(2), 1 / Q3], [1, 1, 0], coprime=vouch)
    assert asked == [True]
    # nor ever over monomials, which take the monomial rule
    power_product([coerce(2), T1, T2, 1 / T1], [1, 1, -1, 2], coprime=vouch)
    assert asked == [True]
    # a base of a higher order is multiplied on, which works at that order
    z = cyclotomic_root(3)
    assert power_product([T1, z], [1, 2], coprime=lambda: True) == T1 * z ** 2


def test_zero_bases_behave_as_in_the_fold():
    """Wherever a zero base stands, a positive power of it makes the
    product 0, in normal form, and a negative one raises; also among
    monomials, which then do not take the monomial rule."""
    zero, zero3 = FieldElem.zero(), FieldElem.zero(3)
    for coprime in (None, lambda: True):
        for vals in ([1 / T1, 0], [1 / T1, zero], [zero, T2 + 1, 1 / T1],
                     [T1 * T2 / 3, coerce(2), zero]):
            got = power_product(vals, [1, 1, 1], coprime=coprime)
            assert got.is_zero() and got.den.terms == {0: 1}
            assert str(got) == str(fold_power_product(vals, [1, 1, 1])) == "0"
        for vals, exps, order in (([0], [-1], 1), ([zero, zero], [1, -1], 1),
                                  ([T1, zero], [2, -3], 1),
                                  ([T1 / T2, zero], [-2, -1], 1),
                                  ([zero3], [-2], 3)):
            with pytest.raises(ZeroDivisionError):
                power_product(vals, exps, order, coprime)
            with pytest.raises(ZeroDivisionError):
                fold_power_product(vals, exps, order)


# -- power products of monomials ----------------------------------------------

@st.composite
def monomial_quotients(draw):
    """c * t1^a * t2^b / t3^d for a nonzero Fraction c of either sign and
    exponents a, b, d in 0..3: the bases share their symbols, so that the
    powers cancel against each other."""
    c = draw(nonzero_scalars)
    a, b, d = (draw(st.integers(0, 3)) for _ in range(3))
    return c * T1 ** a * T2 ** b / S("t3") ** d


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(monomial_quotients(),
                          st.one_of(st.integers(-3, 3),
                                    st.builds(Fraction, st.integers(-3, 3)))),
                max_size=5))
@example([(T1 * T2, 1), (T1, -1)])
@example([(coerce(Fraction(-2, 3)), Fraction(-3)), (T1 / 2, 0), (T2, 2)])
def test_monomial_power_product_is_the_fold(pairs):
    """Over monomial quotients ``power_product`` takes c*M/N from four ints;
    it prints as the fold and has its terms, an int coefficient where the
    fold has an int and a Fraction where it has a Fraction."""
    vals, exps = [v for v, _ in pairs], [z for _, z in pairs]
    same_form(power_product(vals, exps), fold_power_product(vals, exps))


def test_monomial_power_product_pins():
    """A monomial that cancels, exponents past the limit, which raise as
    in the fold, and powers whose monomials pass the limit only when they
    are not cancelled after each factor."""
    got = power_product([T1 * T2, T1], [1, -1])
    assert str(got) == "t2" and got.den.terms == {0: 1}
    big, t = MAX_EXPONENT, S("t")
    for vals, exps in (([t ** 3], [big]), ([1 / t ** 3], [-big]),
                       ([t ** (1 << 30), t ** (1 << 30)], [1, 1])):
        with pytest.raises(UnsupportedShape):
            power_product(vals, exps)
        with pytest.raises(UnsupportedShape):
            fold_power_product(vals, exps)
    vals, exps = [t ** (1 << 30)] * 3, [1, -1, 1]
    assert str(power_product(vals, exps)) == str(fold_power_product(vals, exps))
