"""Exact rational functions over Q(zeta_m): the ambient coefficient field.

A FieldElem is a num/den pair of MPoly in canonical scaled form: the
denominator is primitive (content 1) with positive leading coefficient, and
cheap cancellations (common monomials, exact divisibility either way) are
applied.  Equality is decided by cross-multiplication, so full gcd reduction
is never required.

Unit-denominator rule: over the denominator 1, given or left out, the
numerator is taken as it is, since an MPoly is always reduced modulo the
cyclotomic polynomial and nothing cancels against 1.  Likewise ``x ** n``
keeps the denominator 1 rather than raising it to the n-th power.

Order-1 rule: over Q (order 1, where nothing is reduced modulo a
cyclotomic polynomial) arithmetic keeps the normal form its operands have.
``x ** n`` is ``num ** n / den ** n`` as it is, and ``x ** -n`` inverts
first, by swapping num and den and rescaling once.  This holds by unique
factorization, since a^n divides b^n exactly when a divides b, so no
cancellation that failed on num/den succeeds on their powers; and by
Gauss's lemma, since a product of primitive polynomials is primitive, with
the product of their leading coefficients leading.  A product ``a * b``
still tries both divisions, but rescales only after one went through.  At a
higher order the reduction breaks both lemmas: at order 3,
(t1*zeta + 1)^2 leads with a negative coefficient, and (t1*zeta)^2 is
-t1^2*zeta - t1^2, whose monomial factor is t1^2.  There ``x ** n`` is
``num ** n / den ** n`` normalized once, and every product is normalized
in full.

The exponential homomorphism E(sum z_i a_i) = prod E(a_i)^z_i is written with
two routines: the fold ``int_combination`` for the sum and ``power_product``
for the product.  Both skip zero entries and start from the first nonzero
term or factor rather than from a fresh 0 or 1; normalization is
idempotent, so the result prints the same either way and one multiplication
is saved.

Monomial rule: at order 1 an element whose num and den are one term each
is c*M/N for a rational c and monomials M and N with no common symbol,
since the monomial cancellation has removed gcd(M, N), and N is monic,
since a one-term denominator rescales to coefficient 1.  A quotient of
monomials has no other normal form, because c, M/N as a Laurent monomial
and gcd(M, N) = 1 fix c, M and N.  A product of powers of such elements is
one again, so ``power_product`` computes it from four ints: the numerator
and denominator of c, and M and N, which add |z| times each base's
monomials (swapped for z < 0), cancelling their common monomial after each
factor as the fold does, so that an exponent passes ``MAX_EXPONENT``, and
raises, at the factor where it does in the fold.  The result is the single
normal form the fold reaches.  The rule needs order 1: above it a monomial
times zeta is reduced modulo the cyclotomic polynomial, so a power of a
monomial in zeta need not be one term, as (t1*zeta)^2 = -t1^2*zeta - t1^2
shows at order 3.

Coprime-base rule: at order 1 every element has no common monomial and no
exact division either way.  If the non-constant numerators and
denominators of some elements are pairwise coprime, each element's own
pair included (``coprime_base``), then no product of their powers can
cancel either, by unique factorization; nor can one with at most one
non-constant factor.  Such a product is the product of the numerators'
powers over that of the denominators', where a negative exponent swaps the
two, rescaled once after a swap and not at all otherwise (Gauss's lemma);
``power_product`` takes it so, with no trial division, up to the first
factor where that may fail: a zero base, a base of a higher order, or the
second non-constant base when the caller does not vouch for a coprime
base.  From there on, and at every order above 1, it multiplies each
power on with FieldElem arithmetic.  Both print the same, since both are
the reduced quotient whose denominator is primitive with a positive
leading coefficient, and that is unique.  Equal bases are not merged into
one power first: for p = t1 + 1 and q = t2 + 3, multiplying on leaves
``p ** -1 * q ** -1 * p ** 2`` as p^2/(p*q), and a merged p/q would print
differently.  Equal bases are no coprime base, so such a product is
multiplied on from the second non-constant base.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import or_

from .mpoly import (MPoly, ZETA, _ONE_TERMS, _join_order, _quotient, decode,
                    encode, monomial_gcd, monomial_power, monomial_product)


class FieldElem:
    __slots__ = ("num", "den", "_key")  # _key: filled by the first key()

    def __init__(self, num: MPoly, den: MPoly | None = None):
        if den is None:
            den = MPoly.const(1, num.order)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        order = _join_order(num.order, den.order)
        if num.order != order:
            num = MPoly(num.terms, order, _reduce=False)
        if den.order != order:
            den = MPoly(den.terms, order, _reduce=False)
        if den.terms == _ONE_TERMS:
            # an MPoly is always reduced, and nothing cancels against 1
            self.num = num
            self.den = den
            return
        num, den, _ = _cancel(num, den, order)
        self.num, self.den = _rescale(num, den)

    # -- constructors --------------------------------------------------

    @staticmethod
    def from_int(v, order: int = 1) -> "FieldElem":
        return FieldElem(MPoly.const(v, order))

    @staticmethod
    def from_symbol(name: str, order: int = 1) -> "FieldElem":
        return FieldElem(MPoly.var(name, order))

    @staticmethod
    def zero(order: int = 1) -> "FieldElem":
        return FieldElem(MPoly.zero(order))

    @staticmethod
    def one(order: int = 1) -> "FieldElem":
        return FieldElem(MPoly.const(1, order))

    # -- queries ---------------------------------------------------------

    @property
    def order(self) -> int:
        return self.num.order

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def is_one(self) -> bool:
        return self.num == self.den

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def is_rational(self) -> bool:
        return self.num.is_rational() and self.den.is_rational()

    def as_fraction(self) -> Fraction:
        return self.num.as_fraction() / self.den.as_fraction()

    def symbols(self) -> set:
        # one decode of the OR of every monomial, as in MPoly.symbols
        mono = reduce(or_, self.den.terms, reduce(or_, self.num.terms, 0))
        return {s for s, _ in decode(mono)} - {ZETA}

    def key(self) -> tuple:
        """Hashable, and equal for two elements exactly when their
        numerators and denominators have equal terms, so equal keys mean
        equal printed text.  Kept by the first call: elements never change."""
        if not hasattr(self, "_key"):
            self._key = (self.num.key(), self.den.key())
        return self._key

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "FieldElem":
        other = coerce(other, self.order)
        if self.den == other.den:
            return FieldElem(self.num + other.num, self.den)
        return FieldElem(self.num * other.den + other.num * self.den,
                         self.den * other.den)

    def __radd__(self, other) -> "FieldElem":
        return self.__add__(other)

    def __neg__(self) -> "FieldElem":
        return _elem(-self.num, self.den)

    def __sub__(self, other) -> "FieldElem":
        return self.__add__(coerce(other, self.order).__neg__())

    def __rsub__(self, other) -> "FieldElem":
        return coerce(other, self.order).__sub__(self)

    def __mul__(self, other) -> "FieldElem":
        other = coerce(other, self.order)
        num, den = self.num * other.num, self.den * other.den
        if num.order > 1 or den.terms == _ONE_TERMS or not num.terms:
            return FieldElem(num, den)
        # a product of primitive denominators with positive leading
        # coefficients is one (Gauss's lemma): rescale only after a division
        num, den, divided = _cancel(num, den, 1)
        return _elem(*_rescale(num, den)) if divided else _elem(num, den)

    def __rmul__(self, other) -> "FieldElem":
        return self.__mul__(other)

    def __truediv__(self, other) -> "FieldElem":
        other = coerce(other, self.order)
        if other.is_zero():
            raise ZeroDivisionError("division by zero field element")
        return FieldElem(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "FieldElem":
        return coerce(other, self.order).__truediv__(self)

    def __pow__(self, n: int) -> "FieldElem":
        """``x ** n``; a negative n inverts first.  At order 1 the power of a
        normal form is one, so ``num ** n`` over ``den ** n`` is taken as it
        is, and the inverse only rescales (the order-1 rule).  At a higher
        order ``num ** n`` over ``den ** n`` is normalized once."""
        x = self
        if n < 0:
            x, n = self._inverse(), -n
        den = x.den if x.den.terms == _ONE_TERMS else x.den ** n
        if x.order == 1:
            return _elem(x.num ** n, den)
        return FieldElem(x.num ** n, den)

    def _inverse(self) -> "FieldElem":
        if self.is_zero():
            raise ZeroDivisionError("division by zero field element")
        if self.order == 1:
            return _elem(*_rescale(self.den, self.num))
        return FieldElem(self.den, self.num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldElem):
            try:
                other = coerce(other, self.order)
            except (TypeError, ValueError):
                return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        return self.num * other.den == other.num * self.den

    __hash__ = None

    # -- calculus and substitution ------------------------------------------

    def derivative(self, sym: str) -> "FieldElem":
        """Formal partial derivative (quotient rule)."""
        dn = self.num.derivative(sym)
        if self.den.is_constant():
            return FieldElem(dn, self.den)
        dd = self.den.derivative(sym)
        return FieldElem(dn * self.den - self.num * dd, self.den * self.den)

    def rename(self, mapping: dict) -> "FieldElem":
        return FieldElem(self.num.rename(mapping), self.den.rename(mapping))

    def subs(self, mapping: dict) -> "FieldElem":
        """Substitute symbols by FieldElems (raises on vanishing denominator)."""
        num = _poly_subs(self.num, mapping)
        den = _poly_subs(self.den, mapping)
        return num / den

    def __str__(self) -> str:
        if self.den.terms == _ONE_TERMS:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"FieldElem({self})"


def _elem(num: MPoly, den: MPoly) -> FieldElem:
    """num/den taken as the normal form it already is."""
    out = object.__new__(FieldElem)
    out.num = num
    out.den = den
    return out


def _cancel(num: MPoly, den: MPoly, order: int) -> tuple:
    """(num, den, divided): num/den, for a den other than 1, with the
    common monomial factor cancelled and an exact division tried each way
    (a zero num divides out to 0/1); ``divided`` says whether one went
    through."""
    mc_num = num.monomial_content()
    if mc_num:
        mc_den = den.monomial_content()
        if mc_den:
            common = monomial_gcd(mc_num, mc_den)
            if common:
                num = num.divide_monomial(common)
                den = den.divide_monomial(common)
    q = num.exact_divide(den)
    if q is not None:
        return q, MPoly.const(1, order), True
    q = den.exact_divide(num)
    if q is not None:
        return MPoly.const(1, order), q, True
    return num, den, False


def _rescale(num: MPoly, den: MPoly) -> tuple:
    """num/den scaled so den is primitive with positive leading
    coefficient."""
    c = den.content()
    if den.leading()[1] < 0:
        c = -c
    if c != 1:
        num = num.divide_scalar(c)
        den = den.divide_scalar(c)
    return num, den


def coerce(value, order: int = 1) -> FieldElem:
    if isinstance(value, FieldElem):
        return value
    if isinstance(value, MPoly):
        return FieldElem(value)
    return FieldElem(MPoly.const(value, order))


def int_combination(coeffs, elems, order: int = 1) -> FieldElem:
    """sum c_i * e_i over the nonzero (rational) coefficients c_i."""
    out = None
    for c, e in zip(coeffs, elems):
        if c:
            term = coerce(c, order) * e
            out = term if out is None else out + term
    return FieldElem.zero(order) if out is None else out


_ONE = MPoly.const(1)  # the denominator of a product that has none


def power_product(bases, exps, order: int = 1, coprime=None) -> FieldElem:
    """prod b_i ** z_i over the nonzero integer exponents z_i (a Fraction
    with denominator 1 counts as an integer).  At ``order`` 1, when every
    such base is a nonzero element of order 1 whose num and den are one
    term each, the product is taken from four ints (the monomial rule,
    ``_monomial_product``), and ``coprime`` is never asked.  Otherwise it
    is taken by multiplication alone while nothing can cancel (the
    coprime-base rule): the numerators' powers over the denominators'
    powers, where a negative exponent swaps the two, rescaled once and only
    after such a swap.  From the first factor where that may fail on, each
    power is multiplied on by FieldElem arithmetic: at an ``order`` above
    1, at a base of a higher order or a zero base, and at the second
    non-constant base unless ``coprime()``, asked from there on, says the
    bases form a coprime base (``coprime_base``).  The product before that
    has one non-constant factor at most, or coprime ones, so it is the
    normal form that multiplying each power on reaches at the same point."""
    pairs = [(b if isinstance(b, FieldElem) else coerce(b, order), int(z))
             for b, z in zip(bases, exps) if z]
    if order == 1 and all(len(b.num.terms) == 1 == len(b.den.terms)
                          and b.num.order == 1 for b, _ in pairs):
        return _monomial_product(pairs)
    num, den = None, _ONE
    inverted = nonconstant = False
    pairs = iter(pairs)
    rest = ()
    for b, z in pairs:
        p, q = b.num, b.den
        constant = b.is_constant()
        if (order > 1 or p.order > 1 or not p.terms or not constant
                and nonconstant and not (coprime and coprime())):
            rest = chain([(b, z)], pairs)
            break
        nonconstant = nonconstant or not constant
        if z < 0:
            p, q, z, inverted = q, p, -z, True
        p = p ** z
        num = p if num is None else num * p
        if q.terms != _ONE_TERMS:
            q = q ** z
            den = q if den is _ONE else den * q
    out = None
    if num is not None:
        out = _elem(*_rescale(num, den)) if inverted else _elem(num, den)
    for b, z in rest:
        out = b ** z if out is None else out * b ** z
    return FieldElem.one(order) if out is None else out


def _monomial_product(pairs) -> FieldElem:
    """prod b ** z over pairs (b, z) with z nonzero and b = c*M/N of order
    1, as the monomial rule says: the numerator and denominator of the
    coefficient and the numerator and denominator monomials, cancelled
    after each factor as the fold cancels, so that every monomial sum and
    power raises ``UnsupportedShape`` where that of the fold does."""
    p = q = 1
    up = down = 0
    for b, z in pairs:
        (m, c), = b.num.terms.items()
        n, = b.den.terms
        cp, cq = c.numerator, c.denominator
        if z < 0:
            m, n, cp, cq, z = n, m, cq, cp, -z
        if z > 1:
            m, n, cp, cq = (monomial_power(m, z), monomial_power(n, z),
                            cp ** z, cq ** z)
        if m:
            up = monomial_product(up, m)
        if n:
            down = monomial_product(down, n)
        if up and down:
            common = monomial_gcd(up, down)
            up, down = up - common, down - common
        p, q = p * cp, q * cq
    num = MPoly({up: _quotient(p, q)}, 1, _reduce=False)
    return _elem(num, MPoly({down: 1}, 1, _reduce=False) if down else _ONE)


def coprime_base(elems) -> bool:
    """Whether the non-constant numerators and denominators of the order-1
    elements ``elems`` are pairwise coprime, each element's own pair
    included.  One-sided: True is proven, False may be a miss.

    Two polynomials that share a factor share a symbol x of it.  With the
    other symbols set to integers at which both x-degrees are kept, that
    factor keeps its own x-degree, so it divides both specializations.
    So a pair passes when, for each symbol x both hold, the GCD of the
    specializations over Q[x] is 1.  Each x gets up to three points; a
    pair fails when none keeps both degrees."""
    polys = [(p.symbols(), [(c, decode(m)) for m, c in p.terms.items()])
             for e in elems for p in (e.num, e.den) if not p.is_constant()]
    for i, (syms_p, p) in enumerate(polys):
        for syms_q, q in polys[:i]:
            for x in syms_p & syms_q:
                others = sorted((syms_p | syms_q) - {x})
                for k in range(1, 4):
                    point = {s: (j + 1) * k + 1 for j, s in enumerate(others)}
                    a, b = _specialize(p, x, point), _specialize(q, x, point)
                    if a[-1] and b[-1]:
                        break
                else:
                    return False
                while b:
                    a, b = b, _remainder(a, b)
                if len(a) > 1:
                    return False
    return True


def _specialize(terms, x: str, point: dict) -> list:
    """The coefficients, lowest degree first, of the polynomial with terms
    ``(c, decode(mono))`` in x, with every other symbol s set to point[s];
    the last is that of the polynomial's own x-degree, and may be 0."""
    out = {}
    for c, pairs in terms:
        d = 0
        for s, e in pairs:
            if s == x:
                d = e
            else:
                c *= point[s] ** e
        out[d] = out.get(d, 0) + c
    return [out.get(d, 0) for d in range(max(out) + 1)]


def _remainder(a: list, b: list) -> list:
    """a mod b over Q, as coefficient lists with nonzero last entries."""
    a = list(a)
    n = len(b) - 1
    for i in range(len(a) - 1 - n, -1, -1):
        q = Fraction(a[i + n], b[n])
        if q:
            for j, c in enumerate(b):
                a[i + j] -= q * c
    del a[n:]
    while a and not a[-1]:
        a.pop()
    return a


def cyclotomic_root(order: int, power: int = 1) -> FieldElem:
    """The constant zeta_order^power as a field element."""
    return FieldElem(MPoly.zeta(order, power))


def lone_symbol(e: FieldElem) -> str | None:
    """The symbol s when e equals s, else None."""
    syms = e.symbols()
    if len(syms) == 1 and e == FieldElem.from_symbol(min(syms), e.order):
        return min(syms)
    return None


def _poly_subs(poly: MPoly, mapping: dict) -> FieldElem:
    out = FieldElem.zero(poly.order)
    for mono, c in poly.terms.items():
        term = coerce(c, poly.order)
        for sym, e in decode(mono):
            if sym in mapping:
                term = term * (coerce(mapping[sym], poly.order) ** e)
            else:
                term = term * FieldElem(MPoly({encode(((sym, e),)): 1},
                                              poly.order, _reduce=False))
        out = out + term
    return out


def eliminate_symbols(elem: FieldElem, syms) -> FieldElem:
    """Rewrite an element constant in ``syms`` without mentioning them.

    Only valid when the element does not depend on the symbols (all partial
    derivatives vanish); each symbol is replaced by 0.  That cannot zero the
    denominator: a denominator vanishing at s = 0 is divisible by s, so the
    numerator is too, and the monomial cancellation of ``FieldElem`` has
    removed s from both.  For an element that does depend on s, such as
    1/s, it raises ``ZeroDivisionError``.
    """
    out = elem
    for sym in sorted(set(syms)):
        if sym in out.symbols():
            out = out.subs({sym: FieldElem.zero(out.order)})
    return out
