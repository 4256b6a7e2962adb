"""Exact rational functions over Q(zeta_m): the ambient coefficient field.

A FieldElem is a num/den pair of MPoly in canonical scaled form: the
denominator is primitive (content 1) with positive leading coefficient, and
cheap cancellations (common monomials, exact divisibility either way) are
applied.  Equality is decided by cross-multiplication, so full gcd reduction
is never required.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import UnknownVariable
from .mpoly import MPoly, ZETA, _join_order, is_valid_symbol


class FieldElem:
    __slots__ = ("num", "den")

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
        if num.is_zero():
            self.num = MPoly.zero(order)
            self.den = MPoly.const(1, order)
            return
        # cancel the common monomial factor
        mc_num = num.monomial_content()
        if mc_num:
            mc_den = den.monomial_content()
            if mc_den:
                dn, dd = dict(mc_num), dict(mc_den)
                common = tuple(sorted(
                    (s, min(e, dd[s])) for s, e in dn.items() if s in dd))
                if common:
                    num = num.divide_monomial(common)
                    den = den.divide_monomial(common)
        if den.is_constant():
            num = num.exact_divide(den)
            den = MPoly.const(1, order)
        else:
            q = num.exact_divide(den)
            if q is not None:
                num, den = q, MPoly.const(1, order)
            else:
                q = den.exact_divide(num)
                if q is not None:
                    num, den = MPoly.const(1, order), q
        # scale so den is primitive with positive leading coefficient
        c = den.content()
        if den.leading()[1] < 0:
            c = -c
        if c != 1:
            num = num.scale(1 / c)
            den = den.scale(1 / c)
        self.num = num
        self.den = den

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
        return (self.num.symbols() | self.den.symbols()) - {ZETA}

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
        out = object.__new__(FieldElem)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other) -> "FieldElem":
        return self.__add__(coerce(other, self.order).__neg__())

    def __rsub__(self, other) -> "FieldElem":
        return coerce(other, self.order).__sub__(self)

    def __mul__(self, other) -> "FieldElem":
        other = coerce(other, self.order)
        return FieldElem(self.num * other.num, self.den * other.den)

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
        if n < 0:
            return FieldElem.one(self.order).__truediv__(self) ** (-n)
        out = FieldElem.one(self.order)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

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
        if sym == ZETA or not is_valid_symbol(sym):
            raise UnknownVariable(f"cannot differentiate by {sym!r}")
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
        if self.den == MPoly.const(1, self.order):
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"FieldElem({self})"


def coerce(value, order: int = 1) -> FieldElem:
    if isinstance(value, FieldElem):
        return value
    if isinstance(value, MPoly):
        return FieldElem(value)
    return FieldElem(MPoly.const(value, order))


def cyclotomic_root(order: int, power: int = 1) -> FieldElem:
    """The constant zeta_order^power as a field element."""
    if order == 1:
        return FieldElem.one()
    return FieldElem(MPoly.zeta(order, power))


def _poly_subs(poly: MPoly, mapping: dict) -> FieldElem:
    out = FieldElem.zero(poly.order)
    for mono, c in poly.terms.items():
        term = coerce(c, poly.order)
        for sym, e in mono:
            if sym in mapping:
                term = term * (coerce(mapping[sym], poly.order) ** e)
            else:
                term = term * FieldElem(MPoly({((sym, e),): Fraction(1)},
                                              poly.order, _reduce=False))
        out = out + term
    return out


def eliminate_symbols(elem: FieldElem, syms) -> FieldElem:
    """Rewrite an element constant in ``syms`` without mentioning them.

    Only valid when the element genuinely does not depend on the symbols
    (all partial derivatives vanish); each symbol is replaced by a small
    integer that keeps the denominator nonzero.
    """
    out = elem
    for sym in sorted(set(syms)):
        if sym not in out.symbols():
            continue
        k = 0
        while True:
            cand_den = _poly_subs(out.den, {sym: FieldElem.from_int(k, out.order)})
            if not cand_den.is_zero():
                num = _poly_subs(out.num, {sym: FieldElem.from_int(k, out.order)})
                out = num / cand_den
                break
            k += 1
            if k > out.den.degree_in(sym) + 1:
                raise ArithmeticError("could not eliminate symbol "
                                      f"{sym!r} from {elem}")
    return out
