"""Sparse exact multivariate polynomials over Q with one cyclotomic layer.

A polynomial is a dict from monomials to nonzero coefficients.

Monomials are packed ints (Monagan and Pearce, "Polynomial division using
dynamic arrays, heaps, and packed exponent vectors", CASC 2007).  Symbol i
of one process-wide symbol table owns bits ``i * FIELD_BITS`` up to
``(i + 1) * FIELD_BITS`` of every monomial: the low ``FIELD_BITS - 1`` bits
hold its exponent, and the top bit is a guard bit that a valid monomial
keeps clear.  The table only grows, a symbol is interned the first time a
polynomial uses it, and ``zeta`` is symbol 0, so a field never changes its
meaning.  Multiplying monomials adds their ints and dividing subtracts them;
b is divisible by a exactly when subtracting a from b with every guard bit
set leaves every guard bit set.  ``decode`` and ``encode`` convert to and
from sorted (symbol, exponent) pairs.

The width is a limit: an exponent above ``MAX_EXPONENT`` = 2^31 - 1 would
carry into the next symbol's field.  Multiplication (so also ``**``),
``encode`` and ``rename`` raise ``UnsupportedShape`` where an exponent
would pass it, seen as a set guard bit, instead of wrapping; the CLI
reports that with exit code 2.

A coefficient is an ``int`` when it is integral and a ``Fraction`` only
otherwise, so integer arithmetic never builds a Fraction, and ``==``,
``hash``, ``.numerator`` and ``.denominator`` read the same either way.

The reserved symbol ``zeta`` denotes a primitive m-th root of unity: its
exponent is kept reduced modulo the m-th cyclotomic polynomial, where m is
the ``order`` carried by the polynomial (order 1 means plain rationals).

Orders.  The order of the packed ints is lex with the latest interned
symbol first, so it depends on the order in which symbols were first seen;
only ``exact_divide`` uses it, because an exact quotient, and whether there
is one, does not depend on the monomial order.  Everything a reader can see
keeps graded-lex order over the alphabetically sorted occurring symbols, by
decoding: printing, ``leading()``, which fixes the sign of every FieldElem
denominator, and ``sorted_monomials``, the row order of the reference path
``linalg.coordinate_matrix``.  Every terms dict is built in a fixed order
from its operands' dicts, and a quotient lists its terms in descending
graded-lex order, because FieldElem normal forms are not canonical: the
order of additions can show in a result.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import or_

from .errors import CyclotomicOrderMismatch, UnknownVariable, UnsupportedShape

ZETA = "zeta"

_SYMBOL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

FIELD_BITS = 32
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
_GUARD = 1 << (FIELD_BITS - 1)
_ZETA_SPAN = 1 << FIELD_BITS  # monomials below it are powers of zeta

_SYMBOLS = [ZETA]  # field i holds the exponent of _SYMBOLS[i]
_INDEX = {ZETA: 0}
_GUARDS = _GUARD  # the guard bit of every interned field

# the terms of the constant 1
_ONE_TERMS = {0: 1}


def is_valid_symbol(name: str) -> bool:
    return bool(_SYMBOL_RE.match(name))


def _field(name: str) -> int:
    """Bit offset of a symbol's field, interning the symbol on first use."""
    i = _INDEX.get(name)
    if i is None:
        global _GUARDS
        i = _INDEX[name] = len(_SYMBOLS)
        _SYMBOLS.append(name)
        _GUARDS |= _GUARD << (i * FIELD_BITS)
    return i * FIELD_BITS


def _too_large():
    return UnsupportedShape(f"an exponent exceeds the limit {MAX_EXPONENT}")


def encode(pairs) -> int:
    """The monomial of (symbol, exponent) pairs; exponents of a repeated
    symbol add up."""
    mono = 0
    for sym, e in pairs:
        if e > MAX_EXPONENT:
            raise _too_large()
        mono += e << _field(sym)
    if mono & _GUARDS:
        raise _too_large()
    return mono


def decode(mono: int) -> tuple:
    """The (symbol, exponent) pairs of a monomial, sorted by symbol."""
    out = []
    i = 0
    while mono:
        e = mono & MAX_EXPONENT
        if e:
            out.append((_SYMBOLS[i], e))
        mono >>= FIELD_BITS
        i += 1
    out.sort()
    return tuple(out)


def monomial_gcd(a: int, b: int) -> int:
    """The largest monomial dividing both: the smaller exponent per field."""
    b_le_a = ((a | _GUARDS) - b) & _GUARDS  # guard bits of fields with a >= b
    take_b = b_le_a - (b_le_a >> (FIELD_BITS - 1))  # their exponent bits
    return (b & take_b) | (a & ~take_b)


def _grlex_descending(mono: int) -> tuple:
    """Sort key of descending graded-lex order over alphabetically sorted
    symbols: higher total degree first, then the larger exponent of the
    first symbol where two monomials differ, where a symbol one of them
    lacks counts as exponent 0."""
    pairs = decode(mono)
    return (-sum(e for _, e in pairs), tuple((s, -e) for s, e in pairs))


def sorted_monomials(monos, reverse: bool = False) -> list:
    """Distinct monomials in ascending graded-lex order over the
    alphabetically sorted symbols; descending with ``reverse``."""
    return sorted(monos, key=_grlex_descending, reverse=not reverse)


def euler_phi(m: int) -> int:
    result = m
    n = m
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


def _poly_divide_int(num: list[int], den: list[int]) -> list[int]:
    # exact division of integer univariate polynomials (low -> high coeffs)
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        q, r = divmod(c, den[-1])
        assert r == 0
        out[k] = q
        for i, d in enumerate(den):
            num[k + i] -= q * d
    assert all(c == 0 for c in num)
    return out


_CYCLO_CACHE: dict[int, list[int]] = {}


def cyclotomic_polynomial(m: int) -> list[int]:
    """Integer coefficients of Phi_m, low degree first."""
    if m in _CYCLO_CACHE:
        return _CYCLO_CACHE[m]
    if m == 1:
        poly = [-1, 1]
    else:
        # Phi_m = (x^m - 1) / prod_{d | m, d < m} Phi_d
        num = [0] * (m + 1)
        num[0], num[m] = -1, 1
        for d in range(1, m):
            if m % d == 0:
                num = _poly_divide_int(num, cyclotomic_polynomial(d))
        poly = num
    _CYCLO_CACHE[m] = poly
    return poly


_ZETA_POWERS: dict[int, list[tuple[int, ...]]] = {}


def _zeta_power(m: int, k: int) -> tuple[int, ...]:
    """zeta_m^k reduced mod Phi_m, as an integer coefficient vector of
    length phi(m) (Phi_m is monic)."""
    phi = euler_phi(m)
    table = _ZETA_POWERS.setdefault(m, [])
    if not table:
        for j in range(phi):
            vec = [0] * phi
            vec[j] = 1
            table.append(tuple(vec))
    while len(table) <= k:
        # multiply the last entry by zeta and reduce the overflow at degree phi
        prev = table[-1]
        shifted = [0] + list(prev[:-1])
        top = prev[-1]
        if top:
            cyc = cyclotomic_polynomial(m)
            for i in range(phi):
                shifted[i] -= top * cyc[i]
        table.append(tuple(shifted))
    return table[k]


def _coeff(value):
    """A rational as a coefficient: an int when integral, else a Fraction."""
    if value.__class__ is int:
        return value
    c = value if value.__class__ is Fraction else Fraction(value)
    return c.numerator if c.denominator == 1 else c


def _integral(terms: dict) -> dict:
    """``terms`` with every integral Fraction coefficient made an int."""
    for mono, c in terms.items():
        if c.__class__ is Fraction and c.denominator == 1:
            terms[mono] = c.numerator
    return terms


def _quotient(a, b):
    """The coefficient a / b, exact for ints too."""
    if a.__class__ is int and b.__class__ is int:
        q, r = divmod(a, b)
        return q if not r else Fraction(a, b)
    return _coeff(a / b)


def _join_order(a: int, b: int) -> int:
    if a == b:
        return a
    if a == 1:
        return b
    if b == 1:
        return a
    raise CyclotomicOrderMismatch(f"cannot mix cyclotomic orders {a} and {b}")


class MPoly:
    """Immutable sparse polynomial.  Do not mutate ``terms`` after creation."""

    __slots__ = ("order", "terms")

    def __init__(self, terms: dict, order: int = 1, _reduce: bool = True):
        if order < 1:
            raise CyclotomicOrderMismatch(f"order must be >= 1, got {order}")
        if _reduce:
            terms = _reduce_terms(terms, order)
        self.order = order
        self.terms = terms

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(order: int = 1) -> "MPoly":
        return MPoly({}, order, _reduce=False)

    @staticmethod
    def const(value, order: int = 1) -> "MPoly":
        c = _coeff(value)
        if not c:
            return MPoly.zero(order)
        return MPoly({0: c}, order, _reduce=False)

    @staticmethod
    def var(name: str, order: int = 1) -> "MPoly":
        if not is_valid_symbol(name):
            raise UnknownVariable(f"bad symbol name {name!r}")
        return MPoly({1 << _field(name): 1}, order, _reduce=(name == ZETA))

    @staticmethod
    def zeta(order: int, power: int = 1) -> "MPoly":
        k = power % order
        if not k:  # zeta^0 is the monomial 1, not a zeta factor
            return MPoly.const(1, order)
        return MPoly({k: 1}, order)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        """True when no symbol other than zeta occurs."""
        return not self.terms or max(self.terms) < _ZETA_SPAN

    def is_rational(self) -> bool:
        return not any(self.terms)

    def as_fraction(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError(f"not a rational constant: {self}")
        return Fraction(self.terms[0])

    def symbols(self) -> set:
        # a field of the OR of all monomials is nonzero where a term has it
        return {s for s, _ in decode(reduce(or_, self.terms, 0))}

    def degree_in(self, sym: str) -> int:
        if sym not in _INDEX or not self.terms:
            return 0
        shift = _field(sym)
        return max((m >> shift) & MAX_EXPONENT for m in self.terms)

    def key(self) -> frozenset:
        """Hashable, and equal for two polynomials exactly when their terms
        are: equal keys mean equal printed text."""
        return frozenset(self.terms.items())

    def sorted_terms(self) -> list:
        """Terms in descending graded-lex order (deterministic)."""
        return [(m, self.terms[m])
                for m in sorted_monomials(self.terms, reverse=True)]

    def leading(self) -> tuple:
        """(monomial, coefficient) of the graded-lex leading term."""
        if len(self.terms) < 2:
            return next(iter(self.terms.items()), (0, 0))
        mono = min(self.terms, key=_grlex_descending)
        return (mono, self.terms[mono])

    def content(self):
        """Positive rational with terms/content having integer, gcd-1
        coefficients; an int when every coefficient is one."""
        if not self.terms:
            return 1
        coeffs = self.terms.values()
        try:
            return gcd(*coeffs)
        except TypeError:  # a Fraction among them
            pass
        return Fraction(gcd(*(c.numerator for c in coeffs)),
                        lcm(*(c.denominator for c in coeffs)))

    def monomial_content(self) -> int:
        """Largest monomial dividing every term."""
        monos = iter(self.terms)
        common = next(monos, 0)
        for mono in monos:
            if not common:
                break
            common = monomial_gcd(common, mono)
        return common

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "MPoly":
        other = _coerce(other, self.order)
        order = _join_order(self.order, other.order)
        if not self.terms:
            return other if other.order == order else MPoly(other.terms, order, _reduce=False)
        if not other.terms:
            return self if self.order == order else MPoly(self.terms, order, _reduce=False)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono)
            if s is None:
                out[mono] = c
            else:
                s = s + c
                if not s:
                    del out[mono]
                elif s.__class__ is int or s.denominator != 1:
                    out[mono] = s
                else:
                    out[mono] = s.numerator
        return MPoly(out, order, _reduce=False)

    def __radd__(self, other) -> "MPoly":
        return self.__add__(other)

    def __neg__(self) -> "MPoly":
        return MPoly({m: -c for m, c in self.terms.items()}, self.order, _reduce=False)

    def __sub__(self, other) -> "MPoly":
        return self.__add__(_coerce(other, self.order).__neg__())

    def __rsub__(self, other) -> "MPoly":
        return _coerce(other, self.order).__sub__(self)

    def __mul__(self, other) -> "MPoly":
        other = _coerce(other, self.order)
        order = _join_order(self.order, other.order)
        if not self.terms or not other.terms:
            return MPoly.zero(order)
        for a, b in ((self, other), (other, self)):
            if b.terms == _ONE_TERMS:  # a times 1: a is reduced already
                return a if a.order == order else MPoly(a.terms, order, _reduce=False)
        small, big = (self.terms, other.terms)
        if len(small) > len(big):
            small, big = big, small
        out = {}
        for m1, c1 in small.items():
            for m2, c2 in big.items():
                mono = m1 + m2
                c = c1 * c2
                s = out.get(mono)
                if s is None:
                    out[mono] = c
                else:
                    s = s + c
                    if s:
                        out[mono] = s
                    else:
                        del out[mono]
        if reduce(or_, out, 0) & _GUARDS:
            raise _too_large()
        if order > 1:  # only zeta needs reducing
            return MPoly(out, order)
        # the loop drops zero coefficients
        return MPoly(_integral(out), order, _reduce=False)

    def __rmul__(self, other) -> "MPoly":
        return self.__mul__(other)

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MPoly.const(1, self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, c) -> "MPoly":
        """self times the rational c."""
        c = _coeff(c)
        if not c:
            return MPoly.zero(self.order)
        return MPoly(_integral({m: k * c for m, k in self.terms.items()}),
                     self.order, _reduce=False)

    def divide_scalar(self, c) -> "MPoly":
        """self divided by the nonzero rational c."""
        c = _coeff(c)
        return MPoly({m: _quotient(k, c) for m, k in self.terms.items()},
                     self.order, _reduce=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MPoly):
            other = _coerce(other, self.order)
        return self.terms == other.terms

    __hash__ = None  # mutable-dict backed; compare by value only, or by key()

    # -- structural operations ---------------------------------------------

    def derivative(self, sym: str) -> "MPoly":
        if sym == ZETA or not is_valid_symbol(sym):
            raise UnknownVariable(f"cannot differentiate by {sym!r}")
        if sym not in _INDEX:
            return MPoly.zero(self.order)
        shift = _field(sym)
        unit = 1 << shift
        # distinct monomials stay distinct, nothing merges
        out = {}
        for mono, c in self.terms.items():
            e = (mono >> shift) & MAX_EXPONENT
            if e:
                out[mono - unit] = c * e
        return MPoly(_integral(out), self.order, _reduce=False)

    def rename(self, mapping: dict) -> "MPoly":
        """Substitute symbols by symbols."""
        out: dict = {}
        for mono, c in self.terms.items():
            key = encode((mapping.get(s, s), e) for s, e in decode(mono))
            out[key] = out.get(key, 0) + c
        return MPoly({m: c for m, c in out.items() if c}, self.order)

    def divide_monomial(self, mono: int) -> "MPoly":
        return MPoly({m - mono: c for m, c in self.terms.items()},
                     self.order, _reduce=False)

    def exact_divide(self, den: "MPoly"):
        """Return self/den when den divides self exactly, else None.

        When den carries zeta with a non-unit part, only a rational multiple
        of den is divided (divisibility of reduced representatives differs
        from divisibility in the quotient).
        Long division in the packed int order; the quotient lists its terms
        in descending graded-lex order.  An exact quotient's last term in
        the packed order is trail(self)/trail(den), so the division gives up
        at once when that is not a monomial or a quotient term falls below
        it, instead of taking one step per candidate term.
        """
        if den.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        order = _join_order(self.order, den.order)
        if self.is_zero():
            return MPoly.zero(order)
        if den.is_rational():
            return MPoly(self.divide_scalar(den.terms[0]).terms, order,
                         _reduce=False)
        if den.is_constant():
            return self * _constant_inverse(den)
        if order > 1 and ZETA in den.symbols():
            mono, c = next(iter(den.terms.items()))
            q = _quotient(self.terms.get(mono, 0), c)
            if self.terms == {m: q * d for m, d in den.terms.items()}:
                return MPoly.const(q, order)
            return None
        guards = _GUARDS
        trail, den_trail = min(self.terms), min(den.terms)
        if ((trail | guards) - den_trail) & guards != guards:
            return None
        trail_q = trail - den_trail
        lead_mono = max(den.terms)
        lead_coeff = den.terms[lead_mono]
        rem = dict(self.terms)
        quot: dict = {}
        while rem:
            mono = max(rem)
            # an exact quotient keeps every remainder exponent within self's
            if mono & guards or ((mono | guards) - lead_mono) & guards != guards:
                return None
            qm = mono - lead_mono
            if qm < trail_q:
                return None
            qc = quot[qm] = _quotient(rem[mono], lead_coeff)
            for dm, dc in den.terms.items():
                key = dm + qm
                s = rem.get(key, 0) - dc * qc
                if s:
                    rem[key] = s
                else:
                    rem.pop(key, None)
        if len(quot) > 1:
            quot = {m: quot[m] for m in sorted_monomials(quot, reverse=True)}
        return MPoly(quot, order, _reduce=False)

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms():
            factors = []
            for sym, e in decode(mono):
                factors.append(sym if e == 1 else f"{sym}^{e}")
            mag = abs(coeff)
            if not factors:
                body = _frac_str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = _frac_str(mag) + "*" + "*".join(factors)
            if not parts:
                parts.append(body if coeff > 0 else "-" + body)
            else:
                parts.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"MPoly({self}, order={self.order})"


def _frac_str(f) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _coerce(value, order: int) -> MPoly:
    if isinstance(value, MPoly):
        return value
    return MPoly.const(value, order)


def _reduce_terms(terms: dict, order: int) -> dict:
    """Drop zero coefficients, make coefficients canonical and reduce zeta
    exponents mod Phi_order."""
    phi = euler_phi(order) if order > 1 else 1
    out: dict = {}
    for mono, c in terms.items():
        if not c:
            continue
        ze = mono & MAX_EXPONENT
        if order == 1 and ze:
            raise CyclotomicOrderMismatch("zeta used with cyclotomic order 1")
        if ze < phi:
            s = out.get(mono, 0) + c
            if s:
                out[mono] = s
            else:
                del out[mono]
            continue
        rest = mono - ze
        for j, comp in enumerate(_zeta_power(order, ze)):
            if not comp:
                continue
            key = rest + j
            s = out.get(key, 0) + c * comp
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    for mono, c in out.items():
        out[mono] = _coeff(c)
    return out


def _constant_inverse(const: MPoly) -> MPoly:
    """Inverse of a nonzero polynomial in zeta alone."""
    # extended Euclid in Q[x] against Phi_m
    m = const.order
    phi = euler_phi(m)
    a = [Fraction(0)] * phi
    for mono, c in const.terms.items():
        a[mono] = Fraction(c)
    mod = [Fraction(c) for c in cyclotomic_polynomial(m)]
    r0, r1 = mod, a
    s0, s1 = [Fraction(0)], [Fraction(1)]

    def _deg(p):
        for i in range(len(p) - 1, -1, -1):
            if p[i]:
                return i
        return -1

    def _sub_scaled(p, q, c, shift):
        p = list(p) + [Fraction(0)] * max(0, _deg(q) + shift + 1 - len(p))
        for i in range(_deg(q) + 1):
            p[i + shift] -= c * q[i]
        return p

    while _deg(r1) > 0:
        while _deg(r0) >= _deg(r1):
            d = _deg(r0) - _deg(r1)
            c = r0[_deg(r0)] / r1[_deg(r1)]
            r0 = _sub_scaled(r0, r1, c, d)
            s0 = _sub_scaled(s0, s1, c, d)
        r0, r1, s0, s1 = r1, r0, s1, s0
    # r1 is a nonzero rational (Phi_m irreducible over Q); s1 * a = r1 mod Phi
    unit = r1[0]
    return MPoly({i: c / unit for i, c in enumerate(s1) if c}, m)
