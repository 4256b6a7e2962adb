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
``encode``, ``rename``, ``monomial_product`` and ``monomial_power`` raise
``UnsupportedShape`` where an exponent would pass it, seen as a set guard
bit, instead of wrapping; the CLI reports that with exit code 2.

A coefficient is an ``int`` when it is integral and a ``Fraction`` only
otherwise, so integer arithmetic never builds a Fraction, and ``==``,
``hash``, ``.numerator`` and ``.denominator`` read the same either way.

The reserved symbol ``zeta`` denotes a primitive m-th root of unity, where
m is the ``order`` carried by the polynomial (order 1 means plain
rationals, and a zeta there raises ``CyclotomicOrderMismatch``).  Its
exponents are reduced mod m, since zeta^m = 1, and then the zeta part of
each monomial in the other symbols is divided once by the monic m-th
cyclotomic polynomial Phi_m, of degree phi(m), keeping the remainder.
Phi_m comes from Moebius inversion, with no table of zeta powers, so
memory grows as m.

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
from functools import cache, reduce
from math import gcd, lcm
from operator import or_

from .errors import CyclotomicOrderMismatch, UnknownVariable, UnsupportedShape

ZETA = "zeta"

_SYMBOL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

FIELD_BITS = 32
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
_GUARD = 1 << (FIELD_BITS - 1)
_ZETA_SPAN = 1 << FIELD_BITS  # monomials below it are powers of zeta
_FIELD_MASK = _ZETA_SPAN - 1  # every bit of field 0

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
    """The (symbol, exponent) pairs of a monomial, sorted by symbol.  Each
    set field is found from the lowest set bit and then cleared, so the
    cost is in the symbols held, not in their place in the table."""
    out = []
    while mono:
        i = ((mono & -mono).bit_length() - 1) // FIELD_BITS
        shift = i * FIELD_BITS
        out.append((_SYMBOLS[i], (mono >> shift) & MAX_EXPONENT))
        mono &= ~(_FIELD_MASK << shift)
    out.sort()
    return tuple(out)


def monomial_gcd(a: int, b: int) -> int:
    """The largest monomial dividing both: the smaller exponent per field."""
    b_le_a = ((a | _GUARDS) - b) & _GUARDS  # guard bits of fields with a >= b
    take_b = b_le_a - (b_le_a >> (FIELD_BITS - 1))  # their exponent bits
    return (b & take_b) | (a & ~take_b)


def monomial_product(a: int, b: int) -> int:
    """The monomial a * b, raising where ``MPoly.__mul__`` does: the sum of
    two valid fields cannot carry, so a set guard bit is the only sign."""
    mono = a + b
    if mono & _GUARDS:
        raise _too_large()
    return mono


def monomial_power(mono: int, n: int) -> int:
    """The monomial mono ** n for n >= 1, by square-and-multiply as
    ``MPoly.__pow__`` does, so it raises exactly where that power does."""
    out = 0
    while True:
        if n & 1:
            out = monomial_product(out, mono)
        n >>= 1
        if not n:
            return out
        mono = monomial_product(mono, mono)


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


@cache
def cyclotomic_polynomial(m: int) -> list[int]:
    """Integer coefficients of Phi_m, low degree first: the product of
    (x^(m/k) - 1)^mu(k) over the squarefree divisors k of m, mu the Moebius
    function (Arnold and Monagan, "Calculating cyclotomic polynomials",
    Math. Comp. 80, 2011).  Its degree is phi(m)."""
    primes = []
    n, p = m, 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    # m/k for the squarefree divisors k with an even and an odd prime count
    even, odd = [m], []
    for p in primes:
        even, odd = even + [e // p for e in odd], odd + [e // p for e in even]
    poly = [1]
    for e in even:  # times x^e - 1
        poly = [a - b for a, b in zip([0] * e + poly, poly + [0] * e)]
    for e in odd:  # exactly divided by x^e - 1: q[i] = q[i - e] - poly[i]
        poly = [-c for c in poly[:-e]]
        for i in range(e, len(poly)):
            poly[i] += poly[i - e]
    return poly


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
        return MPoly({power % order: 1}, order)

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
        out, base = None, self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            base = base * base if n else base
        return MPoly.const(1, self.order) if out is None else out

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

        A nonzero den in zeta alone is a unit of Q(zeta): self is multiplied
        by its inverse, the product of its other Galois conjugates over its
        norm.  When den carries zeta with a non-unit part, only a rational
        multiple of den is divided (divisibility of reduced representatives
        differs from divisibility in the quotient).
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
            # the conjugates are sigma_k: zeta -> zeta^k, 1 < k < m with
            # gcd(k, m) = 1; every sigma_k fixes the norm, so it is a nonzero
            # rational (Phi_m is irreducible).  Reducing jk mod m keeps
            # the exponent inside its packed field.
            conj = MPoly.const(1, order)
            for k in range(2, order):
                if gcd(k, order) == 1:
                    conj = conj * MPoly({j * k % order: c
                                         for j, c in den.terms.items()}, order)
            return (self * conj).divide_scalar((den * conj).terms[0])
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
    num = _int_str(f.numerator)
    return num if f.denominator == 1 else f"{num}/{_int_str(f.denominator)}"


def _int_str(n: int) -> str:
    """str(n), also past CPython's cap on the digits of one int-to-string
    conversion (4,300 by default; ``sys.set_int_max_str_digits``): such an
    int is split by a power of 10 into halves, each converted apart."""
    try:
        return str(n)
    except ValueError:
        pass
    if n < 0:
        return "-" + _int_str(-n)
    k = n.bit_length() * 3 // 20  # about half its digits: log10(2) > 0.3
    high, low = divmod(n, 10 ** k)
    return _int_str(high) + _int_str(low).zfill(k)


def _parse_int(digits: str) -> int:
    """int(digits) for a string of decimal digits, also past CPython's cap
    on the digits of one string-to-int conversion: such a string is split
    into halves, each converted apart."""
    try:
        return int(digits)
    except ValueError:
        if len(digits) < 2:
            raise
    k = len(digits) // 2
    return _parse_int(digits[:-k]) * 10 ** k + _parse_int(digits[-k:])


def _coerce(value, order: int) -> MPoly:
    if isinstance(value, MPoly):
        return value
    return MPoly.const(value, order)


def _reduce_terms(terms: dict, order: int) -> dict:
    """Drop zero coefficients, make coefficients canonical and reduce zeta
    exponents mod order (zeta^order = 1), then mod Phi_order: the zeta part
    of each monomial in the other symbols is divided once by the monic
    Phi_order, and its remainder kept."""
    if order == 1:
        if reduce(or_, terms, 0) & MAX_EXPONENT:
            raise CyclotomicOrderMismatch("zeta used with cyclotomic order 1")
        return {mono: _coeff(c) for mono, c in terms.items() if c}
    cyc = cyclotomic_polynomial(order)
    phi = len(cyc) - 1
    parts: dict = {}  # monomial without zeta -> {zeta exponent: coefficient}
    for mono, c in terms.items():
        ze = mono & MAX_EXPONENT
        part = parts.setdefault(mono - ze, {})
        ze %= order
        part[ze] = part.get(ze, 0) + c
    out = {}
    for rest, part in parts.items():
        for k in range(max(part), phi - 1, -1):
            c = part.pop(k, 0)
            if c:  # zeta^k = zeta^(k - phi) * (zeta^phi - Phi_order)
                for i, d in enumerate(cyc[:phi]):
                    if d:
                        part[k - phi + i] = part.get(k - phi + i, 0) - c * d
        for ze, c in part.items():
            if c:
                out[rest + ze] = _coeff(c)
    return out
