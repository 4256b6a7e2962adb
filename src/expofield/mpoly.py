"""Sparse exact multivariate polynomials over Q with one cyclotomic layer.

A polynomial is a map from monomials to Fraction coefficients.  Monomials are
sorted tuples of (symbol, exponent) pairs.  The reserved symbol ``zeta``
denotes a primitive m-th root of unity: its exponent is kept reduced modulo
the m-th cyclotomic polynomial, where m is the ``order`` carried by the
polynomial (order 1 means plain rationals).  Term order is graded lex over
the alphabetically sorted occurring symbols.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .errors import CyclotomicOrderMismatch, UnknownVariable

ZETA = "zeta"

_SYMBOL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

Monomial = tuple  # tuple[tuple[str, int], ...], sorted by symbol

_ONE_MONO: Monomial = ()
_ONE_TERMS = {_ONE_MONO: Fraction(1)}  # the terms of the constant 1


def is_valid_symbol(name: str) -> bool:
    return bool(_SYMBOL_RE.match(name))


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


_ZETA_POWERS: dict[int, list[tuple[Fraction, ...]]] = {}


def _zeta_power(m: int, k: int) -> tuple[Fraction, ...]:
    """zeta_m^k reduced mod Phi_m, as a coefficient vector of length phi(m)."""
    phi = euler_phi(m)
    table = _ZETA_POWERS.setdefault(m, [])
    if not table:
        for j in range(phi):
            vec = [Fraction(0)] * phi
            vec[j] = Fraction(1)
            table.append(tuple(vec))
    while len(table) <= k:
        # multiply the last entry by zeta and reduce the overflow at degree phi
        prev = table[-1]
        shifted = [Fraction(0)] + list(prev[:-1])
        top = prev[-1]
        if top:
            cyc = cyclotomic_polynomial(m)
            lead = cyc[phi]
            for i in range(phi):
                shifted[i] -= top * Fraction(cyc[i], lead)
        table.append(tuple(shifted))
    return table[k]


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    d = dict(a)
    for sym, e in b:
        d[sym] = d.get(sym, 0) + e
    return tuple(sorted(d.items()))


def _mono_total_degree(mono: Monomial) -> int:
    return sum(e for _, e in mono)


def _grlex_key(mono: Monomial, symbols: list[str]) -> tuple:
    exps = dict(mono)
    return (_mono_total_degree(mono), tuple(exps.get(s, 0) for s in symbols))


def _mono_divides(a: Monomial, b: Monomial) -> bool:
    db = dict(b)
    return all(db.get(sym, 0) >= e for sym, e in a)


def _mono_div(b: Monomial, a: Monomial) -> Monomial:
    d = dict(b)
    for sym, e in a:
        d[sym] -= e
        if d[sym] == 0:
            del d[sym]
    return tuple(sorted(d.items()))


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
        c = Fraction(value)
        if c == 0:
            return MPoly.zero(order)
        return MPoly({_ONE_MONO: c}, order, _reduce=False)

    @staticmethod
    def var(name: str, order: int = 1) -> "MPoly":
        if not is_valid_symbol(name):
            raise UnknownVariable(f"bad symbol name {name!r}")
        return MPoly({((name, 1),): Fraction(1)}, order, _reduce=(name == ZETA))

    @staticmethod
    def zeta(order: int, power: int = 1) -> "MPoly":
        return MPoly({((ZETA, power % order if order > 1 else 0),): Fraction(1)}, order) \
            if order > 1 else MPoly.const(1)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        """True when no symbol other than zeta occurs."""
        return all(all(s == ZETA for s, _ in mono) for mono in self.terms)

    def is_rational(self) -> bool:
        return all(not mono for mono in self.terms)

    def as_fraction(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError(f"not a rational constant: {self}")
        return self.terms[_ONE_MONO]

    def symbols(self) -> set:
        out = set()
        for mono in self.terms:
            for sym, _ in mono:
                out.add(sym)
        return out

    def degree_in(self, sym: str) -> int:
        deg = 0
        for mono in self.terms:
            for s, e in mono:
                if s == sym and e > deg:
                    deg = e
        return deg

    def sorted_terms(self) -> list:
        """Terms in descending graded-lex order (deterministic)."""
        syms = sorted(self.symbols())
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0], syms),
                      reverse=True)

    def leading(self) -> tuple:
        """(monomial, coefficient) of the graded-lex leading term."""
        if not self.terms:
            return (_ONE_MONO, Fraction(0))
        return self.sorted_terms()[0]

    def content(self) -> Fraction:
        """Positive rational with terms/content having integer, gcd-1 coefficients."""
        if not self.terms:
            return Fraction(1)
        num_gcd = 0
        den_lcm = 1
        for c in self.terms.values():
            num_gcd = gcd(num_gcd, abs(c.numerator))
            den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
        return Fraction(num_gcd, den_lcm)

    def monomial_content(self) -> Monomial:
        """Largest monomial dividing every term."""
        if not self.terms:
            return _ONE_MONO
        common: dict | None = None
        for mono in self.terms:
            d = dict(mono)
            if common is None:
                common = d
            else:
                common = {s: min(e, d[s]) for s, e in common.items() if s in d}
            if not common:
                return _ONE_MONO
        return tuple(sorted(common.items()))

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
                if s:
                    out[mono] = s
                else:
                    del out[mono]
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
        out: dict = {}
        small, big = (self.terms, other.terms)
        if len(small) > len(big):
            small, big = big, small
        for m1, c1 in small.items():
            for m2, c2 in big.items():
                mono = _mono_mul(m1, m2)
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
        # the loop drops zero coefficients, and only zeta needs reducing
        return MPoly(out, order, _reduce=order > 1)

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
        c = Fraction(c)
        if c == 0:
            return MPoly.zero(self.order)
        return MPoly({m: k * c for m, k in self.terms.items()}, self.order, _reduce=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MPoly):
            other = _coerce(other, self.order)
        return self.terms == other.terms

    __hash__ = None  # mutable-dict backed; compare by value only

    # -- structural operations ---------------------------------------------

    def derivative(self, sym: str) -> "MPoly":
        if sym == ZETA or not is_valid_symbol(sym):
            raise UnknownVariable(f"cannot differentiate by {sym!r}")
        out: dict = {}
        for mono, c in self.terms.items():
            d = dict(mono)
            e = d.get(sym, 0)
            if e == 0:
                continue
            if e == 1:
                del d[sym]
            else:
                d[sym] = e - 1
            key = tuple(sorted(d.items()))
            s = out.get(key)
            cc = c * e
            if s is None:
                out[key] = cc
            else:
                s = s + cc
                if s:
                    out[key] = s
                else:
                    del out[key]
        return MPoly(out, self.order, _reduce=False)

    def rename(self, mapping: dict) -> "MPoly":
        """Substitute symbols by symbols."""
        out: dict = {}
        for mono, c in self.terms.items():
            d: dict = {}
            for sym, e in mono:
                t = mapping.get(sym, sym)
                d[t] = d.get(t, 0) + e
            key = tuple(sorted(d.items()))
            out[key] = out.get(key, Fraction(0)) + c
        return MPoly({m: c for m, c in out.items() if c}, self.order)

    def divide_monomial(self, mono: Monomial) -> "MPoly":
        return MPoly({_mono_div(m, mono): c for m, c in self.terms.items()},
                     self.order, _reduce=False)

    def exact_divide(self, den: "MPoly"):
        """Return self/den when den divides self exactly, else None.

        Not attempted when den carries zeta with a non-unit part (divisibility
        of reduced representatives differs from divisibility in the quotient).
        """
        if den.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        order = _join_order(self.order, den.order)
        if self.is_zero():
            return MPoly.zero(order)
        if den.is_constant():
            inv = _constant_inverse(den)
            if inv is None:
                return None
            return self * inv
        if order > 1 and (ZETA in den.symbols()):
            return None
        syms = sorted(self.symbols() | den.symbols())
        # the grlex-largest term of den is the divisor head
        lead_mono, lead_coeff = max(
            den.terms.items(), key=lambda kv: _grlex_key(kv[0], syms))
        rem = dict(self.terms)
        quot: dict = {}
        while rem:
            mono = max(rem, key=lambda m: _grlex_key(m, syms))
            if not _mono_divides(lead_mono, mono):
                return None
            qm = _mono_div(mono, lead_mono)
            qc = rem[mono] / lead_coeff
            quot[qm] = quot.get(qm, Fraction(0)) + qc
            for dm, dc in den.terms.items():
                key = _mono_mul(dm, qm)
                s = rem.get(key, Fraction(0)) - dc * qc
                if s:
                    rem[key] = s
                else:
                    rem.pop(key, None)
        return MPoly({m: c for m, c in quot.items() if c}, order, _reduce=False)

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms():
            factors = []
            for sym, e in mono:
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


def _frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _coerce(value, order: int) -> MPoly:
    if isinstance(value, MPoly):
        return value
    return MPoly.const(value, order)


def _reduce_terms(terms: dict, order: int) -> dict:
    """Drop zero coefficients and reduce zeta exponents mod Phi_order."""
    phi = euler_phi(order) if order > 1 else 1
    out: dict = {}
    for mono, c in terms.items():
        if not c:
            continue
        ze = dict(mono).get(ZETA, 0)
        if order == 1 and ze:
            raise CyclotomicOrderMismatch("zeta used with cyclotomic order 1")
        if ze < phi or order == 1:
            out[mono] = out.get(mono, Fraction(0)) + c
            if not out[mono]:
                del out[mono]
            continue
        rest = tuple((s, e) for s, e in mono if s != ZETA)
        for j, comp in enumerate(_zeta_power(order, ze)):
            if not comp:
                continue
            key = _mono_mul(rest, ((ZETA, j),) if j else ())
            s = out.get(key, Fraction(0)) + c * comp
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def _constant_inverse(const: MPoly):
    """Inverse of a zeta-only constant polynomial, or None when zero."""
    if const.is_zero():
        return None
    if const.is_rational():
        return MPoly.const(1 / const.as_fraction(), const.order)
    # extended Euclid in Q[x] against Phi_m
    m = const.order
    phi = euler_phi(m)
    a = [Fraction(0)] * phi
    for mono, c in const.terms.items():
        a[dict(mono).get(ZETA, 0)] = c
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
    inv_terms = {}
    for i, c in enumerate(s1):
        if c:
            inv_terms[((ZETA, i),) if i else ()] = c / unit
    return MPoly(inv_terms, m)
