"""Concrete syntax for the exponential-ring language.

Grammar::

    system := atom (("&" | NEWLINE) atom)*
    atom   := term ("=" | "!=") term
    term   := sum
    sum    := prod (("+"|"-") prod)*
    prod   := factor ("*" factor)*
    factor := "-" factor | pow
    pow    := unit ("^" NAT)?
    unit   := RAT | INT | IDENT | "E" "(" term ")" | "(" term ")"
    RAT    := INT "/" POSINT        (no spaces inside)

Unary minus binds below ``^``, so ``-t^2`` is ``-(t^2)``, as ordinary
notation and ``MPoly.__str__`` have it.

``E`` is reserved.  The same term grammar (with the reserved identifier
``zeta`` and an optional top-level ``(num)/(den)``) is the canonical textual
form of field elements used in JSON payloads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ExprSyntaxError, UnknownVariable, UnsupportedShape
from .fieldelem import FieldElem
from .mpoly import MPoly, is_valid_symbol

# -- AST --------------------------------------------------------------------


@dataclass(frozen=True)
class ETerm:
    pos: tuple = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class IntLit(ETerm):
    value: int = 0


@dataclass(frozen=True)
class RatLit(ETerm):
    value: Fraction = Fraction(0)


@dataclass(frozen=True)
class Var(ETerm):
    name: str = ""


@dataclass(frozen=True)
class Add(ETerm):
    left: ETerm = None
    right: ETerm = None


@dataclass(frozen=True)
class Sub(ETerm):
    left: ETerm = None
    right: ETerm = None


@dataclass(frozen=True)
class Mul(ETerm):
    left: ETerm = None
    right: ETerm = None


@dataclass(frozen=True)
class Pow(ETerm):
    base: ETerm = None
    exponent: int = 0


@dataclass(frozen=True)
class Exp(ETerm):
    arg: ETerm = None


@dataclass(frozen=True)
class Atom:
    lhs: ETerm
    rel: str  # "eq" | "neq"
    rhs: ETerm


@dataclass(frozen=True)
class ESystem:
    atoms: tuple

    def __post_init__(self):
        if not self.atoms:
            raise UnsupportedShape("a system needs at least one atom")


# -- lexer -------------------------------------------------------------------

# ASCII only: a non-ASCII digit or letter is not a token
_TOKEN = re.compile(r"""(?P<NEWLINE>\n) | (?P<SPACE>[ \t\r]+)
    | (?P<RAT>[0-9]+/[0-9]+) | (?P<INT>[0-9]+)
    | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*) | (?P<NEQ>!=) | (?P<PUNCT>[&()+*^=-])
    """, re.VERBOSE)


def _tokenize(text: str):
    """(kind, text, line, col) tokens ending in EOF; a punctuation token's
    kind is its character."""
    tokens = []
    line, line_start, i = 1, 0, 0
    while i < len(text):
        m = _TOKEN.match(text, i)
        if m is None:
            raise ExprSyntaxError(line, i - line_start + 1,
                                  f"a token (got {text[i]!r})")
        kind = m.group() if m.lastgroup == "PUNCT" else m.lastgroup
        if kind != "SPACE":
            tokens.append((kind, m.group(), line, i - line_start + 1))
        if kind == "NEWLINE":
            line, line_start = line + 1, m.end()
        i = m.end()
    tokens.append(("EOF", "", line, i - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected: str):
        kind, val, line, col = self.peek()
        raise ExprSyntaxError(line, col, expected)

    def expect(self, kind: str):
        if self.peek()[0] != kind:
            self.fail(f"{kind!r}")
        return self.next()

    def skip_newlines(self):
        while self.peek()[0] == "NEWLINE":
            self.next()

    def parse_system(self) -> ESystem:
        self.skip_newlines()
        atoms = [self.parse_atom()]
        while True:
            kind = self.peek()[0]
            if kind in ("&", "NEWLINE"):
                self.next()
                self.skip_newlines()
                if self.peek()[0] == "EOF":
                    break
                atoms.append(self.parse_atom())
            elif kind == "EOF":
                break
            else:
                self.fail("'&', newline or end of input")
        return ESystem(tuple(atoms))

    def parse_atom(self) -> Atom:
        lhs = self.parse_term()
        kind = self.peek()[0]
        if kind == "=":
            self.next()
            return Atom(lhs, "eq", self.parse_term())
        if kind == "NEQ":
            self.next()
            return Atom(lhs, "neq", self.parse_term())
        self.fail("'=' or '!='")

    def parse_term(self) -> ETerm:
        node = self.parse_prod()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.parse_prod()
            node = Add(left=node, right=rhs) if op == "+" else Sub(left=node, right=rhs)
        return node

    def parse_prod(self) -> ETerm:
        node = self.parse_factor()
        while self.peek()[0] == "*":
            self.next()
            node = Mul(left=node, right=self.parse_factor())
        return node

    def parse_factor(self) -> ETerm:
        kind, _, line, col = self.peek()
        if kind != "-":
            return self.parse_pow()
        self.next()
        pos = (line, col)
        inner = self.parse_factor()
        if isinstance(inner, IntLit):
            return IntLit(pos=pos, value=-inner.value)
        if isinstance(inner, RatLit):
            return RatLit(pos=pos, value=-inner.value)
        return Mul(pos=pos, left=IntLit(value=-1), right=inner)

    def parse_pow(self) -> ETerm:
        base = self.parse_unit()
        if self.peek()[0] == "^":
            self.next()
            tok = self.expect("INT")
            return Pow(base=base, exponent=int(tok[1]))
        return base

    def parse_unit(self) -> ETerm:
        kind, val, line, col = self.peek()
        pos = (line, col)
        if kind == "INT":
            self.next()
            return IntLit(pos=pos, value=int(val))
        if kind == "RAT":
            num, den = map(int, val.split("/"))
            if not den:
                self.fail("a nonzero denominator")
            self.next()
            return RatLit(pos=pos, value=Fraction(num, den))
        if kind == "IDENT":
            self.next()
            if val == "E":
                self.expect("(")
                arg = self.parse_term()
                self.expect(")")
                return Exp(pos=pos, arg=arg)
            return Var(pos=pos, name=val)
        if kind == "(":
            self.next()
            node = self.parse_term()
            self.expect(")")
            return node
        self.fail("a term")


def parse(text: str, kind: str = "system"):
    """Parse source text into an ETerm or ESystem."""
    p = _Parser(text)
    if kind == "term":
        node = p.parse_term()
        if p.peek()[0] != "EOF":
            p.fail("end of input")
        return node
    if kind == "system":
        return p.parse_system()
    raise ValueError(f"kind must be 'term' or 'system', got {kind!r}")


# -- printer ------------------------------------------------------------------

_PREC_SUM, _PREC_PROD, _PREC_POW, _PREC_UNIT = 1, 2, 3, 4


def _print_term(t: ETerm, prec: int) -> str:
    if isinstance(t, IntLit):
        s = str(t.value)
        return s
    if isinstance(t, RatLit):
        v = t.value
        if v < 0:
            return f"-{-v.numerator}/{v.denominator}"
        return f"{v.numerator}/{v.denominator}"
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Exp):
        return f"E({_print_term(t.arg, _PREC_SUM)})"
    if isinstance(t, Add):
        s = f"{_print_term(t.left, _PREC_SUM)} + {_print_term(t.right, _PREC_PROD)}"
        return f"({s})" if prec > _PREC_SUM else s
    if isinstance(t, Sub):
        s = f"{_print_term(t.left, _PREC_SUM)} - {_print_term(t.right, _PREC_PROD)}"
        return f"({s})" if prec > _PREC_SUM else s
    if isinstance(t, Mul):
        if isinstance(t.left, IntLit) and t.left.value == -1:
            s = "-" + _print_term(t.right, _PREC_UNIT)
            return f"({s})" if prec > _PREC_PROD else s
        s = f"{_print_term(t.left, _PREC_PROD)}*{_print_term(t.right, _PREC_POW)}"
        return f"({s})" if prec > _PREC_PROD else s
    if isinstance(t, Pow):
        s = _print_term(t.base, _PREC_UNIT)
        if isinstance(t.base, (IntLit, RatLit)) and t.base.value < 0:
            s = f"({s})"  # "-2^2" would read as -(2^2)
        s = f"{s}^{t.exponent}"
        return f"({s})" if prec > _PREC_POW else s
    raise TypeError(f"not an ETerm: {t!r}")


def print_term(t: ETerm) -> str:
    return _print_term(t, _PREC_SUM)


def print_atom(a: Atom) -> str:
    rel = "=" if a.rel == "eq" else "!="
    return f"{print_term(a.lhs)} {rel} {print_term(a.rhs)}"


def print_system(s: ESystem) -> str:
    return " & ".join(print_atom(a) for a in s.atoms)


# -- fresh symbols -------------------------------------------------------------


def term_symbols(t: ETerm) -> set:
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, (Add, Sub, Mul)):
        return term_symbols(t.left) | term_symbols(t.right)
    if isinstance(t, Pow):
        return term_symbols(t.base)
    if isinstance(t, Exp):
        return term_symbols(t.arg)
    return set()


def system_symbols(s: ESystem) -> set:
    out = set()
    for a in s.atoms:
        out |= term_symbols(a.lhs) | term_symbols(a.rhs)
    return out


def fresh_name(prefix: str, used: set) -> str:
    k = 1
    while f"{prefix}{k}" in used:
        k += 1
    return f"{prefix}{k}"


# -- inequation elimination ----------------------------------------------------


def eliminate_inequations(s: ESystem) -> ESystem:
    """Replace every t1 != t2 by (t1 - t2) * w = 1 with a fresh witness w."""
    used = system_symbols(s)
    atoms = []
    for a in s.atoms:
        if a.rel == "eq":
            atoms.append(a)
            continue
        w = fresh_name("_w", used)
        used.add(w)
        if isinstance(a.rhs, IntLit) and a.rhs.value == 0:
            diff = a.lhs
        elif isinstance(a.lhs, IntLit) and a.lhs.value == 0:
            diff = a.rhs
        else:
            diff = Sub(left=a.lhs, right=a.rhs)
        atoms.append(Atom(Mul(left=diff, right=Var(name=w)), "eq", IntLit(value=1)))
    return ESystem(tuple(atoms))


# -- flattening ----------------------------------------------------------------


@dataclass(frozen=True)
class FlatSystem:
    """Exponential-free polynomial system with a designated pairing.

    yvars[i] stands for E(xvars[i]); aux_count is the number of alias
    variables introduced for compound or nested exponential arguments, each
    defined by a polynomial ``alias - argument`` at the head of ``polys``.
    """

    xvars: tuple
    yvars: tuple
    polys: tuple  # MPoly
    aux_count: int


def term_to_poly(t: ETerm, order: int = 1) -> MPoly:
    """Convert an Exp-free term to a polynomial (Pow expands via powers)."""
    if isinstance(t, IntLit):
        return MPoly.const(t.value, order)
    if isinstance(t, RatLit):
        return MPoly.const(t.value, order)
    if isinstance(t, Var):
        if not is_valid_symbol(t.name):
            raise UnknownVariable(t.name)
        return MPoly.var(t.name, order)
    if isinstance(t, Add):
        return term_to_poly(t.left, order) + term_to_poly(t.right, order)
    if isinstance(t, Sub):
        return term_to_poly(t.left, order) - term_to_poly(t.right, order)
    if isinstance(t, Mul):
        return term_to_poly(t.left, order) * term_to_poly(t.right, order)
    if isinstance(t, Pow):
        return term_to_poly(t.base, order) ** t.exponent
    if isinstance(t, Exp):
        raise UnsupportedShape("exponential left after flattening")
    raise TypeError(f"not an ETerm: {t!r}")


def flatten(s: ESystem) -> FlatSystem:
    """Substitute exponentials by paired variables, bottom up.

    Every atom must be an equation (run eliminate_inequations first).
    """
    for a in s.atoms:
        if a.rel != "eq":
            raise UnsupportedShape("flatten requires equations only")
    used = system_symbols(s)
    xvars: list = []
    yvars: list = []
    extra_polys: list = []  # one alias definition per alias
    pair_by_key: dict = {}

    def pair_for(arg: ETerm) -> str:
        key = print_term(arg)
        if key in pair_by_key:
            return pair_by_key[key]
        if isinstance(arg, Var) and arg.name not in yvars:
            x = arg.name
            if x not in xvars:
                xvars.append(x)
        else:
            x = fresh_name("_u", used)
            used.add(x)
            xvars.append(x)
            extra_polys.append(Sub(left=Var(name=x), right=arg))
        y = fresh_name("_v", used)
        used.add(y)
        yvars.append(y)
        pair_by_key[key] = y
        return y

    def walk(t: ETerm) -> ETerm:
        if isinstance(t, Exp):
            inner = walk(t.arg)
            return Var(name=pair_for(inner))
        if isinstance(t, (Add, Sub, Mul)):
            return type(t)(left=walk(t.left), right=walk(t.right))
        if isinstance(t, Pow):
            return Pow(base=walk(t.base), exponent=t.exponent)
        return t

    flat_atoms = []
    for a in s.atoms:
        flat_atoms.append((walk(a.lhs), walk(a.rhs)))
    polys = []
    for t in extra_polys:
        polys.append(term_to_poly(t))
    for lhs, rhs in flat_atoms:
        polys.append(term_to_poly(Sub(left=lhs, right=rhs)))
    return FlatSystem(
        xvars=tuple(xvars),
        yvars=tuple(yvars),
        polys=tuple(polys),
        aux_count=len(extra_polys),
    )


def print_flat(fs: FlatSystem) -> str:
    lines = [f"{p} = 0" for p in fs.polys]
    lines += [f"{y} := E({x})" for x, y in zip(fs.xvars, fs.yvars)]
    return "\n".join(lines)


# -- canonical element text ------------------------------------------------------


def term_to_element(t: ETerm, order: int = 1) -> FieldElem:
    """Exp-free term to FieldElem; ``zeta`` maps to the cyclotomic root."""
    return FieldElem(term_to_poly(t, order))


def parse_element(text: str, order: int = 1) -> FieldElem:
    """Parse the canonical element form: TERM or (TERM)/(TERM)."""
    text = text.strip()
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0 and i > 0 and text[i - 1] == ")":
            num = parse(text[:i], kind="term")
            den = parse(text[i + 1:], kind="term")
            return term_to_element(num, order) / term_to_element(den, order)
    return term_to_element(parse(text, kind="term"), order)
