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

A term nests at most ``MAX_NESTING`` deep, where each bracket, ``(`` and
``E(`` alike, and each unary minus counts one level; the parser checks that
before it goes a level deeper, and the token past the bound is an
``ExprSyntaxError`` at its column.  So brackets and minuses add at most
``MAX_NESTING`` levels to a term, and neither the parser nor a later walk
over the term, which recurses once per level, meets the recursion limit
through them.

A term has five node kinds: ``Lit``, ``Var``, ``BinOp`` (``+``, ``-`` or
``*``), ``Pow`` and ``Exp``.  ``evaluate`` is the one fold over terms, so
``term_to_poly`` and ``efield.eval_term`` differ only in their leaves.

``E`` is reserved.  The same term grammar (with the reserved identifier
``zeta`` and an optional top-level ``(num)/(den)``) is the canonical textual
form of field elements used in JSON payloads.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .errors import ExprSyntaxError, UnsupportedShape
from .fieldelem import FieldElem
from .mpoly import MPoly, _int_str, _parse_int

# -- AST --------------------------------------------------------------------


@dataclass(frozen=True)
class ETerm:
    """A term of the language; the subclasses are its node kinds."""


@dataclass(frozen=True)
class Lit(ETerm):
    value: int | Fraction = 0  # a Fraction prints as num/den, even over 1


@dataclass(frozen=True)
class Var(ETerm):
    name: str = ""


@dataclass(frozen=True)
class BinOp(ETerm):
    op: str = "+"  # "+" | "-" | "*"
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


# nested brackets and unary minuses a term may hold: a bracket takes three
# parser frames, so the deepest parse takes about 600 frames, and they add
# at most 200 levels to the term, inside the default recursion limit of
# 1000 with room for the callers of a walk
MAX_NESTING = 200


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # brackets and minuses open around the current token

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

    def nest(self):
        """One level deeper at the next token, failing at it past
        ``MAX_NESTING``."""
        if self.depth == MAX_NESTING:
            self.fail(f"at most {MAX_NESTING} nested brackets and minuses")
        self.depth += 1

    def bracketed(self) -> ETerm:
        """The "(" term ")" that starts at the next token, "(" or "E", one
        level deeper."""
        self.nest()
        if self.next()[0] != "(":
            self.expect("(")
        node = self.parse_term()
        self.expect(")")
        self.depth -= 1
        return node

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
        """sum and prod in one frame, each folded to the left, so that a
        bracket nests three frames deep: this, ``parse_factor`` and
        ``parse_unit``."""
        node = op = None
        while True:
            prod = self.parse_factor()
            while self.peek()[0] == "*":
                self.next()
                prod = BinOp("*", prod, self.parse_factor())
            node = prod if op is None else BinOp(op, node, prod)
            if self.peek()[0] not in ("+", "-"):
                return node
            op = self.next()[0]

    def parse_factor(self) -> ETerm:
        """factor and pow: a run of unary minuses is read in a loop, each
        minus one level deeper, and applied innermost first, a literal
        negated."""
        depth = self.depth
        while self.peek()[0] == "-":
            self.nest()
            self.next()
        node = self.parse_unit()
        if self.peek()[0] == "^":
            self.next()
            node = Pow(base=node,
                       exponent=_parse_int(self.expect("INT")[1]))
        for _ in range(self.depth - depth):
            node = (Lit(-node.value) if isinstance(node, Lit)
                    else BinOp("*", Lit(-1), node))
        self.depth = depth
        return node

    def parse_unit(self) -> ETerm:
        kind, val = self.peek()[:2]
        if kind in ("INT", "RAT"):
            num, _, den = val.partition("/")
            if den and not _parse_int(den):
                self.fail("a nonzero denominator")
            self.next()
            num = _parse_int(num)
            return Lit(Fraction(num, _parse_int(den)) if den else num)
        if kind == "IDENT":
            if val == "E":
                return Exp(arg=self.bracketed())
            self.next()
            return Var(name=val)
        if kind == "(":
            return self.bracketed()
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
# a BinOp's op -> its function, precedence and printed form
_OPS = {"+": (operator.add, _PREC_SUM, " + "),
        "-": (operator.sub, _PREC_SUM, " - "),
        "*": (operator.mul, _PREC_PROD, "*")}


def _is_int(t: ETerm, v: int) -> bool:  # not a Fraction equal to v
    return isinstance(t, Lit) and type(t.value) is int and t.value == v


def _print_term(t: ETerm, prec: int) -> str:
    if isinstance(t, Lit):
        v = t.value
        return (_int_str(v) if type(v) is int
                else f"{_int_str(v.numerator)}/{_int_str(v.denominator)}")
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Exp):
        return f"E({_print_term(t.arg, _PREC_SUM)})"
    if isinstance(t, BinOp) and t.op in _OPS:
        _, p, sep = _OPS[t.op]  # the left operand binds at p, the right above
        if t.op == "*" and _is_int(t.left, -1):
            s = "-" + _print_term(t.right, _PREC_UNIT)
        else:
            s = _print_term(t.left, p) + sep + _print_term(t.right, p + 1)
        return f"({s})" if prec > p else s
    if isinstance(t, Pow):
        s = _print_term(t.base, _PREC_UNIT)
        if isinstance(t.base, Lit) and t.base.value < 0:
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
    if isinstance(t, BinOp):
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
    """The first of prefix1, prefix2, ... not in ``used``, added to it."""
    k = 1
    while f"{prefix}{k}" in used:
        k += 1
    used.add(f"{prefix}{k}")
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
        if _is_int(a.rhs, 0):
            diff = a.lhs
        elif _is_int(a.lhs, 0):
            diff = a.rhs
        else:
            diff = BinOp("-", a.lhs, a.rhs)
        atoms.append(Atom(BinOp("*", diff, Var(w)), "eq", Lit(1)))
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


def evaluate(t: ETerm, leaf):
    """Fold a term: ``leaf`` gives the value of each Lit, Var and Exp node,
    and BinOp and Pow apply their arithmetic, the left operand first."""
    if isinstance(t, (Lit, Var, Exp)):
        return leaf(t)
    if isinstance(t, BinOp) and t.op in _OPS:
        return _OPS[t.op][0](evaluate(t.left, leaf), evaluate(t.right, leaf))
    if isinstance(t, Pow):
        return evaluate(t.base, leaf) ** t.exponent
    raise TypeError(f"not an ETerm: {t!r}")


def term_to_poly(t: ETerm, order: int = 1) -> MPoly:
    """An Exp-free term as a polynomial, by ``evaluate`` over MPoly."""
    def leaf(node):
        if isinstance(node, Lit):
            return MPoly.const(node.value, order)
        if isinstance(node, Var):
            return MPoly.var(node.name, order)
        raise UnsupportedShape("exponential left after flattening")
    return evaluate(t, leaf)


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
        # a Var prints as its name, so one that reaches here is unpaired
        if isinstance(arg, Var) and arg.name not in yvars:
            x = arg.name
        else:
            x = fresh_name("_u", used)
            extra_polys.append(BinOp("-", Var(x), arg))
        xvars.append(x)
        y = fresh_name("_v", used)
        yvars.append(y)
        pair_by_key[key] = y
        return y

    def walk(t: ETerm) -> ETerm:
        if isinstance(t, Exp):
            inner = walk(t.arg)
            return Var(name=pair_for(inner))
        if isinstance(t, BinOp):
            return BinOp(t.op, walk(t.left), walk(t.right))
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
        polys.append(term_to_poly(BinOp("-", lhs, rhs)))
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
    """Parse the canonical element form: TERM or (TERM)/(TERM).

    A top-level ``/`` after a ``)`` divides only when both sides are single
    parenthesized groups; any other is an ExprSyntaxError at its column, so
    ``1 + (t)/(u)`` is refused rather than read as ``(t + 1)/(u)``.
    """
    text = text.strip()
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0 and i > 0 and text[i - 1] == ")":
            num, den = text[:i], text[i + 1:]
            if not (_one_group(num) and _one_group(den)):
                raise ExprSyntaxError(1, i + 1, "a quotient (TERM)/(TERM)")
            return (term_to_element(parse(num, kind="term"), order)
                    / term_to_element(parse(den, kind="term"), order))
    return term_to_element(parse(text, kind="term"), order)


def _one_group(text: str) -> bool:
    """Whether text is one parenthesized group: its first ``(`` closes at
    its last character."""
    depth = list(accumulate((ch == "(") - (ch == ")") for ch in text))
    return text[:1] == "(" and 0 not in depth[:-1] and depth[-1] == 0
