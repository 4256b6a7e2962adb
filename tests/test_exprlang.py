"""Surface syntax: parsing, printing, inequation elimination, flattening."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from expofield.exprlang import (MAX_NESTING, Atom, BinOp, ESystem, Exp, Lit,
                                Pow, Var, eliminate_inequations, flatten,
                                parse, parse_element, print_flat,
                                print_system, print_term, system_symbols,
                                term_to_poly)
from expofield.fieldelem import FieldElem
from expofield.errors import ExprSyntaxError, UnsupportedShape
from expofield.mpoly import _parse_int


def test_parse_axiom_examples():
    s = parse("E(0) = 1")
    assert len(s.atoms) == 1 and s.atoms[0].rel == "eq"
    assert s.atoms[0].lhs == Exp(arg=Lit(value=0))
    assert repr(s.atoms[0].lhs) == repr(Exp(arg=Lit(value=0)))
    s = parse("E(x+y) = E(x)*E(y)")
    assert s.atoms[0].rel == "eq"



def test_coefficients_past_the_digit_cap_round_trip():
    """A coefficient of 5,001 digits, past CPython's 4,300-digit cap on one
    int-string conversion, prints and parses back, as an element and as a
    term."""
    sevens = 7 * (10 ** 5001 - 1) // 9  # made without a string
    e = FieldElem.from_int(sevens) * FieldElem.from_symbol("t") / 2 + 1
    text = "7" * 5001 + "/2*t + 1"
    assert str(e) == text
    back = parse_element(text)
    assert back == e and str(back) == text
    assert print_term(parse(f"x = {text}").atoms[0].rhs) == text
    assert print_term(parse(f"x = -{text}").atoms[0].rhs) == "-" + text
    with pytest.raises(ValueError):  # not digits: as int() does
        _parse_int("1x")

def test_a_system_needs_an_atom():
    # the parser cannot build an empty system, but the constructor is public
    with pytest.raises(UnsupportedShape,
                       match="^a system needs at least one atom$"):
        ESystem(())


def test_parse_error_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("E(x", kind="term")
    assert exc.value.col == 4 and exc.value.line == 1


@pytest.mark.parametrize("text, line, col", [
    ("x = \u00b2", 1, 5),  # superscript two
    ("x = \u0661", 1, 5),  # Arabic-Indic digit one
    ("x = 1\uff12", 1, 6),  # fullwidth digit two
    ("\u00e9 = 1", 1, 1),  # e with acute accent
    ("x1\u00e9 = 2", 1, 3),
    ("x = 1\n y \u03b1 2", 2, 4),  # Greek alpha
    ("x = 1\n y $ 2", 2, 4),
])
def test_non_ascii_is_not_a_token(text, line, col):
    with pytest.raises(ExprSyntaxError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.col) == (line, col)


@pytest.mark.parametrize("text, col", [
    ("1 + (t)/(u)", 8),  # once read as (t + 1)/(u)
    ("(t)/(u) + 1", 4),  # once read as (t)/(u + 1)
    ("2*(t)/(u)", 6),
    ("(t)/(u)/(v)", 4),
    ("(t)/2", 4),
])
def test_quotient_needs_two_parenthesized_groups(text, col):
    with pytest.raises(ExprSyntaxError) as exc:
        parse_element(text)
    assert (exc.value.line, exc.value.col) == (1, col)


@pytest.mark.parametrize("text, kind, col, expected", [
    ("x = 1 y", "system", 7, "'&', newline or end of input"),
    ("x + 1", "system", 6, "'=' or '!='"),
    (")", "system", 1, "a term"),
    ("x y", "element", 3, "end of input"),
])
def test_malformed_text_names_what_was_expected(text, kind, col, expected):
    with pytest.raises(ExprSyntaxError) as exc:
        parse(text) if kind == "system" else parse_element(text)
    assert str(exc.value) == f"line 1, col {col}: expected {expected}"


def _nested(n: int, opener: str) -> str:
    return opener * n + "t" + ")" * n


@pytest.mark.parametrize("opener", ["(", "E("])
def test_nesting_bound(opener):
    """Up to MAX_NESTING brackets parse, 198 among them, the deepest that
    parsed before the bound; one more is a syntax error at the column of
    the bracket past it, and so are 3,000 nested parentheses."""
    for n in (198, MAX_NESTING):
        node = parse(_nested(n, opener), kind="term")
        for _ in range(n if opener == "E(" else 0):
            node = node.arg
        assert node == Var("t")
    col = len(opener) * MAX_NESTING + 1
    for n in (MAX_NESTING + 1, 3000 if opener == "(" else MAX_NESTING + 1):
        with pytest.raises(ExprSyntaxError) as exc:
            parse(_nested(n, opener), kind="term")
        assert str(exc.value) == (f"line 1, col {col}: expected at most "
                                  f"{MAX_NESTING} nested brackets and minuses")


def test_unary_minuses_count_against_the_nesting_bound():
    """A run of MAX_NESTING unary minuses parses, each wrapping the term
    once, a literal negated instead; one more minus, or one inside
    MAX_NESTING brackets, is a syntax error at its column, and so are
    5,000 minuses."""
    n = MAX_NESTING
    node = parse("-" * n + "t", kind="term")
    for _ in range(n):
        assert node.op == "*" and node.left == Lit(-1)
        node = node.right
    assert node == Var("t")
    assert parse("-" * n + "3", kind="term") == Lit((-1) ** n * 3)
    half = n // 2
    for text, col in (("-" * (n + 1) + "t", n + 1), ("-" * 5000 + "t", n + 1),
                      ("E(" * half + "-" * (half + 1) + "t" + ")" * half,
                       3 * half + 1)):
        with pytest.raises(ExprSyntaxError) as exc:
            parse(text, kind="term")
        assert str(exc.value) == (f"line 1, col {col}: expected at most "
                                  f"{MAX_NESTING} nested brackets and minuses")


def test_parse_rejects_an_unknown_kind():
    with pytest.raises(ValueError,
                       match="^kind must be 'term' or 'system', got 'atom'$"):
        parse("x = 1", kind="atom")


def test_element_text_has_no_exponential():
    with pytest.raises(UnsupportedShape,
                       match="^exponential left after flattening$"):
        parse_element("E(t)")


def test_canonical_quotient_parses():
    t, u = FieldElem.from_symbol("t"), FieldElem.from_symbol("u")
    assert parse_element("(t + 1)/(u)") == (t + 1) / u
    assert parse_element("((t))/(u*(t + 1))") == t / (u * (t + 1))
    assert parse_element("1/2 + t") == t + Fraction(1, 2)


def test_reserved_e():
    with pytest.raises(ExprSyntaxError):
        parse("E + 1", kind="term")


def test_print_normalizes_whitespace():
    assert print_term(parse("E( x )", kind="term")) == "E(x)"


def test_newline_separator():
    s = parse("x = 1\ny = 2")
    assert len(s.atoms) == 2
    assert parse("\n\nx = 1\ny = 2\n") == s


def test_eliminate_inequations_examples():
    assert print_system(eliminate_inequations(parse("x != 0"))) == "x*_w1 = 1"
    s = parse("x = 1")
    assert eliminate_inequations(s) == s
    out = eliminate_inequations(parse("x != 0 & y != 0"))
    assert print_system(out) == "x*_w1 = 1 & y*_w2 = 1"
    assert print_system(eliminate_inequations(parse("0 != x"))) == "x*_w1 = 1"


def test_eliminate_inequations_freshness():
    s = parse("_w1 != 2")
    out = eliminate_inequations(s)
    assert "_w2" in system_symbols(out)
    assert all(a.rel == "eq" for a in out.atoms)


def test_flatten_depth_one():
    fs = flatten(parse("E(x)=2"))
    assert fs.xvars == ("x",) and fs.aux_count == 0
    assert len(fs.polys) == 1 and str(fs.polys[0]) == "_v1 - 2"


def test_flatten_nested():
    fs = flatten(parse("E(E(x))=x"))
    assert fs.xvars == ("x", "_u1")
    assert fs.yvars == ("_v1", "_v2")
    assert fs.aux_count == 1
    polys = {str(p) for p in fs.polys}
    assert polys == {"_u1 - _v1", "_v2 - x"}


def test_flatten_shared_subterm():
    fs = flatten(parse("E(x)*E(x)=E(2*x)"))
    # both occurrences of E(x) share one pair
    assert fs.xvars == ("x", "_u1") and fs.aux_count == 1


def test_flatten_requires_equations():
    with pytest.raises(UnsupportedShape):
        flatten(parse("x != 0"))


def test_print_flat_pairing_lines():
    fs = flatten(parse("E(x)=2"))
    assert "_v1 := E(x)" in print_flat(fs)


def test_pow_expansion():
    p = term_to_poly(parse("(x+1)^2", kind="term"))
    from expofield.mpoly import MPoly
    x = MPoly.var("x")
    assert p == x * x + x * 2 + MPoly.const(1)


def test_printing_and_conversion_reject_what_is_not_a_term():
    for bad in ("x", 2, None):
        with pytest.raises(TypeError, match=rf"^not an ETerm: {bad!r}$"):
            print_term(bad)
        with pytest.raises(TypeError, match=rf"^not an ETerm: {bad!r}$"):
            term_to_poly(bad)
    # reached from inside a term too, at its second operand
    bad = BinOp("*", Var("x"), "y")
    with pytest.raises(TypeError, match=r"^not an ETerm: 'y'$"):
        print_term(bad)
    with pytest.raises(TypeError, match=r"^not an ETerm: 'y'$"):
        term_to_poly(bad)
    # an operator outside +, - and * makes no term
    bad = BinOp("/", Var("x"), Var("y"))
    with pytest.raises(TypeError, match=r"^not an ETerm: BinOp\(op='/'"):
        print_term(bad)
    with pytest.raises(TypeError, match=r"^not an ETerm: BinOp\(op='/'"):
        term_to_poly(bad)


# -- round-trip property ---------------------------------------------------------

_names = st.sampled_from(["x", "y", "zz", "t1"])
_negative_literals = st.one_of(
    st.integers(-9, -1).map(lambda v: Lit(value=v)),
    st.integers(-9, -1).map(lambda v: Lit(value=Fraction(2 * v + 1, 2))))


@st.composite
def canonical_terms(draw, depth=3):
    """ASTs in the image of parse (no BinOp("*", -1, literal) patterns)."""
    if depth == 0:
        kind = draw(st.integers(0, 2))
        if kind == 0:
            return Lit(value=draw(st.integers(-9, 9)))
        if kind == 1:
            num = draw(st.integers(-9, 9))
            den = draw(st.integers(2, 9))
            # an integral value stays a Fraction, which prints as k/1
            return Lit(value=Fraction(num, den))
        return Var(name=draw(_names))
    op = draw(st.integers(0, 5))
    if op == 0:
        return BinOp("+", left=draw(canonical_terms(depth=depth - 1)),
                     right=draw(canonical_terms(depth=depth - 1)))
    if op == 1:
        return BinOp("-", left=draw(canonical_terms(depth=depth - 1)),
                     right=draw(canonical_terms(depth=depth - 1)))
    if op == 2:
        right = draw(canonical_terms(depth=depth - 1))
        left = draw(canonical_terms(depth=depth - 1))
        if repr(left) == repr(Lit(value=-1)) and isinstance(right, Lit):
            left = Lit(value=2)  # would print as the unary-minus form
        return BinOp("*", left=left, right=right)
    if op == 3:
        base = draw(st.one_of(canonical_terms(depth=depth - 1),
                              _negative_literals))
        return Pow(base=base, exponent=draw(st.integers(0, 4)))
    if op == 4:
        return Exp(arg=draw(canonical_terms(depth=depth - 1)))
    inner = draw(canonical_terms(depth=depth - 1))
    if isinstance(inner, Lit):
        return inner
    return BinOp("*", left=Lit(value=-1), right=inner)


@settings(max_examples=1000, deadline=None)
@given(canonical_terms())
@example(Lit(value=Fraction(2)))  # prints 2/1, which is not the int 2
def test_parse_print_roundtrip(t):
    assert parse(print_term(t), kind="term") == t
    # repr tells an int literal from an equal Fraction one
    assert repr(parse(print_term(t), kind="term")) == repr(t)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(canonical_terms(depth=2), st.booleans(),
                          canonical_terms(depth=2)),
                min_size=1, max_size=3))
def test_system_roundtrip(atoms):
    s = ESystem(tuple(Atom(l, "eq" if eq else "neq", r)
                      for l, eq, r in atoms))
    assert parse(print_system(s)) == s
    assert repr(parse(print_system(s))) == repr(s)
