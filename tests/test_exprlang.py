"""Surface syntax: parsing, printing, inequation elimination, flattening."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from expofield.exprlang import (Add, Atom, ESystem, Exp, IntLit, Mul, Pow,
                                RatLit, Sub, Var, eliminate_inequations,
                                flatten, parse, parse_element, print_flat,
                                print_system, print_term, system_symbols,
                                term_to_poly)
from expofield.fieldelem import FieldElem
from expofield.errors import ExprSyntaxError, UnsupportedShape


def test_parse_axiom_examples():
    s = parse("E(0) = 1")
    assert len(s.atoms) == 1 and s.atoms[0].rel == "eq"
    assert s.atoms[0].lhs == Exp(arg=IntLit(value=0))
    s = parse("E(x+y) = E(x)*E(y)")
    assert s.atoms[0].rel == "eq"


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
    bad = Mul(Var("x"), "y")
    with pytest.raises(TypeError, match=r"^not an ETerm: 'y'$"):
        print_term(bad)
    with pytest.raises(TypeError, match=r"^not an ETerm: 'y'$"):
        term_to_poly(bad)


# -- round-trip property ---------------------------------------------------------

_names = st.sampled_from(["x", "y", "zz", "t1"])
_negative_literals = st.one_of(
    st.integers(-9, -1).map(lambda v: IntLit(value=v)),
    st.integers(-9, -1).map(lambda v: RatLit(value=Fraction(2 * v + 1, 2))))


@st.composite
def canonical_terms(draw, depth=3):
    """ASTs in the image of parse (no Mul(-1, literal) patterns)."""
    if depth == 0:
        kind = draw(st.integers(0, 2))
        if kind == 0:
            return IntLit(value=draw(st.integers(-9, 9)))
        if kind == 1:
            num = draw(st.integers(-9, 9))
            den = draw(st.integers(2, 9))
            v = Fraction(num, den)
            if v.denominator == 1:  # collapses to an integer literal
                return IntLit(value=int(v))
            return RatLit(value=v)
        return Var(name=draw(_names))
    op = draw(st.integers(0, 5))
    if op == 0:
        return Add(left=draw(canonical_terms(depth=depth - 1)),
                   right=draw(canonical_terms(depth=depth - 1)))
    if op == 1:
        return Sub(left=draw(canonical_terms(depth=depth - 1)),
                   right=draw(canonical_terms(depth=depth - 1)))
    if op == 2:
        right = draw(canonical_terms(depth=depth - 1))
        left = draw(canonical_terms(depth=depth - 1))
        if left == IntLit(value=-1) and isinstance(right, (IntLit, RatLit)):
            left = IntLit(value=2)  # would print as the unary-minus form
        return Mul(left=left, right=right)
    if op == 3:
        base = draw(st.one_of(canonical_terms(depth=depth - 1),
                              _negative_literals))
        return Pow(base=base, exponent=draw(st.integers(0, 4)))
    if op == 4:
        return Exp(arg=draw(canonical_terms(depth=depth - 1)))
    inner = draw(canonical_terms(depth=depth - 1))
    if isinstance(inner, (IntLit, RatLit)):
        return inner
    return Mul(left=IntLit(value=-1), right=inner)


@settings(max_examples=1000, deadline=None)
@given(canonical_terms())
def test_parse_print_roundtrip(t):
    assert parse(print_term(t), kind="term") == t


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(canonical_terms(depth=2), st.booleans(),
                          canonical_terms(depth=2)),
                min_size=1, max_size=3))
def test_system_roundtrip(atoms):
    s = ESystem(tuple(Atom(l, "eq" if eq else "neq", r)
                      for l, eq, r in atoms))
    assert parse(print_system(s)) == s
