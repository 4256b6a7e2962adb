"""Varieties: the freeness decision, reduction, pullback, from_flat."""

import random
from fractions import Fraction

import pytest

from expofield import (FieldElem, ParametricVariety, additive_freeness,
                       coerce, freeness_oracle, from_flat, pullback, reduce)
from expofield.exprlang import eliminate_inequations, flatten, parse
from expofield.errors import Inconsistent, MissingExponential, UnsupportedShape
from gen import rand_variety

S = FieldElem.from_symbol
ONE = FieldElem.one()


def _v(base, locus, xs, ys, flags):
    return ParametricVariety(base_params=tuple(base), locus_params=tuple(locus),
                             X=tuple(xs), Y=tuple(ys), free_Y=tuple(flags))


def relation_total(v, relation):
    total = FieldElem.zero()
    for m, x in zip(relation, v.X):
        total = total + coerce(m) * x
    return total


class TestAdditiveFreeness:
    def test_array_variety_is_free(self):
        # three coordinates u, t1*u, t2*u with free/constant exponentials
        u = S("_p1")
        v = _v(("t1", "t2"), ("_p1", "_q1"),
               (u, S("t1") * u, S("t2") * u),
               (S("_q1"), coerce(2), coerce(3)),
               (True, False, False))
        assert additive_freeness(v).is_free
        assert freeness_oracle(v, 3).is_free

    def test_affine_relation_detected(self):
        u = S("_p1")
        v = _v((), ("_p1", "_q1", "_q2"), (u, 2 * u + 3),
               (S("_q1"), S("_q2")), (True, True))
        cert = additive_freeness(v)
        assert cert.verdict == "not_free"
        assert cert.relation == (2, -1)
        assert cert.value == coerce(-3)
        assert relation_total(v, cert.relation) == cert.value
        # the oracle returns the first relation of the box in lexicographic
        # order, the bound included
        assert freeness_oracle(v, 2).relation == (-2, 1)
        w = _v((), ("_p1", "_q1", "_q2"), (u, u + 3),
               (S("_q1"), S("_q2")), (True, True))
        assert freeness_oracle(w, 1).relation == (-1, 1)

    def test_independent_parameters_free(self):
        v = _v((), ("_p1", "_p2", "_q1", "_q2"),
               (S("_p1"), S("_p2")), (S("_q1"), S("_q2")), (True, True))
        assert additive_freeness(v).is_free

    def test_base_constant_coordinate_not_free(self):
        v = _v(("t1",), ("_q1",), (S("t1") + 1,), (S("_q1"),), (True,))
        cert = additive_freeness(v)
        assert cert.verdict == "not_free"
        assert cert.relation == (1,) and cert.value == S("t1") + 1

    def test_oracle_rejects_a_negative_bound(self):
        # a negative bound would count one coordinate up without end
        v = _v((), ("_p1", "_p2", "_q1", "_q2"),
               (S("_p1"), S("_p2")), (S("_q1"), S("_q2")), (True, True))
        with pytest.raises(UnsupportedShape):
            freeness_oracle(v, -1)
        assert freeness_oracle(v, 0).is_free

    def test_oracle_agreement_randomized(self):
        rng = random.Random(7)
        for _ in range(40):
            v, expect_free = rand_variety(rng)
            cert = additive_freeness(v)
            oracle = freeness_oracle(v, 6)
            assert cert.verdict == oracle.verdict
            assert cert.is_free == expect_free
            if not cert.is_free:
                assert relation_total(v, cert.relation) == cert.value


class TestReduce:
    def test_affine_relation(self):
        u = S("_p1")
        v = _v((), ("_p1", "_q1", "_q2"), (u, 2 * u + 3),
               (S("_q1"), S("_q2")), (True, True))
        rr = reduce(v)
        assert rr.index_map == (0,)
        assert rr.A == ((Fraction(1),), (Fraction(2),))
        assert rr.b[0].is_zero() and rr.b[1] == coerce(3)
        assert rr.N == 1
        assert rr.vprime.X == (u,)
        assert additive_freeness(rr.vprime).is_free

    def test_already_free_identity(self):
        v = _v((), ("_p1", "_p2", "_q1", "_q2"),
               (S("_p1"), S("_p2")), (S("_q1"), S("_q2")), (True, True))
        rr = reduce(v)
        assert rr.N == 1 and rr.index_map == (0, 1)
        assert rr.vprime.X == v.X
        assert rr.carried_Y and rr.vprime.Y == v.Y

    def test_fractional_relation_gives_N(self):
        u = S("_p1")
        v = _v((), ("_p1", "_q1", "_q2"), (u, u / 2),
               (S("_q1"), S("_q2")), (True, True))
        rr = reduce(v)
        assert rr.N == 2
        assert rr.A == ((Fraction(1),), (Fraction(1, 2),))
        assert rr.vprime.X == (u / 2,)
        assert rr.vprime.free_Y == (True,)

    def test_offset_is_zero_at_every_selected_coordinate(self):
        u, w = S("_p1"), S("_p2")
        v = _v(("t",), ("_p1", "_p2", "_q1", "_q2", "_q3"),
               (u + S("t"), 2 * u + 3, w + 1), (S("_q1"), S("_q2"), S("_q3")),
               (True, True, True))
        rr = reduce(v)
        assert rr.index_map == (0, 2)
        assert [str(b) for b in rr.b] == ["0", "-2*t + 3", "0"]

    def test_identity_randomized(self):
        rng = random.Random(11)
        for _ in range(30):
            v, _ = rand_variety(rng)
            rr = reduce(v)
            for i in range(v.n):
                combo = rr.b[i]
                for p, j in enumerate(rr.index_map):
                    combo = combo + coerce(rr.A[i][p]) * v.X[j]
                assert combo == v.X[i]
            if rr.vprime is not None:
                assert additive_freeness(rr.vprime).is_free


class TestPullback:
    def test_worked_example(self):
        u = S("_p1")
        v = _v((), ("_p1", "_q1", "_q2"), (u, 2 * u + 3),
               (S("_q1"), S("_q2")), (True, True))
        rr = reduce(v)
        r, g = S("r"), S("g")
        d, ed = pullback(rr, [coerce(5)], [r], resolve_b=lambda i, b: g)
        assert d == (coerce(5), coerce(13))
        assert ed == (r, r * r * g)

    def test_identity_case(self):
        v = _v((), ("_p1", "_p2", "_q1", "_q2"),
               (S("_p1"), S("_p2")), (S("_q1"), S("_q2")), (True, True))
        rr = reduce(v)
        d, ed = pullback(rr, [S("c1"), S("c2")], [S("r1"), S("r2")])
        assert d == (S("c1"), S("c2")) and ed == (S("r1"), S("r2"))

    def test_integral_scaled_matrix(self):
        u = S("_p1")
        v = _v((), ("_p1", "_q1", "_q2"), (u, u / 2),
               (S("_q1"), S("_q2")), (True, True))
        rr = reduce(v)  # N = 2, NA has rows (2) and (1)
        d, ed = pullback(rr, [u / 2], [S("r")])
        assert ed[1] == S("r") and ed[0] == S("r") ** 2

    def test_point_must_fit_the_reduction(self):
        u = S("_p1")
        v = _v((), ("_p1", "_q1", "_q2"), (u, 2 * u + 3),
               (S("_q1"), S("_q2")), (True, True))
        rr = reduce(v)
        with pytest.raises(UnsupportedShape,
                           match="^point arity does not match the reduction$"):
            pullback(rr, [coerce(5), coerce(6)], [S("r")])
        with pytest.raises(UnsupportedShape, match=(
                "^multiplicative coordinates must be nonzero$")):
            pullback(rr, [coerce(5)], [FieldElem.zero()])

    def test_missing_resolver(self):
        u = S("_p1")
        v = _v((), ("_p1", "_q1", "_q2"), (u, u + 3),
               (S("_q1"), S("_q2")), (True, True))
        rr = reduce(v)
        with pytest.raises(MissingExponential):
            pullback(rr, [u], [S("r")])


class TestFromFlat:
    def test_single_gm_constraint(self):
        res = from_flat(flatten(parse("E(x) = d")), base_params=("d",))
        v = res.variety
        assert v.n == 1 and v.Y == (S("d"),) and v.free_Y == (False,)
        assert v.X[0] == S("_p1")

    def test_scaled_line(self):
        res = from_flat(flatten(parse("E(x1) = 1 & E(x2) = d & t*x1 = x2")),
                        base_params=("t", "d"))
        v = res.variety
        assert (S("t") * v.X[0] - v.X[1]).is_zero()
        assert v.Y == (ONE, S("d")) and v.free_Y == (False, False)
        assert additive_freeness(v).is_free

    def test_inconsistent(self):
        fs = flatten(parse("x1 = 1 & x1 = 2 & E(x1) = d"))
        with pytest.raises(Inconsistent):
            from_flat(fs, base_params=("d",))

    def test_zero_exponential_rejected(self):
        fs = flatten(parse("E(x) = 0"))
        with pytest.raises(Inconsistent):
            from_flat(fs, base_params=())

    def test_nonaffine_rejected(self):
        fs = flatten(parse("x*y = 1 & E(x) = 2 & E(y) = 3"))
        with pytest.raises(UnsupportedShape):
            from_flat(fs, base_params=())

    def test_unpaired_unknown_stays_parametric(self):
        res = from_flat(flatten(parse("E(x) = 2 & x = 3*w")), base_params=())
        v = res.variety
        assert v.n == 1 and res.coordinates == ("x",)
        # w is solved in the affine part, never exponentiated
        assert (res.assignments["x"] - 3 * res.assignments["w"]).is_zero()

    def test_exponential_pinned_by_an_affine_expression(self):
        # E(x) = x + w is solved for E(x) after the affine part fixes w
        res = from_flat(flatten(parse("E(x) = x + w & w = 2")), ())
        v = res.variety
        assert v.X == (S("_p1"),) and v.free_Y == (False,)
        assert v.Y[0] == S("_p1") + 2

    def test_unconstrained_exponential_gets_a_fresh_parameter(self):
        # no equation pins E(x), so its value is a new locus parameter
        res = from_flat(flatten(parse("E(x) = E(x)")), ())
        v = res.variety
        assert v.X == (S("_p1"),) and v.Y == (S("_q1"),)
        assert v.free_Y == (True,)

    def test_scaled_argument_coordinates(self):
        # E(2x) pins only the doubled point; no root of v is ever needed
        res = from_flat(flatten(parse("E(2*x) = d")), base_params=("d",))
        v = res.variety
        assert v.n == 1 and v.Y == (S("d"),)
        assert (v.X[0] - 2 * res.assignments["x"]).is_zero()


@pytest.mark.parametrize("text, error, message", [
    ("E(x)*E(y) = 1", UnsupportedShape,
     "equation couples several exponential values: _v1*_v2 - 1"),
    ("E(x)^2 = 2", UnsupportedShape,
     "nonlinear in exponential value: _v1^2 - 2"),
    ("x*E(x) = 1", UnsupportedShape,
     "exponential value with unknown coefficient: _v1*x - 1"),
    ("E(x) = 1 & x^2 = 2", UnsupportedShape,
     "not affine in the unknowns: x^2 - 2"),
    ("E(x) = 1 & x*w = 2", UnsupportedShape,
     "not affine in the unknowns: w*x - 2"),
    # an equation with a y-variable is named whole, as every other one is
    ("E(x) = x^2", UnsupportedShape, "not affine in the unknowns: -x^2 + _v1"),
    ("E(x) = 0", Inconsistent, "exponential coordinate _v1 forced to zero"),
    ("E(x) = 1 & E(x) = 2", Inconsistent, "conflicting constraints on _v1"),
    ("E(x) = 1 & x = 1 & x = 2", Inconsistent,
     "affine part of the system has no solution"),
    ("1 = 1", UnsupportedShape, "system has no exponential part"),
])
def test_from_flat_rejections(text, error, message):
    fs = flatten(eliminate_inequations(parse(text)))
    with pytest.raises(error) as exc:
        from_flat(fs, base_params=())
    assert str(exc.value) == message


def test_validation_rejects_bad_free_flags():
    u = S("_p1")
    with pytest.raises(UnsupportedShape):
        # flagged Y must be a dedicated parameter, not a compound
        _v((), ("_p1", "_q1"), (u,), (S("_q1") + 1,), (True,))
    with pytest.raises(UnsupportedShape):
        # zero multiplicative coordinate
        _v((), ("_p1",), (u,), (FieldElem.zero(),), (False,))


P1, P2, Q1, Q2 = S("_p1"), S("_p2"), S("_q1"), S("_q2")


@pytest.mark.parametrize("base, xs, ys, flags, bad", [
    # the free Y's symbol also appears in an X
    ((), (P1 + Q1,), (Q1,), (True,), 0),
    # ... or in another Y, flagged or not
    ((), (P1, P2), (Q1 + 1, Q1), (False, True), 1),
    ((), (P1, P2), (Q1, Q1), (True, True), 0),
    # a base parameter is not a locus parameter
    (("t",), (P1,), (S("t"),), (True,), 0),
    # a multiple of a parameter is not the parameter
    ((), (P1,), (2 * Q1,), (True,), 0),
    # of two bad coordinates, the first is named
    ((), (P1, P2), (2 * Q1, 3 * Q2), (True, True), 0),
])
def test_free_y_must_be_a_dedicated_locus_parameter(base, xs, ys, flags, bad):
    locus = ("_p1", "_p2", "_q1", "_q2")
    with pytest.raises(UnsupportedShape) as exc:
        _v(base, locus, xs, ys, flags)
    assert str(exc.value) == f"free Y[{bad}] must be a dedicated locus parameter"


def test_free_y_named_by_no_other_coordinate_is_accepted():
    v = _v((), ("_p1", "_q1", "_q2"), (P1, 2 * P1), (Q1, Q2), (True, True))
    assert v.free_Y == (True, True)
