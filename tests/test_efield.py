"""Presented exponential fields: evaluation, extension, point realization,
hulls, generator families."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from expofield import (FieldElem, ParametricVariety,
                       check_presentation, coerce, e_eval, eval_system,
                       eval_term, extend_graph, hull, merge_graphs,
                       minimal_ea_family, presentation, solve)
from expofield import linalg
from expofield.efield import (WellDefCheck, adjoin_transcendentals,
                              build_unchecked)
from expofield.errors import (ExponentialConflict, LinearDependence,
                              MissingExponential, UnsupportedShape,
                              WellDefFailure, ZeroValue)
from expofield.exprlang import Add, parse
from gen import graph_conflicts, rand_presentation, rand_variety, zspan_pair

S = FieldElem.from_symbol
ONE = FieldElem.one()


class TestEEval:
    def test_zero_maps_to_one(self):
        f = presentation("Q")
        assert e_eval(f, FieldElem.zero()).value == ONE

    def test_integer_span(self):
        f = presentation("F", transcendentals=("a", "b"),
                         egraph=((S("a"), S("b")),))
        assert e_eval(f, 3 * S("a")).value == S("b") ** 3
        assert e_eval(f, -2 * S("a")).value == 1 / S("b") ** 2

    def test_fractional_coordinate(self):
        f = presentation("F", transcendentals=("a", "b"),
                         egraph=((S("a"), S("b")),))
        ev = e_eval(f, S("a") / 2)
        assert not ev.is_value and ev.root_specs == ((S("b"), 2),)

    def test_outside_span(self):
        f = presentation("F", transcendentals=("a", "b"),
                         egraph=((S("a"), S("b")),))
        assert e_eval(f, S("b")).outside_span


class TestExtendGraph:
    def test_fresh_pair(self):
        f = extend_graph(presentation("Q"), [(S("t1"), S("t2"))])
        assert f.egraph == ((S("t1"), S("t2")),)

    def test_dependence_certificate(self):
        f = presentation("F", transcendentals=("a", "b"),
                         egraph=((S("a"), S("b")),))
        with pytest.raises(LinearDependence) as exc:
            extend_graph(f, [(2 * S("a"), S("c"))])
        assert exc.value.certificate in ([-2, 1], [2, -1])

    def test_dependence_payload_is_the_certificate(self):
        with pytest.raises(LinearDependence) as exc:
            presentation("F", transcendentals=("a", "b", "c"),
                         egraph=((S("a"), S("b")), (S("b"), S("c")),
                                 (2 * S("a") - S("b"), S("c"))))
        assert exc.value.payload() == {"error": "LinearDependence",
                                       "certificate": [2, -1, -1]}

    def test_zero_argument_payload_is_its_unit_vector(self):
        with pytest.raises(LinearDependence) as exc:
            presentation("G", 1, ("t",), [(S("t"), S("u")),
                                          (FieldElem.zero(), S("v"))])
        assert exc.value.payload() == {"error": "LinearDependence",
                                       "certificate": [0, 1]}

    def test_undeclared_symbol_rejected(self):
        """The graph names only declared symbols, which Jacobian ranks
        differentiate by; extending the graph declares what it adds."""
        with pytest.raises(UnsupportedShape,
                           match=r"^undeclared symbols \['u'\]$"):
            presentation("F", 1, ("s", "t"), [(S("t"), S("u")),
                                              (S("s"), S("u"))])
        f = extend_graph(presentation("F", 1, ("t",)), [(S("t"), S("u"))])
        assert f.transcendentals == ("t", "u")

    def test_kernel_element(self):
        f = extend_graph(presentation("Q"), [(S("a"), ONE)])
        for z in (-3, 1, 5):
            assert e_eval(f, z * S("a")).value == ONE

    def test_zero_value_rejected(self):
        with pytest.raises(ZeroValue):
            extend_graph(presentation("Q"), [(S("a"), FieldElem.zero())])


class TestAdjoinTranscendentals:
    def test_graph_is_not_validated_again(self, monkeypatch):
        """Validation builds the argument basis, which clears every nonzero
        argument of denominators; adjoining symbols clears none."""
        f = presentation("F", transcendentals=("a", "b"),
                         egraph=((S("a"), S("b")), (S("b"), 2 * ONE)))
        calls = []

        def counted(e, dens):
            calls.append(e)
            return original(e, dens)

        original = linalg._clear
        monkeypatch.setattr(linalg, "_clear", counted)
        presentation("F", transcendentals=("a", "b"), egraph=f.egraph)
        assert calls == list(f.args)
        calls.clear()
        g = adjoin_transcendentals(f, ["c", "d"])
        assert calls == []
        assert (g.name, g.cyclotomic_order, g.transcendentals, g.egraph) == (
            "F", 1, ("a", "b", "c", "d"), f.egraph)

    def test_present_symbol_rejected(self):
        f = presentation("F", transcendentals=("a",))
        with pytest.raises(LinearDependence):
            adjoin_transcendentals(f, ["b", "a"])


class TestSolve:
    def test_surjectivity_shape(self):
        v = ParametricVariety(base_params=(), locus_params=("_p1",),
                              X=(S("_p1"),), Y=(coerce(5),), free_Y=(False,))
        res = solve(presentation("Q"), v)
        assert res.point_y == (coerce(5),)
        assert e_eval(res.presentation, res.point_x[0]).value == coerce(5)
        assert len(res.presentation.egraph) == 1

    def test_kernel_and_scaled_point(self):
        base = presentation("F", transcendentals=("t", "d"))
        u = S("_p1")
        w = ParametricVariety(base_params=("t", "d"), locus_params=("_p1",),
                              X=(u, S("t") * u), Y=(ONE, S("d")),
                              free_Y=(False, False))
        res = solve(base, w)
        a, ta = res.point_x
        assert e_eval(res.presentation, a).value == ONE
        assert e_eval(res.presentation, ta).value == S("d")
        assert (S("t") * a - ta).is_zero()

    def test_auto_extension_for_offsets(self):
        u = S("_p1")
        v = ParametricVariety(base_params=(), locus_params=("_p1", "_q1", "_q2"),
                              X=(u, 2 * u + 3), Y=(S("_q1"), S("_q2")),
                              free_Y=(True, True))
        res = solve(presentation("Q"), v)
        roles = dict(res.adjoined)
        gnames = [n for n in roles if n.startswith("_g")]
        rnames = [n for n in roles if n.startswith("_r")]
        assert gnames and rnames
        assert res.point_y[1] == S(rnames[0]) ** 2 * S(gnames[0])
        with pytest.raises(MissingExponential):
            solve(presentation("Q"), v, auto_extend=False)

    def test_conservative_over_base(self):
        base = presentation("F", transcendentals=("a", "b"),
                            egraph=((S("a"), S("b")),))
        v = ParametricVariety(base_params=("a", "b"), locus_params=("_p1",),
                              X=(S("_p1"),), Y=(coerce(7),), free_Y=(False,))
        res = solve(base, v)
        assert res.presentation.egraph[0] == (S("a"), S("b"))
        assert e_eval(res.presentation, S("a")).value == S("b")

    def test_exponential_conflict(self):
        u = S("_p1")
        v = ParametricVariety(base_params=(), locus_params=("_p1",),
                              X=(u, 2 * u), Y=(coerce(2), coerce(5)),
                              free_Y=(False, False))
        with pytest.raises(ExponentialConflict):
            solve(presentation("Q"), v)

    def test_consistent_dependent_constraint(self):
        u = S("_p1")
        v = ParametricVariety(base_params=(), locus_params=("_p1",),
                              X=(u, 2 * u), Y=(coerce(2), coerce(4)),
                              free_Y=(False, False))
        res = solve(presentation("Q"), v)
        assert res.point_y == (coerce(2), coerce(4))

    def test_root_obstruction(self):
        u = S("_p1")
        v = ParametricVariety(base_params=(), locus_params=("_p1", "_q1"),
                              X=(u, u / 2), Y=(coerce(5), S("_q1")),
                              free_Y=(False, True))
        with pytest.raises(MissingExponential):
            solve(presentation("Q"), v)

    @pytest.mark.parametrize("pin", [S("t"), coerce(-4)])
    def test_pinned_coordinate_without_a_rational_root(self, pin):
        """X = (p, p/2) makes N = 2, so E(p/2) needs a square root of the
        value pinned at coordinate 0, and only a rational one is taken: t is
        not rational, and -4 has no rational square root."""
        u = S("_p1")
        v = ParametricVariety(base_params=("t",), locus_params=("_p1", "_q1"),
                              X=(u, u / 2), Y=(pin, S("_q1")),
                              free_Y=(False, True))
        with pytest.raises(MissingExponential) as exc:
            solve(presentation("F", transcendentals=("t",)), v)
        assert str(exc.value) == f"coordinate 0 needs an 2-th root of {pin}"
        assert exc.value.root_specs == [(pin, 2)]

    def test_negative_odd_root_materializes(self):
        u = S("_p1")
        v = ParametricVariety(base_params=(), locus_params=("_p1", "_q1"),
                              X=(u, u / 3), Y=(coerce(-8), S("_q1")),
                              free_Y=(False, True))
        res = solve(presentation("Q"), v)
        assert res.point_y == (coerce(-8), coerce(-2))
        assert e_eval(res.presentation, res.point_x[1]).value == coerce(-2)

    def test_variety_of_another_cyclotomic_order(self):
        v = ParametricVariety(base_params=(), locus_params=("_p1",),
                              X=(S("_p1", 3),), Y=(coerce(5, 3),),
                              free_Y=(False,), cyclotomic_order=3)
        with pytest.raises(ExponentialConflict, match=(
                "^variety uses cyclotomic order 3, presentation has 5$")):
            solve(presentation("Q", 5), v)

    def test_offset_needing_a_root_of_a_graph_value(self):
        """X_2 = 2 X_1 - t/2 and E(t) = s, so E(-t/2) needs a square root
        of s, which the offset resolution refuses with that root."""
        t, u = S("t"), S("_p1")
        base = presentation("F", transcendentals=("t", "s"),
                            egraph=((t, S("s")),))
        v = ParametricVariety(base_params=("t", "s"),
                              locus_params=("_p1", "_q1", "_q2"),
                              X=(u + t / 2, 2 * u + t / 2),
                              Y=(S("_q1"), S("_q2")), free_Y=(True, True))
        with pytest.raises(MissingExponential) as exc:
            solve(base, v)
        assert exc.value.root_specs == [(S("s"), 2)]
        assert exc.value.payload()["root_specs"] == [["s", 2]]

    def test_rational_root_materializes(self):
        u = S("_p1")
        v = ParametricVariety(base_params=(), locus_params=("_p1", "_q1"),
                              X=(u, u / 2), Y=(coerce(9), S("_q1")),
                              free_Y=(False, True))
        res = solve(presentation("Q"), v)
        assert res.point_y[0] == coerce(9)
        assert e_eval(res.presentation, res.point_x[1]).value == coerce(3)

    def test_point_satisfies_relations_randomized(self):
        rng = random.Random(23)
        done = 0
        for _ in range(40):
            v, _ = rand_variety(rng, max_n=3, max_params=2)
            try:
                res = solve(presentation("Q"), v)
            except (MissingExponential, ExponentialConflict):
                continue
            done += 1
            for i in range(v.n):
                want_x = v.X[i].subs(res.param_values)
                assert want_x == res.point_x[i]
                ev = e_eval(res.presentation, res.point_x[i])
                assert ev.is_value and ev.value == res.point_y[i]
        assert done >= 25


class TestHull:
    def test_plain_generator(self):
        h = hull(presentation("Q"), [S("t1")])
        assert h.generators == (S("t1"),) and h.closed_under_graph

    def test_single_application(self):
        f = presentation("F", transcendentals=("t1", "t2"),
                         egraph=((S("t1"), S("t2")),))
        assert hull(f, [S("t1")]).generators == (S("t1"), S("t2"))

    def test_two_step_closure_fixpoint(self):
        f = presentation("F", transcendentals=("t1", "t2", "t3"),
                         egraph=((S("t1"), S("t2")), (S("t2"), S("t3"))))
        got = set(map(str, hull(f, [S("t1")]).generators))
        # fixpoint oracle: apply single graph steps until stable
        want = [S("t1")]
        changed = True
        while changed:
            changed = False
            for arg, val in f.egraph:
                if any(arg == w for w in want) and not any(val == w for w in want):
                    want.append(val)
                    changed = True
        assert got == set(map(str, want))

    def test_combination_detection(self):
        # arguments t1+t2 and t2: their difference lands in the generator span
        f = presentation("F", transcendentals=("t1", "t2", "u", "v"),
                         egraph=(((S("t1") + S("t2")), S("u")), (S("t2"), S("v"))))
        h = hull(f, [S("t1")])
        ratio = S("u") / S("v")
        assert any(g == ratio or g == 1 / ratio for g in h.generators)


class TestMinimalFamilies:
    def test_prefix_2_3(self):
        fam = minimal_ea_family([2, 3])
        tau = S("tau")
        assert e_eval(fam, ONE).value == tau
        assert e_eval(fam, tau ** 2).value == coerce(2)
        assert e_eval(fam, tau ** 3).value == coerce(3)

    def test_empty_prefix(self):
        assert minimal_ea_family([]).egraph == ((ONE, S("tau")),)

    def test_disagreement_flag(self):
        conf = graph_conflicts(minimal_ea_family([2, 3]),
                               minimal_ea_family([2, 5]))
        assert len(conf) == 1 and conf[0][0] == S("tau") ** 3

    def test_zero_rejected(self):
        with pytest.raises(ZeroValue):
            minimal_ea_family([2, 0])


class TestCheckPresentation:
    def test_clean(self):
        assert check_presentation(minimal_ea_family([2, 3]))["ok"]

    def test_zero_value_flagged(self):
        bad = build_unchecked("bad", transcendentals=("a",),
                              egraph=((S("a"), FieldElem.zero()),))
        rep = check_presentation(bad)
        assert not rep["ok"]
        assert rep["violations"][0]["kind"] == "zero_value"

    def test_dependent_arguments_flagged(self):
        bad = build_unchecked("bad", transcendentals=("a", "b"),
                              egraph=((S("a"), S("b")), (2 * S("a"), S("b"))))
        rep = check_presentation(bad)
        kinds = {v["kind"] for v in rep["violations"]}
        assert "dependent_arguments" in kinds

    def test_undeclared_symbols_flagged_last(self):
        bad = build_unchecked("bad", transcendentals=("t",),
                              egraph=((S("t"), S("u")),
                                      (2 * S("t"), ONE / S("a"))))
        assert check_presentation(bad)["violations"] == [
            {"kind": "dependent_arguments", "certificate": [2, -1]},
            {"kind": "undeclared_symbols", "symbols": ["a", "u"]}]

    def test_certificate_indexes_the_whole_graph(self):
        t = S("t")
        args = (FieldElem.zero(), t, 2 * t)
        bad = build_unchecked("bad", transcendentals=("t",),
                              egraph=tuple(zip(args, map(coerce, (2, 3, 5)))))
        rep = check_presentation(bad)
        assert rep["violations"][0] == {"kind": "zero_argument", "index": 0}
        cert = next(v["certificate"] for v in rep["violations"]
                    if v["kind"] == "dependent_arguments")
        assert cert == [0, 2, -1]
        assert len(cert) == len(bad.egraph)
        total = FieldElem.zero()
        for z, a in zip(cert, args):
            total = total + coerce(z) * a
        assert total.is_zero()


class TestMergeGraphs:
    def test_duplicate_collapses(self):
        pairs, check = merge_graphs([(S("a"), S("x")), (S("a"), S("x"))], 1)
        assert len(pairs) == 1 and all(check.verdicts)

    def test_conflict_raises(self):
        with pytest.raises(WellDefFailure) as exc:
            merge_graphs([(S("a"), S("x")), (S("a"), S("y"))], 1)
        assert exc.value.vector in ([1, -1], [-1, 1])

    def test_zero_argument_needs_value_one(self):
        """E(0) = 1, also when every argument is zero."""
        with pytest.raises(WellDefFailure) as exc:
            merge_graphs([(FieldElem.zero(), coerce(2))], 1)
        assert exc.value.vector == [1]
        pairs, check = merge_graphs([(FieldElem.zero(), ONE)], 1)
        assert check.kernel_basis == ((1,),) and pairs == ()

    def test_no_pairs(self):
        assert merge_graphs([], 1) == ((), WellDefCheck((), ()))

    def test_lattice_completion(self):
        x = S("x")
        pairs, _ = merge_graphs([(2 * S("a"), x ** 2),
                                 (3 * S("a"), x ** 3)], 1)
        f = presentation("L", transcendentals=("a", "x"), egraph=pairs)
        assert e_eval(f, S("a")).value == x


def test_flatten_preserves_solutions_on_random_points():
    """The homomorphism-law system holds identically after flattening."""
    rng = random.Random(5)
    system = parse("E(x)*E(x) = E(2*x)")
    for _ in range(20):
        f = rand_presentation(rng, n_pairs=rng.randint(1, 2))
        a, _ = zspan_pair(rng, f)
        assert eval_system(f, system, {"x": a})


def test_eval_system_needs_each_exponential_in_the_graph():
    f = presentation("F", 1, ("t", "u"), [(S("t"), S("u"))])
    with pytest.raises(MissingExponential,
                       match=r"^E\(w\) is not determined by the graph$"):
        eval_system(f, parse("E(w) = 1"), {})


def test_eval_term_rejects_what_is_not_a_term():
    f = presentation("F", 1, ("t",))
    with pytest.raises(TypeError, match=r"^not an ETerm: 't'$"):
        eval_term(f, "t", {})
    # inside a term, as the left operand of a sum
    with pytest.raises(TypeError, match=r"^not an ETerm: 2$"):
        eval_term(f, Add(2, parse("t", kind="term")), {})


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_homomorphism_law(seed):
    rng = random.Random(seed)
    f = rand_presentation(rng, n_pairs=rng.randint(1, 3))
    if not f.egraph:
        return
    a, b = zspan_pair(rng, f)
    ea = e_eval(f, a).value
    eb = e_eval(f, b).value
    eab = e_eval(f, a + b).value
    assert eab == ea * eb
