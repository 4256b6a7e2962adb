"""Independence and amalgamation: ranks, the relation's axioms, composites,
higher-dimensional systems."""

import random

import pytest

from expofield import (FieldElem, IndepSystem, acf_indep, amalgamate2,
                       coerce, complete_system, e_eval, indep, presentation,
                       tdeg, verify_independent_system)
from expofield import amalg
from expofield.amalg import EmbeddedPresentation, validate_system
from expofield.efield import extend_graph
from expofield.errors import (IllFormedExtension, UnsupportedShape,
                              WellDefFailure)
from gen import rand_extension, rand_pminus_system, rand_presentation

S = FieldElem.from_symbol
ONE = FieldElem.one()


class TestTdeg:
    def test_independent_transcendentals(self):
        assert tdeg(["t1", "t2"], [S("t1"), S("t2")]) == 2

    def test_algebraic_over_base(self):
        assert tdeg(["t1"], [S("t1") ** 2], [S("t1")]) == 0

    def test_symmetric_functions(self):
        elems = [S("t1") + S("t2"), S("t1") * S("t2"), S("t1")]
        assert tdeg(["t1", "t2"], elems) == 2


class TestAcfIndep:
    def test_disjoint_symbols(self):
        assert acf_indep([S("t1")], [S("t2")], [], ["t1", "t2"])

    def test_dependence_detected(self):
        assert not acf_indep([S("t1")], [S("t1") + S("t2"), S("t2")], [],
                             ["t1", "t2"])

    def test_reflexive_over_itself(self):
        assert acf_indep([S("t1")], [S("t1")], [S("t1")], ["t1"])


class TestIndep:
    def test_empty_graph(self):
        f = presentation("Q", transcendentals=("t1", "t2"))
        assert indep(f, [S("t1")], [S("t2")], [])

    def test_hull_coupling(self):
        f = presentation("F", transcendentals=("t1", "t2"),
                         egraph=((S("t1"), S("t2")),))
        assert not indep(f, [S("t1")], [S("t2")], [])

    def test_b_inside_c(self):
        f = presentation("F", transcendentals=("t1", "t2"),
                         egraph=((S("t1"), S("t2")),))
        assert indep(f, [S("t1")], [S("t2")], [S("t2")])


class TestIndependenceAxioms:
    def test_randomized(self):
        rng = random.Random(31)
        for _ in range(40):
            f = rand_presentation(rng, n_trans=4, n_pairs=rng.randint(0, 2))
            pool = [S(t) for t in f.transcendentals]
            def pick():
                k = rng.randint(0, 2)
                return [rng.choice(pool) for _ in range(k)]
            a, b, c = pick(), pick(), pick()
            # symmetry
            assert indep(f, a, b, c) == indep(f, b, a, c)
            # existence over the base
            assert indep(f, a, c, c)
            # monotonicity
            a2, b2 = pick(), pick()
            if indep(f, a + a2, b + b2, c):
                assert indep(f, a, b, c)


class TestAmalgamate2:
    def test_disjoint_fresh_pairs(self):
        base = presentation("F")
        f1 = presentation("F1", transcendentals=("a1", "b1"),
                          egraph=((S("a1"), S("b1")),))
        f2 = presentation("F2", transcendentals=("a2", "b2"),
                          egraph=((S("a2"), S("b2")),))
        am = amalgamate2(base, f1, f2)
        assert len(am.composite.transcendentals) == 4
        assert len(am.composite.egraph) == 2

    def test_shared_base_pair_appears_once(self):
        base = presentation("B", transcendentals=("tau",),
                            egraph=((ONE, S("tau")),))
        f1 = extend_graph(base, [(S("s1"), S("v1"))])
        f2 = extend_graph(base, [(S("s2"), S("v2"))])
        am = amalgamate2(base, f1, f2)
        assert len(am.composite.egraph) == 3
        assert e_eval(am.composite, ONE).value == S("tau")
        # the duplicated argument 1 shows up as a verified kernel vector
        assert any(v for v in am.check.verdicts)

    def test_idempotent_on_trivial_extensions(self):
        base = presentation("B", transcendentals=("tau",),
                            egraph=((ONE, S("tau")),))
        am = amalgamate2(base, base, base)
        assert set(am.composite.transcendentals) == {"tau"}
        assert len(am.composite.egraph) == 1

    def test_commuting_square_and_disjointness(self):
        rng = random.Random(17)
        for _ in range(25):
            base = rand_presentation(rng, name="B")
            f1 = rand_extension(rng, base, "L")
            f2 = rand_extension(rng, base, "R")
            am = amalgamate2(base, f1, f2)
            for t in base.transcendentals:
                assert am.g1.apply(S(t)) == am.g2.apply(S(t))
            g1 = [am.g1.apply(S(t)) for t in f1.transcendentals]
            g2 = [am.g2.apply(S(t)) for t in f2.transcendentals]
            bb = [S(t) for t in base.transcendentals]
            assert acf_indep(g1, g2, bb, am.composite.transcendentals)
            # restriction of the composite re-derives each side's graph
            for src, emb in ((f1, am.g1), (f2, am.g2)):
                for arg, val in src.egraph:
                    ev = e_eval(am.composite, emb.apply(arg))
                    assert ev.is_value and ev.value == emb.apply(val)

    def test_conflicting_values_fail(self):
        base = presentation("B", transcendentals=("tau",),
                            egraph=((ONE, S("tau")),))
        f1 = extend_graph(base, [(S("tau") ** 2, coerce(2))])
        f2 = extend_graph(base, [(S("tau") ** 2, coerce(3))])
        with pytest.raises(WellDefFailure):
            amalgamate2(base, f1, f2)

    def test_renamed_symbol_avoids_a_base_symbol(self):
        """Side L's x would become L__x, which the base already declares."""
        base = presentation("B", transcendentals=("L__x",))
        f1 = presentation("L", transcendentals=("L__x", "x"),
                          egraph=((S("x"), S("L__x")),))
        f2 = presentation("M", transcendentals=("L__x", "x"))
        am = amalgamate2(base, f1, f2)
        assert am.composite.transcendentals == ("L__x", "_L__x", "M__x")
        assert am.composite.egraph == ((S("_L__x"), S("L__x")),)
        assert am.g1.inclusion["x"] == S("_L__x")

    def test_ill_formed_extension(self):
        base = presentation("B", transcendentals=("tau",),
                            egraph=((ONE, S("tau")),))
        stranger = presentation("S", transcendentals=("x",))
        with pytest.raises(IllFormedExtension):
            amalgamate2(base, stranger, base)

    @pytest.mark.parametrize("target", [S("t") + 1, 2 * S("t"), ONE])
    def test_embedding_must_be_a_renaming(self, target):
        emb = EmbeddedPresentation({"s": S("u"), "a": target})
        with pytest.raises(UnsupportedShape,
                           match="only renaming inclusions are supported"):
            emb.apply(S("s"))
        assert EmbeddedPresentation({"s": S("u")}).apply(S("s") + 1) == \
            S("u") + 1


def _uniform_nodes(n, node):
    subsets = [frozenset(s) for s in
               ({i for i in range(n) if m >> i & 1} for m in range(2 ** n - 1))]
    return {s: node for s in subsets}


class TestSystems:
    def test_trivial_system_passes(self):
        node = presentation("F0", transcendentals=("t",))
        s = IndepSystem(n=3, nodes=_uniform_nodes(3, node))
        assert verify_independent_system(s).ok
        validate_system(s)

    @pytest.mark.parametrize("n, covering", [(3, 9), (4, 28)])
    def test_validation_checks_the_covering_inclusions(self, monkeypatch, n,
                                                       covering):
        """Embeddings compose, so only the inclusions a < b with
        |b| = |a| + 1 are checked: 9 of 12 at n = 3, 28 of 50 at n = 4."""
        s = rand_pminus_system(random.Random(1), n)
        labels = {f.name: a for a, f in s.nodes.items()}
        seen = []
        monkeypatch.setattr(amalg, "_check_extension", lambda fa, fb:
                            seen.append((labels[fa.name], labels[fb.name])))
        validate_system(s)
        assert len(seen) == len(set(seen)) == covering
        assert all(a < b and len(b) == len(a) + 1 for a, b in seen)

    def test_validation_finds_a_node_that_drops_a_pair(self):
        nodes = dict(_uniform_nodes(3, presentation(
            "F", transcendentals=("tau",), egraph=((ONE, S("tau")),))))
        nodes[frozenset({0, 1})] = presentation("F01", transcendentals=("tau",))
        with pytest.raises(IllFormedExtension,
                           match="^F01 does not preserve the base graph at 1$"):
            validate_system(IndepSystem(n=3, nodes=nodes))

    def test_fresh_pairs_complete(self):
        rng = random.Random(3)
        s = rand_pminus_system(rng, 3)
        assert verify_independent_system(s).ok
        comp = complete_system(s)
        assert comp.system.is_complete
        assert all(comp.check.verdicts)
        assert verify_independent_system(comp.system).ok
        # the completion does not modify input nodes
        for a, node in s.nodes.items():
            assert comp.system.nodes[a] is node

    def test_shared_pair_telescopes(self):
        node = presentation("F", transcendentals=("tau",),
                            egraph=((ONE, S("tau")),))
        s = IndepSystem(n=3, nodes=_uniform_nodes(3, node))
        comp = complete_system(s)
        assert len(comp.check.kernel_basis) == 2
        assert all(comp.check.verdicts)

    def test_adversarial_value_conflict(self):
        nodes = _uniform_nodes(3, presentation("F", transcendentals=("tau",),
                                               egraph=((ONE, S("tau")),)))
        nodes = dict(nodes)
        nodes[frozenset({0, 1})] = presentation(
            "F01", 1, ("tau", "z"), ((ONE, S("tau")), (S("z"), coerce(2))))
        nodes[frozenset({0, 2})] = presentation(
            "F02", 1, ("tau", "z"), ((ONE, S("tau")), (S("z"), coerce(3))))
        s = IndepSystem(n=3, nodes=nodes)
        with pytest.raises(WellDefFailure) as exc:
            complete_system(s)
        assert any(exc.value.vector)

    def test_adversarial_reused_transcendental(self):
        base = presentation("F", transcendentals=("tau",),
                            egraph=((ONE, S("tau")),))
        reuse = presentation("FX", 1, ("tau", "g0"), ((ONE, S("tau")),))
        nodes = dict(_uniform_nodes(3, reuse))
        nodes[frozenset()] = base
        nodes[frozenset({2})] = base
        s = IndepSystem(n=3, nodes=nodes)
        rep = verify_independent_system(s)
        assert not rep.ok
        assert ("{0}", "{0,1}") in rep.failures
        with pytest.raises(UnsupportedShape):
            complete_system(s)

    def test_completed_p3_includes_displayed_instance(self):
        """F_{01} independent from F_{02}F_{12} over F_0 F_1 in the top node."""
        rng = random.Random(9)
        s = rand_pminus_system(rng, 3)
        comp = complete_system(s)
        top = comp.system.node(range(3))
        gens = lambda a: [top.elem(t) for t in comp.system.node(a).transcendentals]
        a = gens({0, 1})
        b = gens({0, 2}) + gens({1, 2})
        c = gens({0}) + gens({1})
        assert indep(top, a, b, c)

    def test_n4_roundtrip(self):
        rng = random.Random(41)
        s = rand_pminus_system(rng, 4)
        rep = verify_independent_system(s)
        assert rep.ok, rep.failures
        comp = complete_system(s)
        assert all(comp.check.verdicts)
        assert verify_independent_system(comp.system).ok
