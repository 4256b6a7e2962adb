"""Finite witnesses: the array construction, candidate falsification,
kernel-stabilizer witnesses, type-counting families."""

from fractions import Fraction
from itertools import product

import pytest

from expofield import (FieldElem, SOP1Candidate, coerce, e_eval,
                       presentation, tp2_witness, type_family,
                       verify_finite_witness, z_stabilizer_witness)
from expofield.exprlang import parse
from expofield.fieldelem import cyclotomic_root
from expofield.treeprops import PHI_TEXT, PSI_TEXT
from expofield.errors import (CyclotomicOrderMismatch, NotTranscendental,
                              SchemaError, UnsupportedShape, ZeroValue)
from gen import graph_conflicts

S = FieldElem.from_symbol
ONE = FieldElem.one()


class TestTP2:
    def test_worked_branch(self):
        w, rep = tp2_witness(2, 3, (2, 3))
        assert rep.ok and rep.condition_ii == "structural"
        sol = rep.condition_i[0].solution
        x0 = sol.point_x[0]  # the shared coordinate comes first
        f = sol.presentation
        assert e_eval(f, w.b[0] * x0).value == coerce(2)
        assert e_eval(f, w.b[1] * x0).value == coerce(3)
        # the realized point matches the array shape (u, b1 u, b2 u)
        assert sol.point_x[1] == w.b[0] * x0
        assert sol.point_y[1] == coerce(2)

    def test_single_row(self):
        _, rep = tp2_witness(1, 2, (2,))
        assert rep.ok

    def test_condition_iii_skips_diagonal(self):
        _, rep = tp2_witness(2, 3, (1, 1))
        indices = [ix for ix, _ in rep.condition_iii]
        assert (1, 2, 2) not in indices
        assert len(indices) == 2 * 3 * 2
        assert all(v for _, v in rep.condition_iii)

    def test_all_branches_n3_j2(self):
        w, _ = tp2_witness(3, 2, (1, 1, 1))
        rep = verify_finite_witness(w, branches=list(product((1, 2), repeat=3)))
        assert len(rep.condition_i) == 8
        assert all(r.consistent for r in rep.condition_i)


class TestSOP1:
    def _tree(self, depth, value):
        return {"".join(bits): value
                for level in range(depth)
                for bits in product("01", repeat=level)}

    def test_constant_parameters_fail_iii(self):
        base = presentation("A", transcendentals=("t",))
        cand = SOP1Candidate(depth=2, tree=self._tree(2, (S("t"), ONE)),
                             base=base, phi=parse(PHI_TEXT),
                             psi=parse(PSI_TEXT))
        rep = verify_finite_witness(cand, branches="all")
        assert not rep.ok
        assert any(not v for _, v in rep.condition_iii)
        # branches are still individually consistent (same atoms repeat)
        assert all(r.consistent for r in rep.condition_i)

    def test_depth_zero_vacuous(self):
        base = presentation("A")
        cand = SOP1Candidate(depth=0, tree={}, base=base,
                             phi=parse(PHI_TEXT), psi=parse(PSI_TEXT))
        rep = verify_finite_witness(cand, branches="all")
        assert rep.ok and not rep.condition_iii

    def test_incomplete_tree_rejected(self):
        with pytest.raises(UnsupportedShape):
            SOP1Candidate(depth=2, tree={"": (ONE, ONE)},
                          base=presentation("A"),
                          phi=parse(PHI_TEXT), psi=parse(PSI_TEXT))

    def test_custom_psi_unverified(self):
        base = presentation("A", transcendentals=("t",))
        tree = self._tree(1, (S("t"), ONE))
        cand = SOP1Candidate(depth=1, tree=tree, base=base,
                             phi=parse(PHI_TEXT), psi=parse("y1 = y2"))
        rep = verify_finite_witness(cand, branches=[])
        assert rep.condition_ii == "unverified"

    @pytest.mark.parametrize("branch", ["22", "ab", "0", "000", (0, 2)])
    def test_branch_outside_the_tree_rejected(self, branch):
        cand = SOP1Candidate(depth=2, tree=self._tree(2, (S("t"), ONE)),
                             base=presentation("A", transcendentals=("t",)),
                             phi=parse(PHI_TEXT), psi=parse(PSI_TEXT))
        with pytest.raises(SchemaError, match="not a 0/1 string of length 2"):
            verify_finite_witness(cand, branches=[branch])

    def test_rational_multiplier_and_symbol_value(self):
        base = presentation("A", transcendentals=("s",))
        y = coerce(Fraction(3, 2))
        cand = SOP1Candidate(depth=1, tree={"": (y, S("s"))}, base=base,
                             phi=parse(PHI_TEXT), psi=parse(PSI_TEXT))
        (branch,) = verify_finite_witness(cand, branches=["0"]).condition_i
        assert (branch.branch, branch.consistent, branch.detail) == \
            (("0",), True, "realized")
        # the one coordinate is the argument y*x of E, x a fresh generic
        # value, and E of it is s
        sol = branch.solution
        (arg,) = sol.point_x
        assert str(arg) == "3/2*_c1" and sol.point_y == (S("s"),)
        assert e_eval(sol.presentation, arg).value == S("s")

    @pytest.mark.parametrize("pair, what", [
        ((S("t") + 1, ONE), "multipliers"),
        ((S("t"), S("t") * S("t")), "values"),
        ((S("t"), 2 * S("t")), "values"),
    ])
    def test_compound_parameter_rejected(self, pair, what):
        cand = SOP1Candidate(depth=1, tree={"": pair},
                             base=presentation("A", transcendentals=("t",)),
                             phi=parse(PHI_TEXT), psi=parse(PSI_TEXT))
        with pytest.raises(UnsupportedShape,
                           match=f"witness {what} must be symbols or"):
            verify_finite_witness(cand, branches="all")

    def test_branch_may_be_a_sequence_of_bits(self):
        cand = SOP1Candidate(depth=2, tree=self._tree(2, (S("t"), ONE)),
                             base=presentation("A", transcendentals=("t",)),
                             phi=parse(PHI_TEXT), psi=parse(PSI_TEXT))
        rep = verify_finite_witness(cand, branches=[(0, 1), "10"])
        assert [r.branch for r in rep.condition_i] == [("01",), ("10",)]


class TestZStabilizer:
    def test_rational_5_over_3(self):
        f = presentation("Q", cyclotomic_order=3)
        w = z_stabilizer_witness(f, coerce(5, 3) / 3)
        b = w.argument
        z3 = cyclotomic_root(3)
        assert e_eval(w.presentation, 3 * b).value == ONE
        assert e_eval(w.presentation, 5 * b).value == z3 ** 2
        assert w.checks["E(m*b) = 1"] and w.checks["E(n*b) != 1"]

    def test_all_orders_up_to_six(self):
        for m in range(2, 7):
            for n in range(1, m):
                from math import gcd
                if gcd(n, m) != 1:
                    continue
                f = presentation("Q", cyclotomic_order=m)
                w = z_stabilizer_witness(f, coerce(n, m) / m)
                assert w.checks["E(m*b) = 1"] and w.checks["E(n*b) != 1"]

    def test_transcendental_mode(self):
        f = presentation("F", transcendentals=("t",))
        w = z_stabilizer_witness(f, S("t"), d=coerce(2))
        a = w.argument
        assert e_eval(w.presentation, a).value == ONE
        assert e_eval(w.presentation, S("t") * a).value == coerce(2)

    def test_integer_refused(self):
        with pytest.raises(NotTranscendental):
            z_stabilizer_witness(presentation("Q", cyclotomic_order=3),
                                 coerce(2, 3))

    def test_order_mismatch(self):
        with pytest.raises(CyclotomicOrderMismatch):
            z_stabilizer_witness(presentation("Q"), coerce(5) / 3)


class TestTypeFamily:
    def test_distinction_at_one(self):
        fam = type_family(presentation("Q"), [{1: 2}, {1: 3}])
        assert fam.certificates == ((0, 1, 1),)

    def test_distinction_at_two(self):
        fam = type_family(presentation("Q"),
                          [{1: 2, 2: 5}, {1: 2, 2: 7}])
        assert fam.certificates == ((0, 1, 2),)

    def test_pairwise_counts(self):
        fam = type_family(presentation("Q"), [{1: k} for k in (1, 2, 3, 4)])
        assert len(fam.certificates) == 6
        assert all(n == 1 for _, _, n in fam.certificates)

    def test_certificates_reverify_on_graphs(self):
        fam = type_family(presentation("Q"),
                          [{1: 2, 2: 5}, {1: 2, 2: 7}])
        i, j, n = fam.certificates[0]
        conf = graph_conflicts(fam.presentations[i], fam.presentations[j])
        assert conf and any(str(c[0]).endswith(f"^{n}") for c in conf)

    def test_zero_value_rejected(self):
        with pytest.raises(ZeroValue):
            type_family(presentation("Q"), [{1: 0}])


def test_branch_list_monotone():
    """Enlarging the branch list never flips an already-checked branch."""
    w, _ = tp2_witness(2, 2, (1, 1))
    small = verify_finite_witness(w, branches=[(1, 2)])
    large = verify_finite_witness(w, branches=[(1, 2), (2, 1), (2, 2)])
    assert small.condition_i[0].consistent == large.condition_i[0].consistent
    assert small.condition_i[0].branch == large.condition_i[0].branch


def test_witness_array_independence():
    """1, b_1..b_n stay Q-linearly independent, so the branch variety of
    the array is additively free and ``solve`` realizes it."""
    w, rep = tp2_witness(3, 3, (1, 2, 3))
    assert rep.ok
    assert [r.detail for r in rep.condition_i] == ["realized"]
