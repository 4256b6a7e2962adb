"""Parametric subvarieties of G_a^n x G_m^n and the additive-freeness pipeline.

A variety is presented by a generic point: n additive coordinates X_i and n
multiplicative coordinates Y_i, rational functions of the ambient base
transcendentals and fresh locus parameters.  Additive freeness asks for no
integer relation sum(m_i X_i) = a with a over the base; since an element is
base-valued exactly when all its locus-parameter derivatives vanish, the
decision is a rational linear-algebra problem, exact and complete here.

``additive_freeness`` alone decides freeness, by the integer kernel of the
derivatives' span coordinates.  ``freeness_oracle`` is a second route kept
on purpose: a brute-force search of a box on the dense coordinate matrix,
which acceptance criterion 1 compares with it, which criterion 10 runs
through ``free-check --oracle``, and which README documents.  Tests:
``test_variety.TestAdditiveFreeness``, acceptance criterion 1 and
``test_span_oracles.test_freeness_relations_match_the_dense_route``.
``reduce`` alone reduces a variety to additively free form
(``test_variety.TestReduce``,
``test_span_oracles.test_reduce_matches_per_element_solves``, acceptance
criterion 2).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product
from math import lcm
from operator import mul

from .errors import (Inconsistent, UnsupportedShape, MissingExponential,
                     reject_undeclared)
from .exprlang import FlatSystem, fresh_name
from .fieldelem import (FieldElem, coerce, eliminate_symbols, int_combination,
                        lone_symbol, power_product)
from .linalg import _rref, coordinate_matrix, integer_kernel_basis, span_matrix
from .mpoly import MPoly, ZETA, decode, encode


@dataclass(frozen=True)
class ParametricVariety:
    base_params: tuple
    locus_params: tuple
    X: tuple  # FieldElem
    Y: tuple  # FieldElem, each nonzero
    free_Y: tuple  # bool per coordinate
    cyclotomic_order: int = 1

    def __post_init__(self):
        n = len(self.X)
        if n < 1:
            raise UnsupportedShape("variety needs at least one coordinate")
        if len(self.Y) != n or len(self.free_Y) != n:
            raise UnsupportedShape("X, Y, free_Y must have equal length")
        if set(self.base_params) & set(self.locus_params):
            raise UnsupportedShape("locus parameters must be fresh")
        declared = set(self.base_params) | set(self.locus_params)
        syms = [e.symbols() for e in (*self.X, *self.Y)]
        for s in syms:
            reject_undeclared(s - declared)
        # a free Y[i] is a locus parameter that no other coordinate names
        named = Counter(u for s in syms for u in s)
        for i, y in enumerate(self.Y):
            if y.is_zero():
                raise UnsupportedShape(f"Y[{i}] is zero")
            if self.free_Y[i]:
                sym = lone_symbol(y)
                if sym not in self.locus_params or named[sym] != 1:
                    raise UnsupportedShape(
                        f"free Y[{i}] must be a dedicated locus parameter")

    @property
    def n(self) -> int:
        return len(self.X)


@dataclass(frozen=True)
class FreenessCertificate:
    verdict: str  # "free" | "not_free"
    relation: tuple | None = None  # integer vector
    value: FieldElem | None = None  # the base element a

    @property
    def is_free(self) -> bool:
        return self.verdict == "free"


@dataclass(frozen=True)
class ReductionResult:
    variety: ParametricVariety
    vprime: ParametricVariety | None  # None when every X is base-valued
    A: tuple  # n rows of k Fractions
    b: tuple  # n FieldElems over the base
    N: int
    index_map: tuple  # selected coordinate indices
    carried_Y: bool  # True when N == 1 and Y was carried over


# -- the derivative criterion -------------------------------------------------


def _derivative_rows(elems, params, matrix=span_matrix):
    """Stacked Q-rows whose kernel is {m : sum m_i elems_i is base-valued}."""
    rows = []
    for u in params:
        derivs = [e.derivative(u) for e in elems]
        rows.extend(matrix(derivs))
    return rows


def additive_freeness(v: ParametricVariety) -> FreenessCertificate:
    """Decide whether the variety is additively free.

    Not-free certificates carry an integer relation and the base value, and
    re-verify by the identity sum(m_i X_i) - a == 0.
    """
    rows = _derivative_rows(list(v.X), v.locus_params)
    kernel = integer_kernel_basis(rows or [[0] * v.n])
    return _not_free(v, kernel[0]) if kernel else FreenessCertificate("free")


def _not_free(v: ParametricVariety, m) -> FreenessCertificate:
    """The certificate of the integer relation m: the base value a of
    sum(m_i X_i), with sum(m_i X_i) - a == 0 checked."""
    total = int_combination(m, v.X, v.cyclotomic_order)
    a = eliminate_symbols(total, v.locus_params)
    assert (total - a).is_zero(), "certificate must re-verify"
    return FreenessCertificate("not_free", relation=tuple(m), value=a)


def freeness_oracle(v: ParametricVariety, bound: int) -> FreenessCertificate:
    """Brute-force check over all integer vectors with |m_i| <= bound.

    Independent of the kernel computation: walks the box in lexicographic
    order, returning the first nonzero relation, and tests the
    locus-parameter derivatives of sum(m_i X_i) on a dense coordinate matrix.
    """
    if bound < 0:
        raise UnsupportedShape(f"oracle bound must be >= 0, got {bound}")
    int_rows = []
    for row in _derivative_rows(list(v.X), v.locus_params, coordinate_matrix):
        den = lcm(*(q.denominator for q in row))
        int_rows.append([int(q * den) for q in row])
    for m in product(range(-bound, bound + 1), repeat=v.n):
        for row in int_rows:
            if sum(map(mul, m, row)):
                break
        else:
            if any(m):
                return _not_free(v, m)
    return FreenessCertificate("free")


# -- reduction to additively free form ----------------------------------------


def reduce(v: ParametricVariety) -> ReductionResult:
    """Select a maximal base-independent coordinate subset and factor X
    through it: X = A * X_selected + b with N = lcm of A's denominators.

    The derivative rows have X_i - sum_j A_ij X_j base-valued exactly when
    column i is that combination of the columns j, so one echelon form
    answers everything: its pivots are the selected coordinates (each
    independent of the ones before it) and column i of the reduced rows is
    A's row i."""
    order = v.cyclotomic_order
    m, selected = _rref(_derivative_rows(list(v.X), v.locus_params))
    k = len(selected)
    A = [tuple(row.get(i, 0) for row in m) for i in range(v.n)]
    x_selected = [v.X[j] for j in selected]
    # A[i] is zero at the pivots right of column i; at a pivot it is a unit
    # vector, so b_i is 0 there
    b_vals = [eliminate_symbols(x - int_combination(a, x_selected, order),
                                v.locus_params) for x, a in zip(v.X, A)]
    N = lcm(*(q.denominator for row in A for q in row))

    carried = N == 1
    vprime = None
    if k:
        xprime = tuple(v.X[i] / N for i in selected)
        if carried:
            fresh = ()
            yprime = tuple(v.Y[i] for i in selected)
            flags = tuple(v.free_Y[i] for i in selected)
        else:
            used = set(v.base_params) | set(v.locus_params)
            fresh = tuple(fresh_name("_q", used) for _ in selected)
            yprime = tuple(FieldElem.from_symbol(q, order) for q in fresh)
            flags = (True,) * k
        named = set().union(*(e.symbols() for e in xprime + yprime))
        vprime = ParametricVariety(
            base_params=v.base_params,
            locus_params=tuple(u for u in v.locus_params if u in named) + fresh,
            X=xprime,
            Y=yprime,
            free_Y=flags,
            cyclotomic_order=order,
        )
    return ReductionResult(variety=v, vprime=vprime, A=tuple(A),
                           b=tuple(b_vals), N=N, index_map=tuple(selected),
                           carried_Y=carried)


def pullback(rr: ReductionResult, c_values, ec_values, resolve_b=None):
    """Map a point of the reduced variety back onto the original one.

    d = A*(N*c) + b componentwise; Ed_i = prod_j ec_j^(N*A)_{ij} * E(b_i).
    E(b_i) for nonzero b_i comes from ``resolve_b(i, b_i)``; without a
    resolver a nonzero b_i raises MissingExponential.
    """
    k = len(rr.index_map)
    if len(c_values) != k or len(ec_values) != k:
        raise UnsupportedShape("point arity does not match the reduction")
    order = rr.variety.cyclotomic_order
    for e in ec_values:
        if coerce(e, order).is_zero():
            raise UnsupportedShape("multiplicative coordinates must be nonzero")
    d = []
    ed = []
    for i in range(rr.variety.n):
        na = [q * rr.N for q in rr.A[i]]
        assert all(q.denominator == 1 for q in na)
        di = int_combination([1] + na, [rr.b[i]] + list(c_values), order)
        edi = power_product(ec_values, na, order)
        if not rr.b[i].is_zero():
            if resolve_b is None:
                raise MissingExponential(
                    f"E({rr.b[i]}) is required for coordinate {i}")
            edi = edi * coerce(resolve_b(i, rr.b[i]), order)
        d.append(di)
        ed.append(edi)
    return tuple(d), tuple(ed)


# -- building varieties from flat systems --------------------------------------


@dataclass(frozen=True)
class FromFlatResult:
    variety: ParametricVariety
    assignments: dict  # every unknown -> FieldElem over base + locus params
    coordinates: tuple  # unknown names, in variety coordinate order


def from_flat(fs: FlatSystem, base_params,
              cyclotomic_order: int = 1) -> FromFlatResult:
    """Present a flat system's solution set as a parametric variety.

    Supported fragment: polynomials split into (a) equations affine-linear in
    the unknowns with no paired y-variables and (b) equations pinning one
    y-variable to a base element.  The variety's coordinates are the paired
    variables; unknowns never under E are solved in the affine part only
    (their freedom becomes locus parameters), so the exponential map is
    never forced at points the system does not exponentiate.
    """
    order = cyclotomic_order
    base = tuple(base_params)
    coeff_syms = set(base) | {ZETA}
    paired = list(fs.xvars)
    if not paired:
        raise UnsupportedShape("system has no exponential part")
    yset = set(fs.yvars)
    unknowns = list(paired)
    for p in fs.polys:
        for s in sorted(p.symbols()):
            if s not in coeff_syms and s not in yset and s not in unknowns:
                unknowns.append(s)

    def split(p: MPoly, y) -> dict:
        """p's coefficients over the base in one pass: each term filed under
        the y-variable y, under its one unknown, or under None (constant)."""
        parts: dict = {}
        affine = True
        for mono, c in p.terms.items():
            d = dict(decode(mono))
            touched = [s for s in d if s in unknowns]
            if y in d and touched:
                raise UnsupportedShape(
                    f"exponential value with unknown coefficient: {p}")
            key = y if y in d else touched[0] if touched else None
            if len(touched) > 1 or d.get(key, 1) > 1:
                affine = False
            else:
                rest = encode((s, e) for s, e in d.items() if s != key)
                parts.setdefault(key, {})[rest] = c
        if not affine:
            raise UnsupportedShape(f"not affine in the unknowns: {p}")
        return {k: FieldElem(MPoly(t, order, _reduce=False))
                for k, t in parts.items()}

    zero = FieldElem.zero(order)
    affine = []  # coefficient maps: unknown or None (constant) -> FieldElem
    y_polys = []  # (yvar, its equation's map, with y's coefficient under y)
    for p in fs.polys:
        ys = sorted(p.symbols() & yset)
        if not ys:
            affine.append(split(p, None))
        elif len(ys) > 1:
            raise UnsupportedShape(
                f"equation couples several exponential values: {p}")
        elif p.degree_in(ys[0]) > 1:
            raise UnsupportedShape(f"nonlinear in exponential value: {p}")
        else:
            # a*y + r(unknowns) = 0: the value is pinned after the affine
            # solve (this is how alias equations x_new = y_old come in)
            y_polys.append((ys[0], split(p, ys[0])))

    # Gauss-Jordan over the base function field on [coefficients | constant]
    rows, pivots = _rref([[cm.get(u, zero) for u in unknowns]
                          + [-cm.get(None, zero)] for cm in affine])
    if len(unknowns) in pivots:
        raise Inconsistent("affine part of the system has no solution")

    used = set(base) | set(unknowns) | yset
    free_cols = [c for c in range(len(unknowns)) if c not in pivots]
    locus = []  # a parameter per free unknown, then one per free y
    assignment: dict = {}
    for c in free_cols:
        locus.append(fresh_name("_p", used))
        assignment[unknowns[c]] = FieldElem.from_symbol(locus[-1], order)
    for row, c in zip(rows, pivots):
        val = row.get(len(unknowns), zero)
        for fc in free_cols:
            if fc in row:
                val = val - row[fc] * assignment[unknowns[fc]]
        assignment[unknowns[c]] = val

    y_constraints: dict = {}
    for y, cmap in y_polys:
        coeff = cmap.pop(y)
        rest = cmap.pop(None, zero)
        for u, cu in cmap.items():
            rest = rest + cu * assignment[u]
        val = -rest / coeff
        if val.is_zero():
            raise Inconsistent(
                f"exponential coordinate {y} forced to zero")
        if y in y_constraints and y_constraints[y] != val:
            raise Inconsistent(f"conflicting constraints on {y}")
        y_constraints[y] = val

    Y = []
    for y in fs.yvars:
        if y in y_constraints:
            Y.append(y_constraints[y])
        else:
            locus.append(fresh_name("_q", used))
            Y.append(FieldElem.from_symbol(locus[-1], order))
    v = ParametricVariety(
        base_params=base,
        locus_params=tuple(locus),
        X=tuple(assignment[x] for x in paired),
        Y=tuple(Y),
        free_Y=tuple(y not in y_constraints for y in fs.yvars),
        cyclotomic_order=order,
    )
    return FromFlatResult(variety=v, assignments=assignment,
                          coordinates=tuple(paired))
