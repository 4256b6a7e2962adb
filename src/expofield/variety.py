"""Parametric subvarieties of G_a^n x G_m^n and the additive-freeness pipeline.

A variety is presented by a generic point: n additive coordinates X_i and n
multiplicative coordinates Y_i, rational functions of the ambient base
transcendentals and fresh locus parameters.  Additive freeness asks for no
integer relation sum(m_i X_i) = a with a over the base; since an element is
base-valued exactly when all its locus-parameter derivatives vanish, the
decision is a rational linear-algebra problem, exact and complete here.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .errors import Inconsistent, UnsupportedShape, MissingExponential
from .exprlang import FlatSystem, fresh_name
from .fieldelem import (FieldElem, coerce, eliminate_symbols, int_combination,
                        power_product)
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
        for e in list(self.X) + list(self.Y):
            extra = e.symbols() - declared
            if extra:
                raise UnsupportedShape(f"undeclared symbols {sorted(extra)}")
        for i, y in enumerate(self.Y):
            if y.is_zero():
                raise UnsupportedShape(f"Y[{i}] is zero")
            if self.free_Y[i]:
                others = set()
                for j, x in enumerate(self.X):
                    others |= x.symbols()
                for j, yy in enumerate(self.Y):
                    if j != i:
                        others |= yy.symbols()
                sym = _single_param(y, self.locus_params)
                if sym is None or sym in others:
                    raise UnsupportedShape(
                        f"free Y[{i}] must be a dedicated locus parameter")

    @property
    def n(self) -> int:
        return len(self.X)


def _single_param(e: FieldElem, params) -> str | None:
    syms = e.symbols()
    if len(syms) != 1:
        return None
    sym = next(iter(syms))
    if sym not in params:
        return None
    return sym if e == FieldElem.from_symbol(sym, e.order) else None


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

    Independent of the kernel computation: enumerates vectors and tests the
    locus-parameter derivatives of sum(m_i X_i) on a dense coordinate matrix.
    """
    if bound < 0:
        raise UnsupportedShape(f"oracle bound must be >= 0, got {bound}")
    int_rows = []
    for row in _derivative_rows(list(v.X), v.locus_params, coordinate_matrix):
        den = lcm(*(q.denominator for q in row))
        int_rows.append([int(q * den) for q in row])
    n = v.n
    vec = [-bound] * n

    def is_relation(m) -> bool:
        for row in int_rows:
            if sum(mi * c for mi, c in zip(m, row)):
                return False
        return True

    while True:
        if any(vec) and is_relation(vec):
            return _not_free(v, vec)
        i = n - 1
        while i >= 0 and vec[i] == bound:
            vec[i] = -bound
            i -= 1
        if i < 0:
            return FreenessCertificate("free")
        vec[i] += 1


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
    b_vals = []
    for i in range(v.n):
        if i in selected:
            b_vals.append(FieldElem.zero(order))
            continue
        # A[i] is zero at the pivots right of column i
        combo = int_combination(A[i], x_selected, order)
        b_vals.append(eliminate_symbols(v.X[i] - combo, v.locus_params))
    N = lcm(*(q.denominator for row in A for q in row))

    used = set(v.base_params) | set(v.locus_params)
    xprime = tuple(v.X[i] / N for i in selected)
    carried = N == 1
    yprime = []
    flags = []
    fresh_params = []
    for p, i in enumerate(selected):
        if carried:
            yprime.append(v.Y[i])
            flags.append(v.free_Y[i])
        else:
            q = fresh_name("_q", used)
            used.add(q)
            fresh_params.append(q)
            yprime.append(FieldElem.from_symbol(q, order))
            flags.append(True)
    if k == 0:
        vprime = None
    else:
        locus = [u for u in v.locus_params
                 if any(u in x.symbols() for x in xprime)
                 or any(u in y.symbols() for y in yprime)]
        locus += [q for q in fresh_params if q not in locus]
        vprime = ParametricVariety(
            base_params=v.base_params,
            locus_params=tuple(locus),
            X=xprime,
            Y=tuple(yprime),
            free_Y=tuple(flags),
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

    def affine_split(p: MPoly):
        """p as sum(coeff_u * u) + const, coefficients over the base."""
        cmap: dict = {}
        const = MPoly.zero(order)
        for mono, c in p.terms.items():
            d = dict(decode(mono))
            touched = [s for s in d if s in unknowns]
            deg = sum(d[s] for s in touched)
            if deg == 0:
                const = const + MPoly({mono: c}, order)
            elif deg == 1:
                s = touched[0]
                rest = encode((t, e) for t, e in d.items() if t != s)
                cmap.setdefault(s, MPoly.zero(order))
                cmap[s] = cmap[s] + MPoly({rest: c}, order)
            else:
                raise UnsupportedShape(f"not affine in the unknowns: {p}")
        return ({s: FieldElem(q) for s, q in cmap.items() if not q.is_zero()},
                FieldElem(const))

    affine = []  # (coeff map unknown -> FieldElem, const FieldElem)
    y_polys = []  # (yvar, coeff of y over base, affine rest)
    for p in fs.polys:
        psyms = p.symbols()
        ys = sorted(psyms & yset)
        if ys:
            if len(ys) > 1:
                raise UnsupportedShape(
                    f"equation couples several exponential values: {p}")
            y = ys[0]
            if p.degree_in(y) > 1:
                raise UnsupportedShape(f"nonlinear in exponential value: {p}")
            coeff = MPoly.zero(order)
            rest = MPoly.zero(order)
            for mono, c in p.terms.items():
                pairs = decode(mono)
                if y in dict(pairs):
                    coeff = coeff + MPoly({encode(
                        (s, e) for s, e in pairs if s != y): c}, order)
                else:
                    rest = rest + MPoly({mono: c}, order)
            if coeff.symbols() & set(unknowns):
                raise UnsupportedShape(
                    f"exponential value with unknown coefficient: {p}")
            # a*y + r(unknowns) = 0: the value is pinned after the affine
            # solve (this is how alias equations x_new = y_old come in)
            y_polys.append((y, FieldElem(coeff), affine_split(rest)))
            continue
        affine.append(affine_split(p))

    # Gauss-Jordan over the base function field on [coefficients | constant]
    rows, pivots = _rref([[cm.get(u, FieldElem.zero(order)) for u in unknowns]
                          + [-const] for cm, const in affine])
    if len(unknowns) in pivots:
        raise Inconsistent("affine part of the system has no solution")

    used = set(base) | set(unknowns) | yset
    free_cols = [c for c in range(len(unknowns)) if c not in pivots]
    params = {}
    for c in free_cols:
        p = fresh_name("_p", used)
        used.add(p)
        params[c] = p
    assignment: dict = {}
    for c in free_cols:
        assignment[unknowns[c]] = FieldElem.from_symbol(params[c], order)
    for row, c in reversed(list(zip(rows, pivots))):
        val = row.get(len(unknowns), FieldElem.zero(order))
        for fc in free_cols:
            if fc in row:
                val = val - row[fc] * assignment[unknowns[fc]]
        assignment[unknowns[c]] = val

    y_constraints: dict = {}
    for y, coeff, (cmap, const) in y_polys:
        rest = const
        for u, cu in cmap.items():
            rest = rest + cu * assignment[u]
        val = -rest / coeff
        if val.is_zero():
            raise Inconsistent(
                f"exponential coordinate {y} forced to zero")
        if y in y_constraints and y_constraints[y] != val:
            raise Inconsistent(f"conflicting constraints on {y}")
        y_constraints[y] = val

    locus = [params[c] for c in free_cols]
    X = []
    Y = []
    flags = []
    for i, x in enumerate(paired):
        X.append(assignment[x])
        if fs.yvars[i] in y_constraints:
            Y.append(y_constraints[fs.yvars[i]])
            flags.append(False)
        else:
            q = fresh_name("_q", used)
            used.add(q)
            locus.append(q)
            Y.append(FieldElem.from_symbol(q, order))
            flags.append(True)
    v = ParametricVariety(
        base_params=base,
        locus_params=tuple(locus),
        X=tuple(X),
        Y=tuple(Y),
        free_Y=tuple(flags),
        cyclotomic_order=order,
    )
    return FromFlatResult(variety=v, assignments=assignment,
                          coordinates=tuple(paired))
