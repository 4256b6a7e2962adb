"""Finitely presented exponential fields with partial exponential graphs.

A presentation is a purely transcendental field Q(zeta_m)(t_1..t_k) together
with a finite graph {(arg_i, val_i)} on a Q-linearly independent argument
set, so E is defined exactly on the Z-span of the arguments; the graph
names no symbol beyond t_1..t_k, by which Jacobian ranks differentiate.
Realizing exponential points on additively free varieties only ever adjoins
fresh transcendentals (injectivity of divisible groups lets every choice be
free), so the regime is closed under all constructions here.

A presentation's linear structure is computed once: its ``arg_basis`` is a
semi-echelon basis of the arguments (``linalg.SpanBasis``), built when the
graph is validated and kept with the presentation, which is immutable.
``e_eval`` has one path: it asks that basis for the coordinates of its
target and takes the value product with ``power_product``, which at order
1 multiplies alone past the second non-constant factor when the
presentation's values form a coprime base (``coprime_vals``, computed once,
when a product first needs it).  Every hull comes from a
``HullBasis``: one basis of 1 and of the elements offered to it, against
which the arguments are reduced once and then kept reduced, so the hulls
made inside one ``indep`` call or one node of an independent system share
that work; ``hull`` is one such hull on a basis of its own.  A hull keys
each generator by its ``key()``, which callers may share across
presentations.  Each round's lattice is the integer kernel of the
arguments' sparse residues and coordinates modulo the generators.
``SpanBasis`` decides how elements are cleared of denominators.  No result
is cached between calls, nor on the presentation beyond ``arg_basis`` and
``coprime_vals``.  Every lattice basis here is a Hermite normal form
(``linalg.hermite_form``), also the unit vectors that
``column_kernel_basis`` returns without it.

One function decides each relation here, each checked against an oracle
in ``test_span_oracles`` that rebuilds the answer one element at a time:

- well-definedness of a graph family: ``merge_graphs`` (``TestMergeGraphs``,
  ``test_merge_graphs_matches_per_element_solves``).  It writes out
  ``integer_kernel_basis``'s two ``hermite_form`` steps, because it also
  rebuilds the pairs on the transform's first rows;
- a graph's validity: ``_graph_violations`` (``TestCheckPresentation``,
  ``test_dependence_certificates_match_the_dense_route``);
- E of an element: ``e_eval`` (``TestEEval``,
  ``test_e_eval_matches_span_solve``, acceptance criterion 3);
- the hull: ``HullBasis.hull``, which ``hull`` calls (``TestHull``,
  ``test_hull_matches_per_element_solves``,
  ``test_hull_matches_rebuild_oracle``,
  ``test_shared_hull_basis_is_history_independent``);
- an exponential point: ``solve`` (``TestSolve``, acceptance criterion 2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from .errors import (CyclotomicOrderMismatch, ExponentialConflict,
                     LinearDependence, MissingExponential, WellDefFailure,
                     ZeroValue, reject_undeclared)
from . import exprlang
from .exprlang import ETerm, Lit, Var, fresh_name
from .fieldelem import (FieldElem, coerce, coprime_base, int_combination,
                        power_product)
from .linalg import (SpanBasis, _integer_columns, column_kernel_basis,
                     extend_basis, hermite_form, integer_kernel_basis,
                     reduce_mod, span_matrix)
from .variety import ParametricVariety, pullback, reduce as variety_reduce


@dataclass(frozen=True)
class EFieldPresentation:
    name: str
    cyclotomic_order: int = 1
    transcendentals: tuple = ()
    egraph: tuple = ()  # ((arg, val) FieldElem pairs)

    def __post_init__(self):
        _validate_graph(self)

    @property
    def args(self) -> tuple:
        return tuple(a for a, _ in self.egraph)

    @property
    def vals(self) -> tuple:
        return tuple(v for _, v in self.egraph)

    def elem(self, name: str) -> FieldElem:
        return FieldElem.from_symbol(name, self.cyclotomic_order)

    @cached_property
    def arg_basis(self) -> SpanBasis:
        """Semi-echelon basis of the arguments, each row with its coordinates
        in them, built when the graph is validated (``build_unchecked``: on
        first use).  Every constructor returns a new, immutable presentation,
        so it is never stale, and ``coordinates`` never grows it."""
        return SpanBasis(self.args)

    @cached_property
    def coprime_vals(self) -> bool:
        """Whether the values form a coprime base (``coprime_base``), so
        that ``e_eval`` takes their power products by multiplication alone;
        computed when a product first has two non-constant factors, and kept
        like ``arg_basis``."""
        return coprime_base(self.vals)


def _graph_violations(f):
    """Yield the graph's invariant violations, lazily and in a fixed order:
    by index, zero values, zero arguments, and arguments and values of a
    cyclotomic order neither 1 nor the presentation's; then, when there was
    no such order, one integer relation among the nonzero arguments, as a
    certificate over all graph indices; then the symbols the graph names
    but the transcendentals do not."""
    ok, foreign = (1, f.cyclotomic_order), False
    for i, (a, v) in enumerate(f.egraph):
        if v.is_zero():
            yield {"kind": "zero_value", "index": i}
        if a.is_zero():
            yield {"kind": "zero_argument", "index": i}
        if a.order in ok and v.order in ok:
            continue
        foreign = True
        for part, e in (("argument", a), ("value", v)):
            if e.order not in ok:
                yield {"kind": "foreign_order", "index": i, "part": part,
                       "order": e.order}
    idx = [i for i, (a, _) in enumerate(f.egraph) if not a.is_zero()]
    # a nonzero argument that added no row to the basis is dependent
    if not foreign and len(f.arg_basis.rows) < len(idx):
        rel = integer_kernel_basis(span_matrix([f.egraph[i][0] for i in idx]))
        cert = [0] * len(f.egraph)
        for i, z in zip(idx, rel[0]):
            cert[i] = z
        yield {"kind": "dependent_arguments", "certificate": cert}
    extra = undeclared(f, [e for pair in f.egraph for e in pair])
    if extra:
        yield {"kind": "undeclared_symbols", "symbols": extra}


def undeclared(f: EFieldPresentation, elems) -> list:
    """The symbols that ``elems`` name and ``f`` does not declare, sorted."""
    return sorted(set().union(*(e.symbols() for e in elems))
                  - set(f.transcendentals))


def _validate_graph(f: EFieldPresentation) -> None:
    bad = next(_graph_violations(f), None)
    if bad is None:
        return
    if bad["kind"] == "zero_value":
        raise ZeroValue(f"graph value {bad['index']} is zero")
    if bad["kind"] == "zero_argument":
        unit = [int(j == bad["index"]) for j in range(len(f.egraph))]
        raise LinearDependence(
            unit, "E(0)=1 is implicit; 0 cannot be a graph argument")
    if bad["kind"] == "undeclared_symbols":
        reject_undeclared(bad["symbols"])
    if bad["kind"] == "foreign_order":
        raise CyclotomicOrderMismatch(
            f"graph {bad['part']} {bad['index']} has cyclotomic order "
            f"{bad['order']} in a presentation of order {f.cyclotomic_order}")
    raise LinearDependence(bad["certificate"])


def presentation(name: str, cyclotomic_order: int = 1, transcendentals=(),
                 egraph=()) -> EFieldPresentation:
    return EFieldPresentation(name=name, cyclotomic_order=cyclotomic_order,
                              transcendentals=tuple(transcendentals),
                              egraph=tuple(egraph))


def _int_nth_root(x: int, n: int):
    """Exact n-th root of a nonnegative integer, or None."""
    if x in (0, 1):
        return x
    lo, hi = 1, 1 << ((x.bit_length() + n - 1) // n + 1)
    while lo <= hi:
        mid = (lo + hi) // 2
        p = mid ** n
        if p == x:
            return mid
        if p < x:
            lo = mid + 1
        else:
            hi = mid - 1
    return None


def _rational_nth_root(w: FieldElem, n: int):
    """w^(1/n) inside the field, when w is a rational perfect n-th power."""
    if not w.is_rational():
        return None
    q = w.as_fraction()
    sign = 1
    if q < 0:
        if n % 2 == 0:
            return None
        sign = -1
        q = -q
    num = _int_nth_root(q.numerator, n)
    den = _int_nth_root(q.denominator, n)
    if num is None or den is None:
        return None
    return coerce(Fraction(sign * num, den), w.order)


def build_unchecked(name: str, cyclotomic_order: int = 1, transcendentals=(),
                    egraph=()) -> EFieldPresentation:
    """Bypass invariant validation: for diagnostics (see check_presentation)
    and for a graph already validated."""
    obj = object.__new__(EFieldPresentation)
    object.__setattr__(obj, "name", name)
    object.__setattr__(obj, "cyclotomic_order", cyclotomic_order)
    object.__setattr__(obj, "transcendentals", tuple(transcendentals))
    object.__setattr__(obj, "egraph", tuple(egraph))
    return obj


# -- evaluation ---------------------------------------------------------------


@dataclass(frozen=True)
class EEvalResult:
    value: FieldElem | None = None
    root_specs: tuple = ()  # ((val, denominator >= 2), ...)
    outside_span: bool = False

    @property
    def is_value(self) -> bool:
        return self.value is not None


def e_eval(f: EFieldPresentation, a: FieldElem) -> EEvalResult:
    """Evaluate E(a) from the graph.

    Integer coordinates in the argument span give the product of value
    powers; fractional coordinates report the roots that would be needed;
    arguments outside the Q-span report a fresh value marker.

    The coordinates come from one reduction of ``a`` against
    ``f.arg_basis``, which clears ``a`` itself; E(0) = 1 is the empty
    product, which ``power_product`` takes at order 1 by multiplication
    alone up to its second non-constant factor, and beyond it when the
    values form a coprime base (``f.coprime_vals``, asked only then).  Its
    other callers pass no such flag.
    """
    coords = f.arg_basis.coordinates(coerce(a, f.cyclotomic_order))
    if coords is None:
        return EEvalResult(outside_span=True)
    if all(q.denominator == 1 for q in coords):
        return EEvalResult(value=power_product(
            f.vals, coords, f.cyclotomic_order, lambda: f.coprime_vals))
    roots = tuple((val, q.denominator)
                  for q, (_, val) in zip(coords, f.egraph)
                  if q.denominator != 1)
    return EEvalResult(root_specs=roots)


def extend_graph(f: EFieldPresentation, new_pairs) -> EFieldPresentation:
    """Adjoin graph pairs; arguments must stay Q-linearly independent and
    values nonzero, which the new presentation's own validation enforces."""
    pairs = list(f.egraph)
    for a, v in new_pairs:
        pairs.append((coerce(a, f.cyclotomic_order),
                      coerce(v, f.cyclotomic_order)))
    new_syms = set()
    for a, v in pairs:
        new_syms |= a.symbols() | v.symbols()
    trans = list(f.transcendentals)
    for s in sorted(new_syms - set(trans)):
        trans.append(s)
    return replace(f, transcendentals=tuple(trans), egraph=tuple(pairs))


def adjoin_transcendentals(f: EFieldPresentation, names) -> EFieldPresentation:
    trans = list(f.transcendentals)
    for s in names:
        if s in trans:
            raise LinearDependence([], f"symbol {s} already present")
        trans.append(s)
    # the graph is unchanged, so only its undeclared-symbol check reads the
    # transcendentals, and adding a symbol leaves every declared one declared
    return build_unchecked(f.name, f.cyclotomic_order, trans, f.egraph)


# -- graph consolidation (used by the amalgamation constructions) ------------


@dataclass(frozen=True)
class WellDefCheck:
    kernel_basis: tuple  # integer vectors over the concatenated arguments
    verdicts: tuple  # bool per vector


def merge_graphs(pairs, order: int):
    """Check coherence of a concatenated pair family and rebuild it on a
    Z-basis of the argument lattice.

    One ``hermite_form`` of the arguments' coordinates in the greedy
    independent ones gives both: its transform's rows after the rank span
    the integer kernel, checked in Hermite normal form, and the rows up to
    the rank rebuild the pairs on the Hermite normal form of the argument
    lattice.  Returns (consolidated_pairs, WellDefCheck), the pairs as
    given when there is no kernel.  Raises WellDefFailure when some integer
    kernel vector of the arguments has value product != 1.
    """
    pairs = [(coerce(a, order), coerce(v, order)) for a, v in pairs]
    args = [a for a, _ in pairs]
    vals = [v for _, v in pairs]
    # each argument's integer coordinates: none at all when every one is 0
    h, t = hermite_form(_integer_columns(span_matrix(args)) or [[]] * len(args))
    kernel = hermite_form(t[len(h):])[0]
    for vec in kernel:
        prod = power_product(vals, vec, order)
        if not prod.is_one():
            raise WellDefFailure(vec, prod)
    check = WellDefCheck(tuple(tuple(v) for v in kernel),
                         (True,) * len(kernel))
    if not kernel:
        return tuple(pairs), check
    return tuple((int_combination(z, args, order),
                  power_product(vals, z, order)) for z in t[:len(h)]), check


# -- realizing exponential points (the constructive reduction) ----------------


@dataclass(frozen=True)
class SolveResult:
    presentation: EFieldPresentation
    point_x: tuple
    point_y: tuple
    param_values: dict  # locus parameter -> FieldElem
    adjoined: tuple  # ((symbol, role), ...) in adjunction order


def solve(f: EFieldPresentation, v: ParametricVariety,
          auto_extend: bool = True) -> SolveResult:
    """Extend ``f`` so the variety acquires an exponential point.

    Reduces to additively free form, adjoins a fresh generic point for the
    reduced variety with freely chosen exponentials, and pulls back.  The
    reduced variety needs no freeness check: its coordinates are ``reduce``'s
    pivots, independent modulo base-valued elements by construction.  The
    returned point satisfies every defining relation of ``v`` and agrees
    with e_eval on the extended presentation.
    """
    order = f.cyclotomic_order
    if v.cyclotomic_order not in (1, order):
        raise ExponentialConflict(
            f"variety uses cyclotomic order {v.cyclotomic_order}, "
            f"presentation has {order}")
    rr = variety_reduce(v)

    adjoined: list = []
    current = f
    param_values: dict = {}

    def _fresh(prefix: str, role: str) -> FieldElem:
        """A fresh transcendental, adjoined to ``current``."""
        nonlocal current
        name = fresh_name(prefix, set(current.transcendentals) | set(v.base_params)
                          | set(v.locus_params))
        current = adjoin_transcendentals(current, [name])
        adjoined.append((name, role))
        return current.elem(name)

    # a generic point for the reduced variety's X-side parameters, then
    # exponential values for its coordinates; free Y parameters never occur
    # in X, so the reduced X coordinates are substituted once, as ``args``
    args = []
    ec_values = []
    if rr.vprime is not None:
        for u in rr.vprime.locus_params:
            if any(u in x.symbols() for x in rr.vprime.X):
                param_values[u] = _fresh("_c", f"generic value for {u}")
        args = [x.subs(param_values) for x in rr.vprime.X]
        for yp, free, i_orig in zip(rr.vprime.Y, rr.vprime.free_Y,
                                    rr.index_map):
            if rr.N != 1 and not v.free_Y[i_orig]:
                # the original coordinate pins rho^N; only an exact rational
                # root keeps us inside the purely transcendental regime
                want = v.Y[i_orig].subs(param_values)
                val = _rational_nth_root(want, rr.N)
                if val is None:
                    raise MissingExponential(
                        f"coordinate {i_orig} needs an {rr.N}-th root of "
                        f"{want}", root_specs=[(want, rr.N)])
            elif free:
                sym = next(iter(yp.symbols()))
                val = param_values[sym] = _fresh(
                    "_r", f"free exponential for {sym}")
            else:
                # its argument has fresh _c symbols: E is not defined there yet
                val = yp.subs(param_values)
            ec_values.append(val)
        current = extend_graph(current, zip(args, ec_values))

    # resolve the base offsets b_i, preferring constrained variety values
    def _resolve_b(i: int, b: FieldElem) -> FieldElem:
        nonlocal current
        ev = e_eval(current, b)
        required = None
        if not v.free_Y[i]:
            required = v.Y[i].subs(param_values) / power_product(
                ec_values, [q * rr.N for q in rr.A[i]], order)
        if ev.is_value:
            if required is not None and ev.value != required:
                raise ExponentialConflict(
                    f"coordinate {i}: E({b}) = {ev.value} conflicts with the "
                    f"variety constraint {required}")
            return ev.value
        if not ev.outside_span:
            raise MissingExponential(
                f"E({b}) needs roots of existing values",
                root_specs=list(ev.root_specs))
        if required is not None:
            current = extend_graph(current, [(b, required)])
            adjoined.append((f"E({b})", "pinned by variety constraint"))
            return required
        if not auto_extend:
            raise MissingExponential(f"E({b}) is undefined and auto-extension "
                                     "is disabled")
        gval = _fresh("_g", f"fresh value for E({b})")
        current = extend_graph(current, [(b, gval)])
        return gval

    point_x, point_y = pullback(rr, args, ec_values, resolve_b=_resolve_b)

    # final consistency check against every constrained coordinate
    for i in range(v.n):
        if not v.free_Y[i]:
            want = v.Y[i].subs(param_values)
            if point_y[i] != want:
                raise ExponentialConflict(
                    f"coordinate {i} forces E = {want} but the homomorphism "
                    f"gives {point_y[i]}")
        else:
            sym = next(iter(v.Y[i].symbols()))
            param_values.setdefault(sym, point_y[i])
        ev = e_eval(current, point_x[i])
        assert ev.is_value and ev.value == point_y[i], \
            "point must agree with e_eval"

    return SolveResult(presentation=current, point_x=point_x, point_y=point_y,
                       param_values=param_values, adjoined=tuple(adjoined))


# -- hull extraction -----------------------------------------------------------


@dataclass(frozen=True)
class HullPresentation:
    generators: tuple
    closed_under_graph: bool


class HullBasis:
    """The hulls of one presentation, sharing one reduction of its graph
    arguments.

    It holds a semi-echelon basis (``SpanBasis``) of 1 and of every element
    offered to it: the generators and candidates of its hulls, each once.
    Against it, each graph argument has a residue and coordinates in the
    offered elements that became rows.  A new row reduces every argument by
    that row alone (``linalg.reduce_mod`` on the rows added since), which
    is exact because the rows are semi-echelon in insertion order (an
    offer that adds none reduces nothing); a new denominator rebuilds the
    basis through ``covering`` and reduces the arguments again.

    An integer combination sum(z_i arg_i) lies in span(G, 1) exactly when
    its residue is zero and its coordinates lie in the span of the
    coordinates of G and 1.  So a hull round's matrix stacks the residues
    on the coordinates reduced modulo that span, as two blocks of sparse
    columns, and its integer kernel is the round's lattice: the same
    lattice, so the same Hermite normal form and the same generators as
    from a basis of span(G, 1) alone.  When G is among the offered rows, as
    a set of symbols is, the reduction drops G's coordinates; then mostly
    no two columns share a key, and the zero columns give the lattice.
    Nothing is kept beyond the object, which serves one ``hull`` call, one
    ``indep`` call or one node of ``amalg.verify_independent_system``, since
    each node has its own graph; that call shares rows across nodes by the
    generators' ``key()``.
    """

    def __init__(self, f: EFieldPresentation):
        self.order = f.cyclotomic_order
        self.args, self.vals = f.args, f.vals
        self.span = SpanBasis().covering(self.args)
        self.coords: dict = {}  # offered element key() -> its coordinates
        self.products: dict = {}  # lattice vector -> (value product, coords)
        self.reductions = [self.span.reduce(a) for a in self.args]
        # offered first: 1 has index 0 and coordinates {0: 1}
        self._coordinates(FieldElem.one(self.order))

    def _coordinates(self, e: FieldElem) -> tuple:
        """e.key() and e's coordinates in the offered rows, offering it once."""
        key = e.key()
        x = self.coords.get(key)
        if x is None:
            span = self.span.covering([e])
            if span is not self.span:
                self.span = span
                self.reductions = [span.reduce(a) for a in self.args]
            start = len(span.rows)
            x = self.coords[key] = span.add(e)
            new = span.rows[start:]  # the row e added, if any
            if new:
                for res, y in self.reductions:
                    reduce_mod(new, res, y)
        return key, x

    def _product(self, z) -> tuple:
        """The value product of the exponents z, its key and coordinates."""
        z = tuple(z)
        out = self.products.get(z)
        if out is None:
            c = power_product(self.vals, z, self.order)
            out = self.products[z] = (c, *self._coordinates(c))
        return out

    def hull(self, elems) -> dict:
        """Close a generator list under detectable graph application.

        A combination sum(z_i arg_i) with integer z lands in the Q-span of
        the generators (and 1) exactly when the corresponding value product
        belongs to the hull; the detectable such z form a saturated
        lattice, recomputed until the span stops growing.  Each round reads
        it off sparse columns in Hermite normal form, so the generators
        added depend only on that lattice: the value products of its basis
        outside the span of everything before them.

        Returns the generators in order, each keyed by its ``key()``.  An
        input equal to an earlier one is dropped, whatever its key: equal
        elements have equal coordinates in this basis, and only they do.
        """
        local = [(0, 1, {}, None)]  # semi-echelon coordinates of 1 and gens
        gens: dict = {}  # generator's key() -> generator
        seen = set()  # the generators' coordinates, as frozensets
        for e in elems:
            e = coerce(e, self.order)
            key, x = self._coordinates(e)
            coords = frozenset(x.items())
            if coords not in seen:
                seen.add(coords)
                gens[key] = e
                extend_basis(local, dict(x))
        for _ in range(len(self.args) + 1):
            lattice = column_kernel_basis(
                [[res for res, _ in self.reductions],
                 [reduce_mod(local, dict(y)) for _, y in self.reductions]])
            new = {key: c for c, key, x in map(self._product, lattice)
                   if extend_basis(local, dict(x))}
            if not new:
                break
            gens.update(new)
        return gens


def hull(f: EFieldPresentation, elems) -> HullPresentation:
    """Close a generator list under detectable graph application inside
    ``f``: ``HullBasis.hull`` on a basis of its own."""
    return HullPresentation(tuple(HullBasis(f).hull(elems).values()), True)


# -- generator families ---------------------------------------------------------


def minimal_ea_family(prefix, name: str = "minimal") -> EFieldPresentation:
    """Presentation with E(1) transcendental and E(E(1)^n) = q_n prescribed.

    ``prefix`` lists q_2..q_N (nonzero rationals); distinct prefixes give
    presentations that cannot be jointly embedded.
    """
    tau = FieldElem.from_symbol("tau")
    pairs = [(FieldElem.one(), tau)]
    for i, q in enumerate(prefix):
        q = Fraction(q)
        if q == 0:
            raise ZeroValue(f"prefix entry {i} is zero")
        pairs.append((tau ** (i + 2), coerce(q)))
    return EFieldPresentation(name=name, cyclotomic_order=1,
                              transcendentals=("tau",), egraph=tuple(pairs))


# -- diagnostics -----------------------------------------------------------------

SPOT_CHECKS = 10  # homomorphism-law samples of check_presentation


def check_presentation(f: EFieldPresentation) -> dict:
    """Validate the invariants and spot-check the homomorphism law at
    SPOT_CHECKS integer combinations drawn by ``random.Random(0)``, so the
    report of a presentation never varies."""
    violations = list(_graph_violations(f))
    checks = 0
    if not violations and f.egraph:
        rng = random.Random(0)
        order = f.cyclotomic_order
        for _ in range(SPOT_CHECKS):
            z = [rng.randint(-3, 3) for _ in range(len(f.egraph))]
            ev = e_eval(f, int_combination(z, f.args, order))
            if not ev.is_value or ev.value != power_product(f.vals, z, order):
                violations.append({"kind": "homomorphism_failure",
                                   "coefficients": z})
            checks += 1
    return {"ok": not violations, "violations": violations,
            "spot_checks": checks}


# -- evaluating exponential terms at a point --------------------------------------


def eval_term(f: EFieldPresentation, term: ETerm, assignment: dict) -> FieldElem:
    """Evaluate an exponential term by ``exprlang.evaluate`` over field
    elements; E-subterms go through e_eval.

    Raises MissingExponential when the graph does not determine a value.
    """
    order = f.cyclotomic_order

    def leaf(node):
        if isinstance(node, Lit):
            return coerce(node.value, order)
        if isinstance(node, Var):
            if node.name in assignment:
                return coerce(assignment[node.name], order)
            return FieldElem.from_symbol(node.name, order)
        # a leaf that named itself would be a reference cycle on every call
        inner = eval_term(f, node.arg, assignment)
        ev = e_eval(f, inner)
        if not ev.is_value:
            raise MissingExponential(f"E({inner}) is not determined by the graph")
        return ev.value
    return exprlang.evaluate(term, leaf)


def eval_system(f: EFieldPresentation, system, assignment: dict) -> bool:
    """Exact truth of every atom of an ESystem at the assignment."""
    for atom in system.atoms:
        lhs = eval_term(f, atom.lhs, assignment)
        rhs = eval_term(f, atom.rhs, assignment)
        holds = lhs == rhs
        if atom.rel == "neq":
            holds = not holds
        if not holds:
            return False
    return True
