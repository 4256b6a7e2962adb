"""Transcendence degree, the independence relation, and amalgamation.

Independence of subfields is decided by the Jacobian rank criterion (valid
in characteristic 0): td of a tuple over a finitely generated subfield is a
difference of Jacobian ranks with respect to the ambient transcendentals,
and A is independent from B over C when td(A/BC) = td(A/C), that is when
r(ABC) + r(C) = r(AC) + r(BC), so symmetric in A and B.  Pairwise
amalgamation and the completion of independent P^-(n) systems build one
free composite (new transcendentals kept algebraically independent), with
the homomorphism's well-definedness certified on the integer kernel of the
concatenated graph arguments.

One function decides each relation here:

- independence: ``_IndepChecks.indep``, the one statement of the rank
  identity.  ``acf_indep`` applies it to Jacobian rows of the given
  elements, and ``indep`` and ``verify_independent_system`` to rows of
  hull generators.  Tests: ``test_span_oracles``, whose
  ``rank_identity`` writes the identity out as the oracle of
  ``acf_indep``, whose ``indep_oracle`` and ``verify_oracle`` rebuild
  every hull and rank per pair, and whose ``per_node_verify`` shares
  ranks only inside a node; ``test_amalg``'s ``TestAcfIndep``,
  ``TestIndep`` and ``TestIndependenceAxioms`` and acceptance criterion 6
  check pinned verdicts and the relation's axioms.
- td: ``tdeg``, a difference of two ``_IndepChecks.rank``.  Tests:
  ``test_amalg.TestTdeg`` and
  ``test_span_oracles.test_tdeg_is_a_difference_of_jacobian_ranks``.
- well-definedness of a composite: ``efield.merge_graphs``, through
  ``_composite``.  Tests: ``test_amalg``'s ``TestAmalgamate2`` and
  ``TestSystems``, and those ``efield`` names for ``merge_graphs``.

The independence checks of one call share their work through one
``_IndepChecks``.  Per node, all hulls come from one ``efield.HullBasis``,
which reduces that node's graph arguments once, and each distinct set of
generators is closed to its hull once.  Per call, across the nodes of
``verify_independent_system``, each hull generator is differentiated once,
keyed by its value's ``key()``, by the symbols it has, into a sparse
Jacobian row with a column per symbol, and each distinct set of rows is
ranked once.  One ``_IndepChecks`` serves one ``indep``, ``acf_indep``,
``tdeg`` or ``verify_independent_system`` call and is dropped when it
returns; nothing is kept between calls.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IllFormedExtension, UnsupportedShape, reject_undeclared
from .efield import (EFieldPresentation, HullBasis, WellDefCheck, e_eval,
                     merge_graphs, presentation, undeclared)
from .fieldelem import FieldElem, lone_symbol
from .linalg import ff_rank, jacobian_row


# -- transcendence degree and ACF-independence --------------------------------


class _IndepChecks:
    """Hulls, Jacobian rows and ranks shared by the independence checks of
    one call, made in the presentations ``nodes`` names by label.

    Per node: one ``HullBasis``, built on the node's first hull miss, so
    its graph arguments are reduced once, and its hulls, keyed by a set the
    caller names, which must fix the set of the inputs, since the
    generators, as a set, do not depend on their order or on repeats.  Per
    call: a row per generator's ``key()``, whichever node closed it, a
    sparse dict {symbol: derivative} over the symbols of ``params`` it has;
    and a rank per set of row keys, the union of the hulls' keys, which
    fixes it.  A generator of a node lies in the field of that node's
    transcendentals, so its rank there is its rank over all of ``params``.
    ``tdeg`` and ``acf_indep`` rank through one with no nodes."""

    def __init__(self, nodes: dict, params):
        self.nodes = nodes
        self.params = list(params)
        self.bases: dict = {}  # label -> HullBasis
        self.hulls: dict = {}  # (label, caller's key) -> hull row keys
        self.rows: dict = {}  # generator's key() -> Jacobian row
        self.ranks: dict = {}  # frozenset of row keys -> rank

    def add_rows(self, gens: dict) -> tuple:
        """The keys of ``gens``, {key(): element}, after storing the
        Jacobian row of each element whose key has none yet."""
        self.rows.update((k, jacobian_row(g, self.params))
                         for k, g in gens.items() if k not in self.rows)
        return tuple(gens)

    def hull(self, node, key, elems) -> tuple:
        """Row keys of the hull in ``node`` of the list ``elems()`` returns,
        computed once per (node, key)."""
        keys = self.hulls.get((node, key))
        if keys is None:
            if node not in self.bases:
                self.bases[node] = HullBasis(self.nodes[node])
            keys = self.hulls[node, key] = self.add_rows(
                self.bases[node].hull(elems()))
        return keys

    def rank(self, *keys) -> int:
        """The rank of the rows of the union of the key tuples ``keys``."""
        union = frozenset().union(*keys)
        if (r := self.ranks.get(union)) is None:
            rows = dict.fromkeys(k for ks in keys for k in ks)
            r = self.ranks[union] = ff_rank([self.rows[k] for k in rows])
        return r

    def indep(self, a, b, c) -> bool:
        """A is independent from B over C, each given by row keys:
        td(A/BC) = td(A/C), that is r(ABC) + r(C) = r(AC) + r(BC), so
        symmetric in A and B.  This is the one statement of independence:
        ``acf_indep``, ``indep`` and ``verify_independent_system`` all
        decide through it."""
        return (self.rank(a, b, c) + self.rank(c)
                == self.rank(a, c) + self.rank(b, c))


def tdeg(amb_params, elems, over=()) -> int:
    """td of ``elems`` over the subfield generated by ``over``.

    Jacobian criterion: rank J(elems + over) - rank J(over), derivatives
    taken by every ambient transcendental.
    """
    checks = _IndepChecks({}, amb_params)
    e, o = (checks.add_rows({x.key(): x for x in xs}) for xs in (elems, over))
    return checks.rank(e, o) - checks.rank(o)


def acf_indep(a, b, c, amb_params) -> bool:
    """Field-theoretic independence of A from B over C inside the ambient
    field, ``_IndepChecks.indep`` on their Jacobian rows."""
    checks = _IndepChecks({}, amb_params)
    return checks.indep(*(checks.add_rows({e.key(): e for e in x})
                          for x in (a, b, c)))


def indep(f: EFieldPresentation, a, b, c) -> bool:
    """The independence relation: the hulls of AC and BC are ACF-independent
    over the hull of C, inside ``f``.  A, B and C may name only the symbols
    ``f`` declares, since ranks differentiate by those alone."""
    a, b, c = list(a), list(b), list(c)
    for elems in (a, b, c):
        reject_undeclared(undeclared(f, elems))
    checks = _IndepChecks({None: f}, f.transcendentals)
    return checks.indep(*(checks.hull(None, i, lambda g=g: g)
                          for i, g in enumerate((a + c, b + c, c))))


# -- pairwise amalgamation ------------------------------------------------------


@dataclass(frozen=True)
class EmbeddedPresentation:
    inclusion: dict  # side's symbol -> FieldElem of the composite

    def apply(self, e: FieldElem) -> FieldElem:
        ren = {}
        for s, target in self.inclusion.items():
            sym = lone_symbol(target)
            if sym is None:
                raise UnsupportedShape(
                    "only renaming inclusions are supported")
            ren[s] = sym
        return e.rename(ren)


@dataclass(frozen=True)
class Amalgam:
    composite: EFieldPresentation
    g1: EmbeddedPresentation
    g2: EmbeddedPresentation
    check: WellDefCheck


def _composite(name: str, order: int, symbols, pairs) -> tuple:
    """The free composite over ``symbols``, each once in first-seen order,
    with the graph ``pairs`` merged, and the merge's well-definedness check."""
    merged, check = merge_graphs(pairs, order)
    return presentation(name, order, dict.fromkeys(symbols), merged), check


def _check_extension(base: EFieldPresentation, ext: EFieldPresentation) -> None:
    if ext.cyclotomic_order != base.cyclotomic_order:
        raise IllFormedExtension(
            f"{ext.name}: cyclotomic order {ext.cyclotomic_order} differs "
            f"from the base's {base.cyclotomic_order}")
    missing = set(base.transcendentals) - set(ext.transcendentals)
    if missing:
        raise IllFormedExtension(
            f"{ext.name} does not contain base transcendentals {sorted(missing)}")
    for arg, val in base.egraph:
        ev = e_eval(ext, arg)
        if not ev.is_value or ev.value != val:
            raise IllFormedExtension(
                f"{ext.name} does not preserve the base graph at {arg}")


def amalgamate2(base: EFieldPresentation, f1: EFieldPresentation,
                f2: EFieldPresentation) -> Amalgam:
    """Free composite of two extensions over a shared base.

    New transcendentals of each side are renamed apart with node-name
    prefixes; the union graph is certified well defined and consolidated.
    """
    _check_extension(base, f1)
    _check_extension(base, f2)
    shared = set(base.transcendentals)
    name1, name2 = f1.name, f2.name
    if name1 == name2:
        name1, name2 = f"{name1}_1", f"{name2}_2"

    taken = set(shared)

    def rename_map(f: EFieldPresentation, prefix: str) -> dict:
        out = {}
        for s in f.transcendentals:
            if s in shared:
                out[s] = s
                continue
            target = f"{prefix}__{s}"
            while target in taken:
                target = "_" + target
            taken.add(target)
            out[s] = target
        return out

    m1 = rename_map(f1, name1)
    m2 = rename_map(f2, name2)
    comp, check = _composite(
        f"{base.name}({name1},{name2})", base.cyclotomic_order,
        [*base.transcendentals, *m1.values(), *m2.values()],
        [(a.rename(m), v.rename(m))
         for f, m in ((f1, m1), (f2, m2)) for a, v in f.egraph])
    inc1 = {s: comp.elem(m1[s]) for s in f1.transcendentals}
    inc2 = {s: comp.elem(m2[s]) for s in f2.transcendentals}
    return Amalgam(composite=comp, g1=EmbeddedPresentation(inc1),
                   g2=EmbeddedPresentation(inc2), check=check)


# -- independent systems ---------------------------------------------------------


def subset_label(a) -> str:
    return "{" + ",".join(str(i) for i in sorted(a)) + "}"


@dataclass(frozen=True)
class IndepSystem:
    """A P(n) or P^-(n) diagram of presentations with inclusion arrows.

    Nodes share symbols: the arrow for a <= b is the identity on the
    smaller node's transcendentals (renaming-style inputs are materialized
    at load time).
    """

    n: int
    nodes: dict  # frozenset -> EFieldPresentation

    def __post_init__(self):
        if self.n < 3:
            raise UnsupportedShape("systems need n >= 3")
        if self.n > 6:
            raise UnsupportedShape("n is capped at 6 (2^n nodes)")
        full = frozenset(range(self.n))
        expected = _proper_subsets(self.n)
        have = set(self.nodes)
        if have != expected and have != expected | {full}:
            raise UnsupportedShape("nodes must cover P^-(n) or P(n)")
        orders = {f.cyclotomic_order for f in self.nodes.values()}
        if len(orders) != 1:
            raise UnsupportedShape("all nodes must share one cyclotomic order")

    @property
    def is_complete(self) -> bool:
        return frozenset(range(self.n)) in self.nodes

    def node(self, a) -> EFieldPresentation:
        return self.nodes[frozenset(a)]


def _proper_subsets(n: int) -> set:
    out = set()
    for mask in range(2 ** n - 1):
        out.add(frozenset(i for i in range(n) if mask >> i & 1))
    return out


def validate_system(s: IndepSystem) -> None:
    """Functoriality: every inclusion a <= b is a field-and-graph embedding.

    Only the covering ones, |b| = |a| + 1, are checked, since every a < b
    is a chain of them and embeddings compose: if a <= b and b <= c embed,
    the orders agree, the transcendentals nest, and each argument of a's
    graph has integer coordinates in c's arguments through b's, with the
    same value product."""
    for a, fa in s.nodes.items():
        for b, fb in s.nodes.items():
            if a < b and len(b) == len(a) + 1:
                _check_extension(fa, fb)


@dataclass(frozen=True)
class SystemReport:
    ok: bool
    failures: tuple  # ((label_a, label_b), ...) independence failures


def verify_independent_system(s: IndepSystem) -> SystemReport:
    """Check the independence condition at every pair a < b of the diagram.

    All pairs share one ``_IndepChecks``: one Jacobian row per distinct
    hull generator and one rank per distinct set of rows, whichever node
    they come from.  The pairs a < b of one node b share its reduction of
    b's graph arguments and one hull per distinct set of symbol names.
    Each symbol's element is built once per call.
    """
    failures = []
    subsets = sorted(s.nodes, key=lambda x: (len(x), sorted(x)))
    syms = {a: frozenset(s.nodes[a].transcendentals) for a in subsets}
    below = {a: frozenset().union(*(syms[c] for c in subsets if c < a))
             for a in subsets}
    order = s.nodes[subsets[0]].cyclotomic_order
    params = dict.fromkeys(t for a in subsets
                           for t in s.nodes[a].transcendentals)
    elem = {t: FieldElem.from_symbol(t, order) for t in params}
    checks = _IndepChecks(s.nodes, params)

    def hull_of(b, symbols):
        return checks.hull(b, symbols,
                           lambda: [elem[t] for t in sorted(symbols)])

    for b in subsets:
        under = [d for d in subsets if d <= b]
        for a in under:
            if a == b or not a:
                continue
            d_syms = frozenset().union(*(syms[d] for d in under
                                         if not (a <= d)))
            if not d_syms:
                continue
            c_syms = below[a]
            if not checks.indep(hull_of(b, syms[a] | c_syms),
                                hull_of(b, d_syms | c_syms),
                                hull_of(b, c_syms)):
                failures.append((subset_label(a), subset_label(b)))
    return SystemReport(ok=not failures, failures=tuple(failures))


@dataclass(frozen=True)
class CompletionResult:
    system: IndepSystem
    check: WellDefCheck


def complete_system(s: IndepSystem, verify: bool = True) -> CompletionResult:
    """Complete an independent P^-(n) system to a P(n) system.

    The top node is the free composite (union) of the codimension-1 nodes;
    the union exponential graph is certified well defined: every integer
    kernel vector of the concatenated argument family must have value
    product 1.
    """
    if s.is_complete:
        raise UnsupportedShape("system is already complete")
    validate_system(s)
    if verify:
        rep = verify_independent_system(s)
        if not rep.ok:
            raise UnsupportedShape(
                f"input system is not independent: {rep.failures}")
    n = s.n
    codim1 = [s.nodes[frozenset(range(n)) - {i}] for i in range(n)]
    top, check = _composite(
        f"F_{subset_label(range(n))}", codim1[0].cyclotomic_order,
        [t for f in codim1 for t in f.transcendentals],
        [pair for f in codim1 for pair in f.egraph])
    nodes = dict(s.nodes)
    nodes[frozenset(range(n))] = top
    return CompletionResult(system=IndepSystem(n=n, nodes=nodes), check=check)
