"""merge_graphs, hull and reduce read their span bases and coordinates off one
echelon form.  The oracles here answer the same questions one element at a
time with ``dense_span_solve``: greedily keep each element outside the span
of the ones kept before it, then solve for the coordinates of the rest.  It
solves on a dense coordinate matrix with ``qlin_solve``, not through the
``SpanBasis`` that ``hull`` and ``e_eval`` reduce against.  Outputs must
agree by value and by printed text, except where a lattice basis is chosen:
``merge_graphs`` rebuilds a graph on the Hermite normal form of its
argument lattice, and its oracle on the integer row echelon form it used
before, so the two must span the same lattice of pairs.

indep and verify_independent_system share hulls, Jacobian rows and ranks
across the checks made inside one field; their oracle builds three hulls and
four Jacobian ranks from scratch for every pair, and must give the same
verdicts and failures, in the same order.  The sharing keys a hull by the set
of its inputs, which is exact because ``hull`` returns the same generators
for any order of its input and for repeats, and builds each Jacobian row
from the derivatives by the generator's own symbols only, which must equal
the dense row of ``jacobian``.

``_rref`` skips the arithmetic by zero and one; its oracle is the dense
Gauss-Jordan loop that scales every pivot row and updates every entry, and
``ff_rank`` must find the oracle's number of pivots.

``hull`` and ``e_eval`` reduce against one semi-echelon basis
(``SpanBasis``), which alone decides the common denominator that clears
them.  Their oracles are the loops they replaced: ``hull`` that rebuilt two
coordinate matrices every round, and ``e_eval`` that solved for the
coordinates on a dense coordinate matrix on every call."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from expofield import (EEvalResult, FieldElem, IndepSystem, LinearDependence,
                       acf_indep, amalg, coerce, e_eval, eliminate_symbols,
                       extend_graph, hull, indep, merge_graphs, presentation,
                       qlin_solve, reduce, verify_independent_system)
from expofield.amalg import _IndepChecks, subset_label, validate_system
from expofield.efield import adjoin_transcendentals, build_unchecked
from expofield.exprlang import parse_element
from expofield.fieldelem import cyclotomic_root, power_product
from expofield.linalg import (_rref, coordinate_matrix, ff_rank,
                              integer_kernel_basis, jacobian, kernel_basis)
from gen import (conflicting_system, rand_extension, rand_pminus_system,
                 rand_presentation, rand_variety, reused_transcendental_system,
                 shared_sibling_system, zspan_pair)

S = FieldElem.from_symbol
SEEDS = range(30)


def dense_span_solve(basis_elems, target):
    """Coordinates of ``target`` in the Q-span of ``basis_elems`` (or None),
    from one dense coordinate matrix of them all."""
    mat = coordinate_matrix(list(basis_elems) + [target])
    cols = len(basis_elems)
    return qlin_solve([r[:cols] for r in mat], [r[cols] for r in mat])


def span_coordinates(elems):
    """Coordinates of every element in the greedy independent ones."""
    kept = []
    for e in elems:
        if dense_span_solve(kept, e) is None:
            kept.append(e)
    return [dense_span_solve(kept, e) for e in elems]


def hull_oracle(f, elems):
    order = f.cyclotomic_order
    gens = []
    for e in (coerce(e, order) for e in elems):
        if not any(e == g for g in gens):
            gens.append(e)
    args = [a for a, _ in f.egraph]
    vals = [v for _, v in f.egraph]
    if not args:
        return gens
    one = FieldElem.one(order)
    for _ in range(len(args) + 1):
        rel = kernel_basis(coordinate_matrix(args + gens + [one]))
        proj = [p for p in (vec[:len(args)] for vec in rel) if any(p)]
        if not proj:
            break
        ortho = kernel_basis(proj)
        lattice = integer_kernel_basis(ortho) if ortho else [
            [int(i == j) for j in range(len(args))] for i in range(len(args))]
        grew = False
        for z in lattice:
            val = one
            for zi, v in zip(z, vals):
                if zi:
                    val = val * v ** zi
            if dense_span_solve(gens + [one], val) is None:
                gens.append(val)
                grew = True
        if not grew:
            break
    return gens


def row_echelon(rows):
    """Integer row echelon form with its transform: (basis_rows, transform)
    with basis = transform * rows, by repeated division with remainder
    against the smallest entry of each column.  Not a normal form: another
    basis of the same lattice can come out."""
    if not rows:
        return [], []
    m = [list(map(int, r)) for r in rows]
    t = [[1 if i == j else 0 for j in range(len(m))] for i in range(len(m))]
    r = 0
    for c in range(len(m[0])):
        while True:
            nz = [i for i in range(r, len(m)) if m[i][c]]
            if len(nz) <= 1:
                break
            a = min(nz, key=lambda i: abs(m[i][c]))
            for i in nz:
                if i == a:
                    continue
                q = m[i][c] // m[a][c]
                m[i] = [x - q * y for x, y in zip(m[i], m[a])]
                t[i] = [x - q * y for x, y in zip(t[i], t[a])]
        nz = [i for i in range(r, len(m)) if m[i][c]]
        if nz:
            m[r], m[nz[0]] = m[nz[0]], m[r]
            t[r], t[nz[0]] = t[nz[0]], t[r]
            r += 1
    return m[:r], t[:r]


def merge_oracle(pairs, order):
    """Coherent pairs rebuilt on a Z-basis of the argument lattice: the
    coordinates of every argument in the greedy independent ones, brought
    to integer row echelon form."""
    args = [coerce(a, order) for a, _ in pairs]
    vals = [coerce(v, order) for _, v in pairs]
    coords = span_coordinates(args)
    den = lcm(*(x.denominator for q in coords for x in q))
    h, t = row_echelon([[int(x * den) for x in q] for q in coords])
    out = []
    for row in t[:len(h)]:
        arg, val = FieldElem.zero(order), FieldElem.one(order)
        for i, z in enumerate(row):
            if z:
                arg = arg + coerce(z, order) * args[i]
                val = val * vals[i] ** z
        out.append((arg, val))
    return out


def in_lattice(v, basis):
    """v is an integer combination of the independent vectors ``basis``."""
    z = qlin_solve([list(col) for col in zip(*basis)], list(v))
    return z is not None and all(q.denominator == 1 for q in z)


def same_lattice(a, b):
    """Mutual integer membership: each basis lies in the other's lattice."""
    assert all(in_lattice(v, b) for v in a)
    assert all(in_lattice(v, a) for v in b)


def same_pair_lattice(got, want, order):
    """Every pair of each family is an integer combination of the pairs of
    the other, in the argument and, by the same exponents, in the value."""
    assert len(got) == len(want)
    for xs, ys in ((got, want), (want, got)):
        for a, v in xs:
            z = dense_span_solve([b for b, _ in ys], a)
            assert z is not None and all(q.denominator == 1 for q in z)
            assert power_product([w for _, w in ys], [int(q) for q in z],
                                 order) == v


def reduce_oracle(v):
    """(index_map, A, b, N) from one solve per coordinate over the stacked
    locus-parameter derivative coordinates."""
    order = v.cyclotomic_order
    rows = []
    for u in v.locus_params:
        rows.extend(coordinate_matrix([x.derivative(u) for x in v.X]))
    selected, sols, b = [], [], []
    for i in range(v.n):
        if not selected:
            sol = None if any(row[i] for row in rows) else []
        else:
            sol = qlin_solve([[row[j] for j in selected] for row in rows],
                             [row[i] for row in rows])
        if sol is None:
            selected.append(i)
            b.append(FieldElem.zero(order))
        else:
            combo = FieldElem.zero(order)
            for q, j in zip(sol, selected):
                combo = combo + coerce(q, order) * v.X[j]
            b.append(eliminate_symbols(v.X[i] - combo, v.locus_params))
        sols.append(sol)
    k = len(selected)
    A = []
    for i, sol in enumerate(sols):
        if sol is None:
            sol = [Fraction(j == selected.index(i)) for j in range(k)]
        A.append(tuple(sol) + (Fraction(0),) * (k - len(sol)))
    N = lcm(*(q.denominator for row in A for q in row))
    return tuple(selected), tuple(A), tuple(b), N


def same(got, want):
    assert list(got) == list(want)
    assert [str(x) for x in got] == [str(x) for x in want]


def merge_family(rng):
    """Coherent pairs over a random graph plus duplicates, integer
    combinations and fractional lattices such as (2c, w^2), (3c, w^3), whose
    coordinates have denominator 2 or 3 after the shuffle."""
    f = rand_presentation(rng, n_pairs=rng.randint(1, 3))
    pairs = list(f.egraph)
    for _ in range(rng.randint(0, 2)):
        pairs.append(rng.choice(f.egraph))
    for _ in range(rng.randint(0, 2)):
        arg, val = FieldElem.zero(), FieldElem.one()
        for a, v in f.egraph:
            z = rng.randint(-2, 2)
            if z:
                arg, val = arg + coerce(z) * a, val * v ** z
        if not arg.is_zero():
            pairs.append((arg, val))
    for arg, val, ks in (("c", "w", (2, 3)), ("d", "x", (3, 5))):
        if rng.random() < 0.7:
            pairs += [(coerce(k) * S(arg), S(val) ** k) for k in ks]
    rng.shuffle(pairs)
    return pairs


@pytest.mark.parametrize("seed", SEEDS)
def test_merge_graphs_matches_per_element_solves(seed):
    pairs = merge_family(random.Random(seed))
    got, check = merge_graphs(pairs, 1)
    kernel = integer_kernel_basis(coordinate_matrix([a for a, _ in pairs]))
    assert check.kernel_basis == tuple(tuple(vec) for vec in kernel)
    if not kernel:
        same([a for a, _ in got], [a for a, _ in pairs])
        same([v for _, v in got], [v for _, v in pairs])
        return
    same_pair_lattice(got, merge_oracle(pairs, 1), 1)


def test_merge_family_exercises_duplicates_and_fractions():
    kernels = dens = 0
    for seed in SEEDS:
        pairs = merge_family(random.Random(seed))
        args = [a for a, _ in pairs]
        kernels += bool(integer_kernel_basis(coordinate_matrix(args)))
        dens += any(x.denominator > 1 for q in span_coordinates(args) for x in q)
    assert kernels >= len(SEEDS) // 2 and dens >= len(SEEDS) // 4


@pytest.mark.parametrize("seed", SEEDS)
def test_hull_matches_per_element_solves(seed):
    rng = random.Random(seed)
    f = rand_presentation(rng, n_pairs=rng.randint(1, 3))
    f = rand_extension(rng, f, "E")
    elems = [S(rng.choice(f.transcendentals))]
    if f.egraph:
        elems += list(zspan_pair(rng, f))
    same(hull(f, elems).generators, hull_oracle(f, elems))


@pytest.mark.parametrize("seed", SEEDS)
def test_reduce_matches_per_element_solves(seed):
    v, _ = rand_variety(random.Random(seed))
    rr = reduce(v)
    index_map, A, b, N = reduce_oracle(v)
    assert rr.index_map == index_map and rr.N == N
    for got, want in zip(rr.A, A):
        same(got, want)
    same(rr.b, b)


def indep_oracle(f, a, b, c):
    return acf_indep(hull(f, a + c).generators, hull(f, b + c).generators,
                     hull(f, c).generators, f.transcendentals)


def verify_oracle(s):
    """(ok, failures) from one independent check per pair a < b."""
    failures = []
    subsets = sorted(s.nodes, key=lambda x: (len(x), sorted(x)))
    for b in subsets:
        fb = s.nodes[b]
        for a in subsets:
            if not (a < b) or not a:
                continue
            gens_a = [fb.elem(t) for t in s.nodes[a].transcendentals]
            c_syms = set()
            for c in subsets:
                if c < a:
                    c_syms |= set(s.nodes[c].transcendentals)
            d_syms = set()
            for d in subsets:
                if d <= b and not (a <= d):
                    d_syms |= set(s.nodes[d].transcendentals)
            if not d_syms:
                continue
            gens_c = [fb.elem(t) for t in sorted(c_syms)]
            gens_d = [fb.elem(t) for t in sorted(d_syms)]
            if not indep_oracle(fb, gens_a, gens_d, gens_c):
                failures.append((subset_label(a), subset_label(b)))
    return not failures, tuple(failures)


def adversarial_systems():
    rng = random.Random(505)
    out = [reused_transcendental_system()]
    out += [conflicting_system(rng) for _ in range(3)]
    out += [shared_sibling_system(rng, n) for n in (3, 4) for _ in range(3)]
    return out


def verdict(s):
    rep = verify_independent_system(s)
    return rep.ok, rep.failures


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("seed", SEEDS)
def test_verify_matches_per_pair_indep(seed, n):
    s = rand_pminus_system(random.Random(seed), n)
    assert verdict(s) == verify_oracle(s)


@pytest.mark.parametrize("index", range(len(adversarial_systems())))
def test_verify_matches_per_pair_indep_on_adversarial_systems(index):
    s = adversarial_systems()[index]
    assert verdict(s) == verify_oracle(s)


def growing_system():
    """A valid P^-(3) system: over E(1) = tau, node {i} adds g_i with
    E(g_i) = i + 2, and node {0,1} also defines E(tau) = w for a new
    transcendental w, so its hulls that contain tau grow by w."""
    one, tau = FieldElem.one(), S("tau")
    nodes = {}
    for mask in range(7):
        a = frozenset(i for i in range(3) if mask >> i & 1)
        f = presentation("F" + "".join(map(str, sorted(a))), 1,
                         ["tau"] + [f"g{i}" for i in sorted(a)],
                         [(one, tau)] + [(S(f"g{i}"), coerce(i + 2))
                                         for i in sorted(a)])
        if a == {0, 1}:
            f = extend_graph(adjoin_transcendentals(f, ["w"]), [(tau, S("w"))])
        nodes[a] = f
    return IndepSystem(n=3, nodes=nodes)


def test_verify_matches_per_pair_indep_where_a_hull_grows(monkeypatch):
    grew = []

    def spy(f, elems):
        elems = list(elems)
        out = hull(f, elems)
        grew.append(len(out.generators) > len({e.key() for e in elems}))
        return out

    s = growing_system()
    validate_system(s)
    monkeypatch.setattr(amalg, "hull", spy)
    assert verdict(s) == verify_oracle(s) == (True, ())
    assert any(grew)


def test_adversarial_systems_fail_at_several_pairs():
    verdicts = [verify_oracle(s) for s in adversarial_systems()]
    assert sum(not ok for ok, _ in verdicts) >= 7
    assert max(len(failures) for _, failures in verdicts) >= 2


def indep_triples(rng):
    f = rand_presentation(rng, n_trans=rng.randint(2, 4),
                          n_pairs=rng.randint(0, 3))
    if rng.random() < 0.5:
        f = rand_extension(rng, f, "E")
    pool = [S(t) for t in f.transcendentals]
    pool += [x for x in zspan_pair(rng, f) if not x.is_zero()]
    pool += [x * y for x, y in zip(pool, pool[1:])]
    for _ in range(6):
        yield f, *([rng.choice(pool) for _ in range(rng.randint(0, 3))]
                   for _ in range(3))


def test_indep_matches_hull_and_acf_indep():
    seen = set()
    for seed in SEEDS:
        for f, a, b, c in indep_triples(random.Random(seed)):
            want = indep_oracle(f, a, b, c)
            assert indep(f, a, b, c) == want
            seen.add(want)
    assert seen == {True, False}


def same_sparse_rows(f, elems):
    """The rows ``_IndepChecks`` builds for the hull of ``elems`` are the
    dense ``jacobian`` rows of its generators, by value and by text."""
    checks = _IndepChecks(f)
    keys = checks.hull(elems)
    gens = hull(f, elems).generators
    assert keys == tuple(g.key() for g in gens)
    for g, want in zip(gens, jacobian(gens, f.transcendentals)):
        same(checks.rows[g.key()], want)
    return gens


def test_sparse_jacobian_rows_equal_dense_rows():
    dens = 0
    for seed in SEEDS:
        for f, a, b, c in indep_triples(random.Random(seed)):
            quotients = [x / (y + 1) for x, y in zip(a, b + c)
                         if not (y + 1).is_zero()]
            for elems in (a + c, b + c, c, quotients + a):
                gens = same_sparse_rows(f, elems)
                dens += any(not g.den.is_constant() for g in gens)
    assert dens


def dense_rref(rows):
    """Gauss-Jordan that scales every pivot row, also by 1, and updates
    every entry of every other row, also by ``f * 0``."""
    m = [list(row) for row in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def matrices(entries, height, width):
    """Matrices of up to height x width entries."""
    return st.integers(0, height).flatmap(lambda h: st.integers(
        1, width).flatmap(lambda w: st.lists(
            st.lists(entries, min_size=w, max_size=w), min_size=h,
            max_size=h)))


# about half of the entries are zero, as in coordinate matrices
FRACTIONS = st.one_of(
    st.just(Fraction(0)), st.just(Fraction(0)), st.just(Fraction(1)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def field_entries(draw):
    """0, 1 and small quotients in t1, t2 and zeta_3, the kind of entry
    ``from_flat`` eliminates on."""
    kind = draw(st.integers(0, 3))
    if kind < 2:
        return FieldElem.from_int(kind, 3)
    atoms = [S("t1", 3), S("t2", 3), cyclotomic_root(3)]
    num = coerce(draw(st.integers(-2, 2)), 3) + draw(st.sampled_from(atoms))
    return num / draw(st.sampled_from(atoms + [coerce(2, 3)]))


def same_rref(rows):
    got, got_pivots = _rref(rows)
    want, want_pivots = dense_rref(rows)
    assert got_pivots == want_pivots
    assert ff_rank(rows) == len(want_pivots)
    assert got == want
    assert [[str(x) for x in row] for row in got] == \
        [[str(x) for x in row] for row in want]


@settings(max_examples=200, deadline=None)
@given(matrices(FRACTIONS, 7, 9))
@example([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(0)]])
@example([[Fraction(0), Fraction(2), Fraction(0)],
          [Fraction(3), Fraction(1), Fraction(1, 2)]])
def test_sparse_rref_matches_dense_on_fractions(rows):
    same_rref(rows)


def rational_multiple_rows():
    """Here an entry equal to 1 came out as a quotient of two rational
    multiples of one polynomial that carries zeta, and printed as such."""
    row = [parse_element(t, 3) for t in (
        "(-3)/(t2*zeta - t2)", "-t2*zeta - t2 - zeta - 1",
        "(-1)/(t1*zeta + t1)", "(t2)/(t1)", "0")]
    ones = [parse_element(t, 3) for t in ("1", "1", "0", "0", "1")]
    return [[FieldElem.zero(3)] * 5, ones, row,
            row[:4] + [FieldElem.one(3)]]


@settings(max_examples=100, deadline=None)
@given(matrices(field_entries(), 4, 5))
@example(rational_multiple_rows())
def test_sparse_rref_matches_dense_on_field_elements(rows):
    same_rref(rows)


# -- hull and e_eval against the loops they replaced ----------------------------


def hull_rebuild_oracle(f, elems):
    """Each round: the kernel of one coordinate matrix of [args, gens, 1],
    and the pivots of another of [gens, 1, candidates]."""
    order = f.cyclotomic_order
    gens = []
    for e in (coerce(e, order) for e in elems):
        if not any(e == g for g in gens):
            gens.append(e)
    args = [a for a, _ in f.egraph]
    vals = [v for _, v in f.egraph]
    if not args:
        return gens
    one = FieldElem.one(order)
    for _ in range(len(args) + 1):
        rel = kernel_basis(coordinate_matrix(args + gens + [one]))
        proj = [p for p in (vec[:len(args)] for vec in rel) if any(p)]
        if not proj:
            break
        ortho = kernel_basis(proj) or [[0] * len(args)]
        cands = [power_product(vals, z, order)
                 for z in integer_kernel_basis(ortho)]
        _, pivots = _rref(coordinate_matrix(gens + [one] + cands))
        new = [cands[c - len(gens) - 1] for c in pivots if c > len(gens)]
        if not new:
            break
        gens += new
    return gens


def e_eval_solve_oracle(f, a):
    order = f.cyclotomic_order
    a = coerce(a, order)
    if a.is_zero():
        return EEvalResult(value=FieldElem.one(order))
    if not f.egraph:
        return EEvalResult(outside_span=True)
    coords = dense_span_solve(f.args, a)
    if coords is None:
        return EEvalResult(outside_span=True)
    if all(q.denominator == 1 for q in coords):
        return EEvalResult(value=power_product(f.vals, coords, order))
    return EEvalResult(root_specs=tuple(
        (val, q.denominator) for q, val in zip(coords, f.vals)
        if q.denominator != 1))


def same_eval(got, want):
    assert got == want
    assert str(got.value) == str(want.value)
    assert [(str(v), d) for v, d in got.root_specs] == \
        [(str(v), d) for v, d in want.root_specs]


SPAN_ORDERS = (1, 3, 4, 6)


def denominators_of(order):
    """1, a rational, a non-unit polynomial and, above order 1, one that
    carries zeta."""
    t1, t2 = S("t1", order), S("t2", order)
    dens = [coerce(1, order), coerce(2, order), t1 + 1, t1 * t2]
    if order > 1:
        dens.append(t2 + cyclotomic_root(order))
    return dens


@st.composite
def span_elements(draw, order):
    atoms = [S(t, order) for t in ("t1", "t2", "t3")]
    if order > 1:
        atoms.append(cyclotomic_root(order, draw(st.integers(1, order - 1))))
    num = coerce(draw(st.integers(-3, 3).filter(bool)), order)
    for _ in range(draw(st.integers(0, 2))):
        term = draw(st.sampled_from(atoms)) ** draw(st.integers(1, 2))
        num = num + coerce(draw(st.integers(-2, 2).filter(bool)), order) * term
    if num.is_zero():
        num = coerce(1, order)
    return num / draw(st.sampled_from(denominators_of(order)))


@st.composite
def graphs(draw, order):
    """A presentation over t1, t2, t3 whose values are often arguments of
    the graph, so that hulls grow over several rounds."""
    args = draw(st.lists(span_elements(order), min_size=1, max_size=3))
    vals = []
    for i in range(len(args)):
        if i + 1 < len(args) and draw(st.booleans()):
            vals.append(args[i + 1])
        else:
            vals.append(draw(span_elements(order)))
    try:
        return presentation("F", order, ("t1", "t2", "t3"),
                            list(zip(args, vals)))
    except LinearDependence:
        assume(False)


@st.composite
def hull_cases(draw):
    order = draw(st.sampled_from(SPAN_ORDERS))
    f = draw(graphs(order))
    pool = list(f.args) + [S(t, order) for t in f.transcendentals]
    elems = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    if draw(st.booleans()):
        z = draw(st.lists(st.integers(-2, 2), min_size=len(f.args),
                          max_size=len(f.args)))
        elems.append(sum((coerce(k, order) * a for k, a in zip(z, f.args)),
                         FieldElem.zero(order)) + 1)
    return f, elems


@st.composite
def eval_cases(draw):
    order = draw(st.sampled_from(SPAN_ORDERS))
    f = draw(graphs(order))
    q = draw(st.lists(st.fractions(-3, 3, max_denominator=3),
                      min_size=len(f.args), max_size=len(f.args)))
    a = FieldElem.zero(order)
    for c, arg in zip(q, f.args):
        if c:
            a = a + coerce(c, order) * arg
    if draw(st.integers(0, 3)) == 0:
        a = a + draw(span_elements(order))
    return f, a


def zeta_pin():
    """E(1/(t+zeta)) = u and E(1/(t-zeta)) = v, evaluated at their sum,
    2t/(t^2 - zeta^2): a denominator that is not an argument's and that
    carries zeta."""
    t, z = S("t", 3), cyclotomic_root(3)
    f = presentation("Z", 3, ("t", "u", "v"),
                     [(1 / (t + z), S("u", 3)), (1 / (t - z), S("v", 3))])
    return f, f.args[0] + f.args[1]


def growing_pin():
    """hull(t1) adds E(t1) = t2 / (t1 + 1), whose denominator the basis
    lacks, and in a second round E(t2 / (t1 + 1)) = t3."""
    t1, t2 = S("t1"), S("t2")
    f = presentation("G", 1, ("t1", "t2", "t3"),
                     [(t1, t2 / (t1 + 1)), (t2 / (t1 + 1), S("t3"))])
    return f, [t1]


def four_argument_pin(args, gens):
    """E(args[i]) = v_i over t1..t4, with generators ``gens``; each
    argument and generator is given by its coefficients of t1..t4."""
    t = [S(f"t{i}") for i in range(1, 5)]

    def lin(row):
        return sum((coerce(c) * x for c, x in zip(row, t) if c),
                   FieldElem.zero())

    vals = [S(f"v{i}") for i in range(4)]
    f = presentation("R", 1, tuple(map(str, t + vals)),
                     list(zip(map(lin, args), vals)))
    return f, [lin(row) for row in gens]


def reversal_pin():
    """Reading the echelon form of the residues with its columns reversed
    and back to front, as ``hull`` once did, gave a lattice basis here that
    neither the plain echelon form nor the Hermite normal form gives.  No
    hull of at most three arguments tells these apart."""
    return four_argument_pin(
        [(1, 2, -1, 3), (2, 0, 2, 0), (-1, 1, 2, 0), (0, 3, -1, 2)],
        [(1, 2, 0, 0), (0, 0, 0, 1)])


def plain_rref_pin():
    """As ``reversal_pin``, and plain Gauss-Jordan on the residues, with no
    reversal at all, gives another basis here too."""
    return four_argument_pin(
        [(-1, 1, 3, 0), (2, 0, 1, 0), (0, 0, 3, 2), (0, -1, 3, 0)],
        [(0, 2, 0, -1), (-1, 2, 0, 1)])


@settings(max_examples=120, deadline=None)
@given(hull_cases())
@example(growing_pin())
@example((zeta_pin()[0], [zeta_pin()[1]]))
@example(reversal_pin())
@example(plain_rref_pin())
def test_hull_matches_rebuild_oracle(case):
    f, elems = case
    same(hull(f, elems).generators, hull_rebuild_oracle(f, elems))


@settings(max_examples=100, deadline=None)
@given(hull_cases(), st.randoms(use_true_random=False))
@example(growing_pin(), random.Random(0))
@example(reversal_pin(), random.Random(1))
def test_hull_generators_ignore_input_order_and_repeats(case, rnd):
    f, elems = case
    shuffled = elems + [rnd.choice(elems)]
    rnd.shuffle(shuffled)
    assert {g.key() for g in hull(f, shuffled).generators} == \
        {g.key() for g in hull(f, elems).generators}


@settings(max_examples=60, deadline=None)
@given(hull_cases())
@example((zeta_pin()[0], [zeta_pin()[1]]))
@example(growing_pin())
def test_sparse_jacobian_rows_equal_dense_rows_over_cyclotomic_fields(case):
    same_sparse_rows(*case)


def test_growing_pin_grows_over_two_rounds():
    f, elems = growing_pin()
    assert [str(g) for g in hull(f, elems).generators] == \
        ["t1", "(t2)/(t1 + 1)", "t3"]


def test_reversal_pins_print_their_generators():
    """The generators the pins add are the value products of the Hermite
    normal form of the detected lattice; the reversed echelon form that
    chose them before printed other exponents of the same lattice."""
    pins = [
        (reversal_pin,
         ["t1 + 2*t2", "t4", "(v0*v1^6*v3^9)/(v2)", "(v1^9*v3^14)/(v2^2)"],
         [(1, 6, -1, 9), (0, 9, -2, 14)],
         ["(1)/(v0^2*v1^3*v3^4)", "(v2)/(v0*v1^6*v3^9)"],
         [(-2, -3, 0, -4), (-1, -6, 1, -9)]),
        (plain_rref_pin,
         ["2*t2 - t4", "-t1 + 2*t2 + t4", "(v0^5*v2^2)/(v3^7)",
          "(v1^3*v3^4)/(v2^5)"],
         [(5, 0, 2, -7), (0, 3, -5, 4)],
         ["(v3^7)/(v0^5*v2^2)", "(v1^3*v3^4)/(v2^5)"],
         [(-5, 0, -2, 7), (0, 3, -5, 4)]),
    ]
    for pin, text, exps, old_text, old_exps in pins:
        f, elems = pin()
        gens = hull(f, elems).generators
        assert [str(g) for g in gens] == text
        assert list(gens[2:]) == [power_product(f.vals, z, 1) for z in exps]
        assert [str(power_product(f.vals, z, 1)) for z in old_exps] == \
            old_text
        same_lattice(exps, old_exps)


@settings(max_examples=150, deadline=None)
@given(eval_cases())
@example(zeta_pin())
def test_e_eval_matches_span_solve(case):
    f, a = case
    same_eval(e_eval(f, a), e_eval_solve_oracle(f, a))


def test_zeta_pin_evaluates_without_growing_the_argument_basis():
    f, a = zeta_pin()
    basis = f.arg_basis
    dens, rows = list(basis.dens), list(basis.rows)
    assert e_eval(f, a).value == S("u", 3) * S("v", 3)
    assert f.arg_basis is basis
    assert basis.dens == dens and basis.rows == rows


def test_each_presentation_evaluates_on_its_own_graph():
    """The argument basis belongs to one presentation: the ones built from
    it after its basis exists see their own graph."""
    s, t, u = S("s"), S("t"), S("u")
    f = presentation("F", 1, ("s", "t", "u"), [(s, t)])
    assert e_eval(f, 2 * s).value == t ** 2
    assert e_eval(f, u).outside_span
    g = extend_graph(f, [(u, s + 1)])
    assert e_eval(g, s + u).value == t * (s + 1)
    assert e_eval(f, u).outside_span
    h = adjoin_transcendentals(f, ["w"])
    assert e_eval(h, 3 * s).value == t ** 3
    k = build_unchecked("K", 1, ("s", "t", "u"), [(u, coerce(5))])
    assert e_eval(k, 2 * u).value == coerce(25)
    assert e_eval(k, s).outside_span
