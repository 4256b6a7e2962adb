"""Random builders shared by the module tests and the acceptance suite,
``graph_conflicts``, which re-verifies certificates on two graphs,
``fold_power_product``, the value-product oracle, ``same_text``, the
comparison of a value with its oracle's, and the integer matrices that the
kernel tests of ``test_linalg`` and ``test_sympy_oracle`` share.

Varieties are generated so their freeness status is known by construction
and any integer relation has a representative inside the oracle's search
box: free coordinates carry a signature monomial (or a distinct pole) no
other coordinate can cancel, dependent coordinates are planted with small
coefficients.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

from hypothesis import strategies as st

from expofield import (EFieldPresentation, FieldElem, ParametricVariety,
                       coerce, e_eval, extend_graph, presentation)
from expofield.efield import adjoin_transcendentals

S = FieldElem.from_symbol


def graph_conflicts(f1: EFieldPresentation, f2: EFieldPresentation):
    """Pairs of (arg, val1, val2) where the two graphs disagree."""
    out = []
    for a1, v1 in f1.egraph:
        for a2, v2 in f2.egraph:
            if a1 == a2 and v1 != v2:
                out.append((a1, v1, v2))
    return out


def fold_power_product(bases, exps, order=1) -> FieldElem:
    """prod b_i ** z_i as the plain fold over FieldElem ``**`` and ``*``,
    from the first nonzero exponent: the oracle of ``power_product``, with
    which it shares no code."""
    out = None
    for b, z in zip(bases, exps):
        if z:
            factor = coerce(b, order) ** int(z)
            out = factor if out is None else out * factor
    return FieldElem.one(order) if out is None else out


def same_text(got, want):
    """``got == want``, and the two print the same text; lists and tuples
    item by item, so a tuple may meet a list.

    ``FieldElem.__eq__`` cross-multiplies, and normal forms are not
    canonical (see ``mpoly``): the order of additions can show in a printed
    value.  So ``==`` alone passes a change in how a value is computed that
    the user sees, and an oracle that builds its value in the same order as
    the library compares through this.  A check whose two sides are built
    in different orders, and so cannot print the same text until normal
    forms are canonical, keeps ``==`` alone:

    - ``test_efield.test_homomorphism_law``: ``e_eval(a + b)`` is one value
      product, while ``E(a) * E(b)`` multiplies two and cancels no common
      factor, so on ``rand_presentation`` seed 120 it prints
      ``(-4*t1^4 - 12*t1^2 - 9)/(2*t1^2*t2 + 2*t1^2 + 3*t2 + 3)`` for
      ``(-2*t1^2 - 3)/(t2 + 1)``.
    """
    if isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for x, y in zip(got, want):
            same_text(x, y)
        return
    assert got == want
    assert str(got) == str(want)


def nonzero_fraction(rng: random.Random, lo=-4, hi=4) -> Fraction:
    while True:
        num = rng.randint(lo, hi)
        if num:
            return Fraction(num, rng.randint(1, 3))


def base_poly(rng: random.Random, syms, max_terms=2, max_deg=2) -> FieldElem:
    """Element of the base field (may be a rational constant)."""
    out = coerce(nonzero_fraction(rng))
    for _ in range(rng.randint(0, max_terms - 1)):
        term = coerce(nonzero_fraction(rng))
        if syms:
            for _ in range(rng.randint(1, max_deg)):
                term = term * S(rng.choice(syms))
        out = out + term
    return out


def rand_variety(rng: random.Random, max_n=4, max_params=3):
    """(variety, expected_free) with box-detectable relations."""
    n = rng.randint(1, max_n)
    n_params = rng.randint(1, max_params)
    n_base = rng.randint(0, 2)
    base = tuple(f"t{i+1}" for i in range(n_base))
    params = [f"_p{i+1}" for i in range(n_params)]
    n_dep = rng.randint(0, n - 1) if rng.random() < 0.6 else 0
    n_free = n - n_dep

    # unique signature monomials: (param, degree) pairs, plus distinct poles
    signatures = [(p, d) for d in (1, 2, 3) for p in params]
    rng.shuffle(signatures)
    poles = [Fraction(k) for k in range(1, 9)]
    rng.shuffle(poles)

    xs = []
    for i in range(n_free):
        if (rng.random() < 0.25 or not signatures) and poles:
            r = poles.pop()
            x = coerce(nonzero_fraction(rng)) / (S(params[0]) + coerce(r))
        else:
            p, d = signatures.pop()
            x = coerce(nonzero_fraction(rng)) * S(p) ** d
            if rng.random() < 0.5:
                x = x + base_poly(rng, base)
            if base and rng.random() < 0.3:
                x = x / (S(base[0]) + 1)
        xs.append(x)
    for _ in range(n_dep):
        dep = base_poly(rng, base) if rng.random() < 0.5 else coerce(0)
        for x in xs[:n_free]:
            c = rng.randint(-2, 2)
            if c:
                dep = dep + coerce(c) * x
        xs.append(dep)
    order = list(range(n))
    rng.shuffle(order)
    xs = [xs[i] for i in order]

    used = set(base) | set(params)
    ys, flags = [], []
    for i in range(n):
        if rng.random() < 0.5:
            q = f"_q{i+1}"
            used.add(q)
            params.append(q)
            ys.append(S(q))
            flags.append(True)
        else:
            ys.append(coerce(nonzero_fraction(rng)))
            flags.append(False)
    v = ParametricVariety(base_params=base, locus_params=tuple(params),
                          X=tuple(xs), Y=tuple(ys), free_Y=tuple(flags))
    return v, n_dep == 0


def rand_presentation(rng: random.Random, name="F", n_trans=None,
                      n_pairs=None) -> EFieldPresentation:
    """Presentation whose graph arguments are independent by construction."""
    if n_trans is None:
        n_trans = rng.randint(1, 3)
    if n_pairs is None:
        n_pairs = rng.randint(0, 2)
    trans = [f"t{i+1}" for i in range(max(n_trans, n_pairs))]
    f = presentation(name, transcendentals=tuple(trans))
    pairs = []
    for i in range(n_pairs):
        # argument anchored on its own transcendental
        arg = S(trans[i])
        if rng.random() < 0.3:
            arg = arg * rng.randint(2, 3)
        if rng.random() < 0.3 and i + 1 < len(trans):
            arg = arg + rng.randint(1, 2) * S(trans[i + 1])
        val = base_poly(rng, trans) if rng.random() < 0.5 \
            else coerce(rng.randint(1, 5))
        if val.is_zero():
            val = coerce(1)
        pairs.append((arg, val))
    return extend_graph(f, pairs) if pairs else f


def rand_extension(rng: random.Random, base: EFieldPresentation, name: str,
                   n_new=None) -> EFieldPresentation:
    """Extension adjoining fresh transcendentals and pairs anchored on them."""
    if n_new is None:
        n_new = rng.randint(1, 2)
    fresh = []
    k = 1
    existing = set(base.transcendentals)
    while len(fresh) < n_new:
        cand = f"{name}s{k}"
        k += 1
        if cand not in existing:
            fresh.append(cand)
            existing.add(cand)
    ext = adjoin_transcendentals(base, fresh)
    pairs = []
    for s in fresh:
        if rng.random() < 0.8:
            arg = S(s)
            if rng.random() < 0.3 and base.transcendentals:
                arg = arg + rng.randint(1, 2) * S(rng.choice(base.transcendentals))
            val = S(rng.choice(ext.transcendentals)) if rng.random() < 0.5 \
                else coerce(rng.randint(2, 7))
            pairs.append((arg, val))
    out = extend_graph(ext, pairs) if pairs else ext
    return replace(out, name=name)


def zspan_pair(rng: random.Random, f: EFieldPresentation):
    """Two random elements of the Z-span of the graph arguments."""
    def combo():
        out = FieldElem.zero(f.cyclotomic_order)
        for arg, _ in f.egraph:
            z = rng.randint(-3, 3)
            if z:
                out = out + coerce(z, f.cyclotomic_order) * arg
        return out
    return combo(), combo()


def _value_atom(arg_text: str, value: FieldElem) -> str:
    """Equation text asserting E(arg) = value, clearing the denominator."""
    num, den = value.num, value.den
    if str(den) == "1":
        return f"E({arg_text}) = {num}"
    return f"({den})*E({arg_text}) = {num}"


def planted_system(rng: random.Random):
    """(presentation, system_text, planted values) with a guaranteed
    exponential solution realizable without root extraction.

    E-atom arguments are unitriangular over dedicated exponentiated
    variables (each argument leads with a new variable, coefficient 1), so
    the reduction matrix is integral; affine atoms only touch variables
    that never occur under E.
    """
    k = rng.randint(1, 2)  # exponentiated variables
    m = rng.randint(0, 3 - k)  # affine-only variables
    evars = [f"x{i+1}" for i in range(k)]
    wvars = [f"w{i+1}" for i in range(m)]
    f = presentation("P", transcendentals=("a1", "a2", "a3"))
    f = extend_graph(f, [(S("a1"), S("a2")), (S("a2"), S("a3"))])
    values = {}
    for i, nm in enumerate(evars):
        if i == 0:
            values[nm] = S("a1")
        else:
            values[nm] = (coerce(rng.randint(-2, 2)) * S("a1")
                          + coerce(rng.randint(-2, 2)))
    for i, nm in enumerate(wvars):
        values[nm] = coerce(nonzero_fraction(rng)) \
            + coerce(rng.randint(0, 1)) * S("a3")
    atoms = []
    n_atoms = rng.randint(1, 3)
    used_lead = set()
    for j in range(n_atoms):
        kind = 0.0 if j == 0 else rng.random()
        lead_pool = [nm for nm in evars if nm not in used_lead]
        if kind < 0.5 and lead_pool:
            # E(x_i + sum z_j x_j for j < i) = value
            lead = lead_pool[0]
            used_lead.add(lead)
            idx = evars.index(lead)
            arg_elem = values[lead]
            arg_text = [lead]
            for nm in evars[:idx]:
                z = rng.randint(-2, 2)
                if z:
                    arg_elem = arg_elem + coerce(z) * values[nm]
                    arg_text.append(f"{z}*{nm}")
            ev = e_eval(f, arg_elem)
            if not ev.is_value:
                if not ev.outside_span:
                    continue  # would need a root: skip the atom entirely
                gname = f"g{len(f.transcendentals)}"
                f = extend_graph(adjoin_transcendentals(f, [gname]),
                                 [(arg_elem, S(gname))])
                ev = e_eval(f, arg_elem)
            atoms.append(_value_atom(" + ".join(arg_text), ev.value))
            continue
        if kind < 0.65 and "x1" not in used_lead:
            # nested: E(E(x1)) rides the planted chain a1 -> a2 -> a3
            used_lead.add("x1")
            atoms.append(_value_atom("E(x1)", S("a3")))
            continue
        # affine equation among the never-exponentiated variables
        total = FieldElem.zero()
        parts = []
        for nm in wvars:
            q = rng.randint(-2, 2)
            if q:
                total = total + coerce(q) * values[nm]
                parts.append(f"{q}*{nm}")
        if not parts:
            if not wvars:
                # pin an exponentiated variable to its (polynomial) value;
                # a constant coordinate keeps the reduction integral
                nm = evars[0]
                atoms.append(f"{nm} = {values[nm].num}")
                continue
            parts = [wvars[0]]
            total = values[wvars[0]]
        num, den = total.num, total.den
        lhs = " + ".join(parts)
        if str(den) == "1":
            atoms.append(f"{lhs} = {num}")
        else:
            atoms.append(f"({den})*({lhs}) = {num}")
    text = " & ".join(atoms)
    return f, text, values


def rand_pminus_system(rng: random.Random, n: int):
    """Independent P^-(n) system: per-subset fresh generators and pairs."""
    from expofield.amalg import IndepSystem
    subsets = [frozenset(s) for s in sorted(
        ({i for i in range(n) if m >> i & 1} for m in range(2 ** n - 1)),
        key=lambda s: (len(s), sorted(s)))]
    gens = {}
    for t in subsets:
        if t:
            label = "".join(str(i) for i in sorted(t))
            if rng.random() < 0.8:
                gens[t] = (f"g{label}", rng.choice(
                    [None, coerce(rng.randint(2, 9))]))
    nodes = {}
    shared_pair = rng.random() < 0.5
    for s in subsets:
        label = "".join(str(i) for i in sorted(s))
        trans = ["tau"] if shared_pair else []
        pairs = [(FieldElem.one(), S("tau"))] if shared_pair else []
        for t in subsets:
            if t and t <= s and t in gens:
                gname, val = gens[t]
                trans.append(gname)
                if val is None:
                    trans.append(f"h{gname}")
                    pairs.append((S(gname), S(f"h{gname}")))
                else:
                    pairs.append((S(gname), val))
        nodes[s] = presentation(f"F{label}", 1, tuple(trans), tuple(pairs))
    return IndepSystem(n=n, nodes=nodes)


def conflicting_system(rng: random.Random):
    """P^-(3) system whose nodes {0,1} and {0,2} give the fresh argument zz
    different values, so completion must fail."""
    from expofield.amalg import IndepSystem
    nodes = dict(rand_pminus_system(rng, 3).nodes)
    zval1, zval2 = rng.randint(2, 5), rng.randint(6, 9)
    for a, which in ((frozenset({0, 1}), zval1), (frozenset({0, 2}), zval2)):
        f = adjoin_transcendentals(nodes[a], ["zz"])
        nodes[a] = extend_graph(f, [(S("zz"), coerce(which))])
    return IndepSystem(n=3, nodes=nodes)


def reused_transcendental_system():
    """P^-(3) system in which sibling nodes reuse one fresh transcendental
    gg, so it is not independent."""
    from expofield.amalg import IndepSystem
    one = FieldElem.one()
    reuse = presentation("FX", 1, ("tau", "gg"), ((one, S("tau")),))
    base = presentation("F", 1, ("tau",), ((one, S("tau")),))
    nodes = {frozenset(x): reuse for x in ({0}, {1}, {0, 1}, {0, 2}, {1, 2})}
    nodes[frozenset()] = base
    nodes[frozenset({2})] = base
    return IndepSystem(n=3, nodes=nodes)


def shared_sibling_system(rng: random.Random, n: int):
    """Random P^-(n) system in which every node above {i} or {j} gains one
    shared fresh transcendental gg, so the pair ({i}, {i,j}) fails."""
    from expofield.amalg import IndepSystem
    s = rand_pminus_system(rng, n)
    i, j = rng.sample(range(n), 2)
    nodes = {a: adjoin_transcendentals(f, ["gg"]) if (i in a or j in a) else f
             for a, f in s.nodes.items()}
    return IndepSystem(n=n, nodes=nodes)


# -- integer kernels ---------------------------------------------------------

kernel_entries = st.one_of(st.just(0), st.integers(-4, 4),
                           st.fractions(-4, 4, max_denominator=4))


@st.composite
def peelable_matrices(draw):
    """int and Fraction matrices up to 8x8, biased to zero columns and to
    rows with one nonzero entry."""
    ncols = draw(st.integers(0, 8))
    zero_cols = draw(st.sets(st.integers(0, 7), max_size=4))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        row = [0 if j in zero_cols else draw(kernel_entries)
               for j in range(ncols)]
        if ncols and draw(st.booleans()):
            keep = draw(st.integers(0, ncols - 1))
            row = [x if j == keep else 0 for j, x in enumerate(row)]
        rows.append(row)
    return rows


CASCADE = [[1, 1, 0, 0], [0, 2, Fraction(1, 2), 0], [0, 0, 3, 0]]
