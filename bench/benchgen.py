"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` and builds inputs whose expected
answers are known by construction.  Shapes (node counts, pair counts,
value kinds) are fixed and only their placement and values are drawn, so
the work per seed stays comparable while a different seed still gives
different inputs.  These builders are independent of ``tests/gen.py``.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from expofield import (FieldElem, IndepSystem, ParametricVariety, coerce,
                       extend_graph, presentation)
from expofield.efield import adjoin_transcendentals

S = FieldElem.from_symbol
ONE = FieldElem.one()


def proper_subsets(n: int) -> list:
    """Proper subsets of {0..n-1}, ordered by size then members."""
    subs = [frozenset(i for i in range(n) if mask >> i & 1)
            for mask in range(2 ** n - 1)]
    return sorted(subs, key=lambda s: (len(s), sorted(s)))


def _label(s) -> str:
    return "".join(str(i) for i in sorted(s))


def pminus_system(rng, n: int, shared_pair: bool) -> IndepSystem:
    """Independent P^-(n) system.

    At each subset size, all but one of the nonempty subsets get a fresh
    generator; half of those (rounded up) carry a fresh transcendental
    value, the rest an integer value.  With ``shared_pair`` every node also
    holds E(1) = tau.
    """
    subsets = proper_subsets(n)
    gens = {}
    for size in range(1, n):
        level = [s for s in subsets if len(s) == size]
        chosen = rng.sample(level, len(level) - 1)
        transcendental = [i % 2 == 0 for i in range(len(chosen))]
        rng.shuffle(transcendental)
        for s, trans_val in zip(chosen, transcendental):
            gens[s] = (f"g{_label(s)}",
                       None if trans_val else rng.randint(2, 9))
    nodes = {}
    for s in subsets:
        trans = ["tau"] if shared_pair else []
        pairs = [(ONE, S("tau"))] if shared_pair else []
        for t in subsets:
            if t in gens and t <= s:
                name, val = gens[t]
                trans.append(name)
                if val is None:
                    trans.append(f"h{name}")
                    pairs.append((S(name), S(f"h{name}")))
                else:
                    pairs.append((S(name), coerce(val)))
        nodes[s] = presentation(f"F{_label(s)}", 1, tuple(trans), tuple(pairs))
    return IndepSystem(n=n, nodes=nodes)


def conflicting_system(rng, n: int, shared_pair: bool) -> IndepSystem:
    """Two codimension-1 nodes give one fresh argument different values,
    so completion must fail with a well-definedness certificate."""
    s = pminus_system(rng, n, shared_pair)
    nodes = dict(s.nodes)
    full = frozenset(range(n))
    i, j = rng.sample(range(n), 2)
    for node, val in ((full - {i}, rng.randint(2, 5)),
                      (full - {j}, rng.randint(6, 9))):
        f = adjoin_transcendentals(nodes[node], ["zz"])
        nodes[node] = extend_graph(f, [(S("zz"), coerce(val))])
    return IndepSystem(n=n, nodes=nodes)


def reused_system(rng, n: int, shared_pair: bool):
    """Sibling nodes {i} and {j} share one fresh transcendental, so the
    independence check must fail at ({i}, {i,j}).

    Returns (system, the failure pair as subset labels).
    """
    s = pminus_system(rng, n, shared_pair)
    i, j = sorted(rng.sample(range(n), 2))
    nodes = {a: adjoin_transcendentals(f, ["gg"]) if (i in a or j in a) else f
             for a, f in s.nodes.items()}
    return IndepSystem(n=n, nodes=nodes), (f"{{{i}}}", f"{{{i},{j}}}")


def _fraction(rng) -> Fraction:
    return Fraction(rng.choice([1, 2, 3, 4, 5, -1, -2, -3]), rng.randint(1, 3))


def _poly_value(rng, syms) -> FieldElem:
    """A two-term polynomial value c0 + c1*s*s' over the given symbols."""
    return (coerce(_fraction(rng))
            + coerce(_fraction(rng)) * S(rng.choice(syms)) * S(rng.choice(syms)))


def extended_presentation(rng):
    """extend_graph: three pairs anchored on their own transcendentals."""
    trans = ("t1", "t2", "t3", "t4")
    shapes = ["plain", "scaled", "sum"]
    values = ["poly", "poly", "int"]
    rng.shuffle(shapes)
    rng.shuffle(values)
    pairs = []
    for i, (shape, kind) in enumerate(zip(shapes, values)):
        arg = S(trans[i])
        if shape == "scaled":
            arg = arg * rng.randint(2, 3)
        elif shape == "sum":
            arg = arg + rng.randint(1, 2) * S(trans[i + 1])
        val = _poly_value(rng, trans) if kind == "poly" \
            else coerce(rng.randint(2, 9))
        pairs.append((arg, val))
    return extend_graph(presentation("X", transcendentals=trans), pairs)


def planted_variety(rng) -> ParametricVariety:
    """Not additively free: X2 = a*X1 + b, every Y free; a third coordinate
    carries the base transcendental t1."""
    p1, p2 = S("_p1"), S("_p2")
    a, b = rng.randint(2, 3), rng.randint(1, 5)
    third = p2 ** rng.randint(1, 2) + rng.randint(1, 3) * S("t1")
    return ParametricVariety(
        base_params=("t1",),
        locus_params=("_p1", "_p2", "_q1", "_q2", "_q3"),
        X=(p1, a * p1 + b, third),
        Y=(S("_q1"), S("_q2"), S("_q3")),
        free_Y=(True, True, True))


def solved_presentation(rng):
    """solve: realize an exponential point of a planted variety."""
    from expofield import solve
    base = extend_graph(presentation("Q", transcendentals=("t1",)),
                        [(S("t1"), coerce(rng.randint(2, 7)))])
    return solve(base, planted_variety(rng)).presentation


def extension(rng, base, name: str):
    """Two fresh transcendentals over ``base`` with one pair each."""
    fresh = [f"{name.lower()}1", f"{name.lower()}2"]
    ext = adjoin_transcendentals(base, fresh)
    pairs = []
    for s in fresh:
        arg = S(s) + rng.randint(0, 2) * S(rng.choice(base.transcendentals))
        val = S(rng.choice(ext.transcendentals)) if rng.random() < 0.5 \
            else coerce(rng.randint(2, 7))
        pairs.append((arg, val))
    return replace(extend_graph(ext, pairs), name=name)


def amalgam_base(rng):
    return presentation("B", 1, ("tau", "t1"),
                        ((ONE, S("tau")), (S("t1"), coerce(rng.randint(2, 5)))))


def amalgamated_presentation(rng):
    """amalgamate2: free composite of two extensions of a shared base."""
    from expofield import amalgamate2
    base = amalgam_base(rng)
    return amalgamate2(base, extension(rng, base, "L"),
                       extension(rng, base, "R")).composite


def completed_presentation(rng, shared_pair: bool):
    """complete_system(verify=False): top node of a completed P(3) system."""
    from expofield import complete_system
    s = pminus_system(rng, 3, shared_pair)
    return complete_system(s, verify=False).system.node(range(3))


def zspan_coefficients(rng, k: int) -> list:
    return [rng.randint(-3, 3) for _ in range(k)]


def zspan_element(f, z) -> FieldElem:
    out = FieldElem.zero(f.cyclotomic_order)
    for zi, (arg, _) in zip(z, f.egraph):
        if zi:
            out = out + coerce(zi, f.cyclotomic_order) * arg
    return out


def planted_value(f, z) -> FieldElem:
    """prod v_i^{z_i}: the value the homomorphism law forces on sum z_i a_i."""
    out = FieldElem.one(f.cyclotomic_order)
    for zi, (_, val) in zip(z, f.egraph):
        if zi:
            out = out * val ** zi
    return out
