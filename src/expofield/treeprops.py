"""Finite witnesses for the combinatorial dividing lines.

The built-in witness pair is phi(x, yz) := E(y*x) = z with
psi(y1z1, y2z2) := y1 = y2 & z1 != z2.  Arrays built on Q-linearly
independent multipliers b_i and distinct nonzero constants c_j realize
every branch through an additively free variety; candidate trees for the
strong order property are falsified by the same finite checks.

``check_branch`` decides condition (i) for a branch given as parameters,
through the flat-system pipeline.  ``tp2_witness`` realizes its own
branch by ``efield.solve`` on ``branch_variety`` instead, a second route
kept on purpose: its certificate's first branch point lists the point in
that variety's coordinate order, and the benchmark's cli-mix workload
reads sigma off its ``y[1:]``.  Tests: ``test_treeprops`` and acceptance
criterion 7.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

from .errors import (CyclotomicOrderMismatch, DomainError, NotTranscendental,
                     SchemaError, UnsupportedShape, ZeroValue)
from .efield import (EFieldPresentation, SolveResult, adjoin_transcendentals,
                     e_eval, eval_system, extend_graph, presentation, solve)
from .exprlang import (Atom, BinOp, ESystem, ETerm, Exp, Lit, Var,
                       fresh_name, parse, print_system, flatten)
from .fieldelem import FieldElem, coerce, cyclotomic_root, lone_symbol
from .linalg import span_matrix
from .variety import ParametricVariety, from_flat

PHI_TEXT = "E(y*x) = z"
PSI_TEXT = "y1 = y2 & z1 != z2"


@dataclass(frozen=True)
class TP2Witness:
    n: int
    J: int
    base: EFieldPresentation
    b: tuple  # n multipliers, Q-linearly independent together with 1
    c: tuple  # J distinct nonzero values
    phi: ESystem
    psi: ESystem

    def param(self, i: int, j: int) -> tuple:
        """The array entry a[i][j] = (b_i, c_j); indices start at 1."""
        return (self.b[i - 1], self.c[j - 1])


@dataclass(frozen=True)
class SOP1Candidate:
    depth: int
    tree: dict  # binary string (len < depth) -> (y, z) parameter pair
    base: EFieldPresentation
    phi: ESystem
    psi: ESystem

    def __post_init__(self):
        if self.depth < 0:
            raise UnsupportedShape(f"negative tree depth {self.depth}")
        for level in range(self.depth):
            for bits in product("01", repeat=level):
                node = "".join(bits)
                if node not in self.tree:
                    raise UnsupportedShape(f"tree is missing node {node!r}")


@dataclass(frozen=True)
class BranchResult:
    branch: tuple
    consistent: bool
    detail: str
    solution: SolveResult | None = None


@dataclass(frozen=True)
class VerifyReport:
    condition_i: tuple  # BranchResult per checked branch
    condition_ii: str  # "structural" | "unverified"
    condition_iii: tuple  # ((indices, verdict), ...)

    @property
    def ok(self) -> bool:
        return (all(r.consistent for r in self.condition_i)
                and all(v for _, v in self.condition_iii))


def _is_builtin_pair(phi: ESystem, psi: ESystem) -> bool:
    return (print_system(phi) == print_system(parse(PHI_TEXT))
            and print_system(psi) == print_system(parse(PSI_TEXT)))


def _psi_holds(psi: ESystem, f: EFieldPresentation, left, right) -> bool:
    y1, z1 = left
    y2, z2 = right
    return eval_system(f, psi, {"y1": y1, "z1": z1, "y2": y2, "z2": z2})


def _branch_system(params) -> ESystem:
    """Conjunction of phi(x, y_i z_i) instances over one shared x."""
    return ESystem(tuple(
        Atom(Exp(BinOp("*", _param_node(y, "multipliers"), Var("x"))),
             "eq", _param_node(z, "values"))
        for y, z in params))


def _param_node(e: FieldElem, what: str) -> ETerm:
    """The term of a witness parameter: a literal for a rational, a Var for
    a lone symbol; any other element is refused."""
    if e.is_rational():
        return Lit(e.as_fraction())
    sym = lone_symbol(e)
    if sym is not None:
        return Var(name=sym)
    raise UnsupportedShape(f"witness {what} must be symbols or rationals")


def check_branch(f: EFieldPresentation, params) -> BranchResult:
    """Condition (i) for one branch: realize the conjunction through the
    flat-system -> variety -> solve pipeline; ``solve`` reduces a variety
    that is not additively free, and raises a DomainError on a conflict."""
    system = _branch_system(params)
    fs = flatten(system)
    try:
        res = from_flat(fs, base_params=f.transcendentals,
                        cyclotomic_order=f.cyclotomic_order)
        sol = solve(f, res.variety)
    except DomainError as exc:
        return BranchResult(tuple(params), False, str(exc))
    # confirm by evaluating the original system at the solved point
    assign = point_assignment(res, sol)
    if not eval_system(sol.presentation, system, assign):
        return BranchResult(tuple(params), False,
                            "solution does not satisfy the system")
    return BranchResult(tuple(params), True, "realized", solution=sol)


def point_assignment(res, sol) -> dict:
    """Values for every original unknown at a solved point (coordinates from
    the point itself, parameter-only unknowns through the affine solution)."""
    assign = dict(zip(res.coordinates, sol.point_x))
    for unk, expr in res.assignments.items():
        if unk not in assign:
            assign[unk] = expr.subs(sol.param_values)
    return assign


def branch_variety(w: "TP2Witness", sigma) -> ParametricVariety:
    """The array variety for one branch: a shared coordinate x_0 with free
    exponential and the rows x_i = b_i * x_0 pinned to column values."""
    u = FieldElem.from_symbol("_p1", w.base.cyclotomic_order)
    xs = [u] + [bi * u for bi in w.b]
    ys = [FieldElem.from_symbol("_q1", w.base.cyclotomic_order)]
    ys += [w.c[sigma[i] - 1] for i in range(w.n)]
    return ParametricVariety(
        base_params=tuple(sorted(set(w.base.transcendentals))),
        locus_params=("_p1", "_q1"),
        X=tuple(xs), Y=tuple(ys),
        free_Y=(True,) + (False,) * w.n,
        cyclotomic_order=w.base.cyclotomic_order,
    )


def tp2_witness(n: int, J: int, sigma):
    """Build the n x J array witness and verify it along one branch.

    sigma maps 1..n to 1..J; fresh transcendentals b_1..b_n are the
    multipliers and c_j = j.  The branch is realized on the variety
    {x_i = b_i x_0, y_i = c_sigma(i)} with y_0 free: it is additively free
    because 1, b_1..b_n are Q-linearly independent, so ``solve`` realizes
    it, and a failure there is a bug, raised rather than reported.
    """
    if n < 1 or J < 1:
        raise UnsupportedShape("need n, J >= 1")
    sigma = tuple(sigma)
    if len(sigma) != n or any(not 1 <= s <= J for s in sigma):
        raise UnsupportedShape("sigma must map 1..n into 1..J")
    base = presentation("A", transcendentals=tuple(f"b{i}" for i in range(1, n + 1)))
    b = tuple(base.elem(f"b{i}") for i in range(1, n + 1))
    c = tuple(FieldElem.from_int(j) for j in range(1, J + 1))
    witness = TP2Witness(n=n, J=J, base=base, b=b, c=c,
                         phi=parse(PHI_TEXT), psi=parse(PSI_TEXT))
    assert len(span_matrix([FieldElem.one()] + list(b))) == n + 1, \
        "1, b_1..b_n must be Q-linearly independent"

    report = verify_finite_witness(witness, branches=[])
    sol = solve(base, branch_variety(witness, sigma))
    x0 = sol.point_x[0]
    ok = all(e_eval(sol.presentation, b[i] * x0).value == c[sigma[i] - 1]
             for i in range(n))
    branch = BranchResult(sigma, ok, "realized" if ok else "evaluation mismatch",
                          solution=sol)
    return witness, replace(report, condition_i=(branch,))


def verify_finite_witness(cand, branches=()) -> VerifyReport:
    """Check the three defining conditions at finite depth.

    (iii) runs exhaustively over the array or tree; (ii) is certified
    structurally for the built-in formula pair only; (i) runs the full
    realization pipeline per supplied branch.  An SOP1 branch is a 0/1
    string (or sequence) of the candidate's depth, or ``branches`` is
    ``"all"``; any other branch raises SchemaError at ``branches``.
    """
    if isinstance(cand, TP2Witness):
        return _verify_tp2(cand, branches)
    if isinstance(cand, SOP1Candidate):
        return _verify_sop1(cand, branches)
    raise UnsupportedShape(f"cannot verify {type(cand).__name__}")


def _verify_tp2(w: TP2Witness, branches) -> VerifyReport:
    cond_iii = []
    for i in range(1, w.n + 1):
        for j in range(1, w.J + 1):
            for k in range(1, w.J + 1):
                if j == k:
                    continue
                ok = _psi_holds(w.psi, w.base, w.param(i, j), w.param(i, k))
                cond_iii.append(((i, j, k), ok))
    labelled = []
    for sigma in branches:
        sigma = tuple(sigma)
        labelled.append((sigma, [w.param(i, sigma[i - 1])
                                 for i in range(1, w.n + 1)]))
    return _report(w, labelled, cond_iii)


def _verify_sop1(cand: SOP1Candidate, branches) -> VerifyReport:
    if branches == "all":
        branches = product("01", repeat=cand.depth)
    branches = ["".join(str(x) for x in sigma) for sigma in branches]
    for sigma in branches:
        if len(sigma) != cand.depth or sigma.strip("01"):
            raise SchemaError("branches", "not a 0/1 string of length "
                              f"{cand.depth}: {sigma!r}")
    cond_iii = []
    nodes = sorted(cand.tree, key=lambda s: (len(s), s))
    for eta in nodes:
        left = eta + "1"
        if left not in cand.tree:
            continue
        for nu in nodes:
            if nu.startswith(eta + "0"):
                ok = _psi_holds(cand.psi, cand.base, cand.tree[left],
                                cand.tree[nu])
                cond_iii.append(((left, nu), ok))
    labelled = [((sigma,), [cand.tree[sigma[:k]] for k in range(cand.depth)])
                for sigma in branches]
    return _report(cand, labelled, cond_iii)


def _report(cand, labelled, cond_iii) -> VerifyReport:
    """The report of a TP2 witness or SOP1 candidate: condition (i) runs
    ``check_branch`` on each (label, params) branch (no params: vacuously
    consistent)."""
    cond_i = []
    for label, params in labelled:
        if not params:
            cond_i.append(BranchResult(label, True, "vacuous"))
        else:
            cond_i.append(replace(check_branch(cand.base, params),
                                  branch=label))
    pair = _is_builtin_pair(cand.phi, cand.psi)
    return VerifyReport(condition_i=tuple(cond_i),
                        condition_ii="structural" if pair else "unverified",
                        condition_iii=tuple(cond_iii))


# -- definability witnesses -----------------------------------------------------


@dataclass(frozen=True)
class StabilizerWitness:
    mode: str  # "rational" | "transcendental"
    presentation: EFieldPresentation
    argument: FieldElem  # b (rational mode) or a (transcendental mode)
    checks: dict


def z_stabilizer_witness(f: EFieldPresentation, c, d=None):
    """Witness that a non-integer c fails to stabilize the kernel of E.

    Rational c = n/m (m > 1): adjoin b with E(b) a primitive m-th root of
    unity, so E(mb) = 1 while E(nb) != 1.  Non-constant c: realize the
    variety {c*x1 = x2, y1 = 1, y2 = d}, giving E(a) = 1, E(ca) = d != 1
    (d defaults to 2).  Integer c is refused: no witness exists.
    """
    c = coerce(c, f.cyclotomic_order)
    if c.is_rational():
        q = c.as_fraction()
        if q.denominator == 1:
            raise NotTranscendental(
                f"c = {q} is an integer: it stabilizes the kernel, no witness exists")
        n, m = q.numerator, q.denominator
        if f.cyclotomic_order % m != 0:
            raise CyclotomicOrderMismatch(
                f"need a cyclotomic order divisible by {m}, have "
                f"{f.cyclotomic_order}")
        zeta_m = cyclotomic_root(f.cyclotomic_order,
                                 f.cyclotomic_order // m)
        bname = fresh_name("_z", set(f.transcendentals))
        b = FieldElem.from_symbol(bname, f.cyclotomic_order)
        # zeta_m is constant, so extend_graph declares bname itself
        ext = extend_graph(f, [(b, zeta_m)])
        em = e_eval(ext, coerce(m, ext.cyclotomic_order) * b).value
        en = e_eval(ext, coerce(n, ext.cyclotomic_order) * b).value
        checks = {"E(m*b) = 1": em.is_one(), "E(n*b) != 1": not en.is_one()}
        assert all(checks.values()), checks
        return StabilizerWitness("rational", ext, b, checks)
    return _transcendental_witness(f, c, d)


def _transcendental_witness(f, c, d=None):
    if c.is_constant():
        raise NotTranscendental(f"c = {c} is constant over Q(zeta)")
    order = f.cyclotomic_order
    if d is None:
        d = FieldElem.from_int(2, order)
    d = coerce(d, order)
    if d.is_zero() or d.is_one():
        raise UnsupportedShape("need d distinct from 0 and 1")
    base = set(f.transcendentals) | c.symbols() | d.symbols()
    p = fresh_name("_p", set(base))
    u = FieldElem.from_symbol(p, order)
    v = ParametricVariety(
        base_params=tuple(sorted(base)),
        locus_params=(p,),
        X=(u, c * u),
        Y=(FieldElem.one(order), d),
        free_Y=(False, False),
        cyclotomic_order=order,
    )
    sol = solve(f, v)
    a = sol.point_x[0]
    checks = {
        "E(a) = 1": e_eval(sol.presentation, a).value.is_one(),
        "E(c*a) = d": e_eval(sol.presentation, c * a).value == d,
        "d != 1": not d.is_one(),
    }
    assert all(checks.values()), checks
    return StabilizerWitness("transcendental", sol.presentation, a, checks)


# -- type-counting families -------------------------------------------------------


@dataclass(frozen=True)
class TypeFamily:
    presentations: tuple
    certificates: tuple  # ((i, j, n | None), ...) least disagreeing exponent


def type_family(f: EFieldPresentation, assignments) -> TypeFamily:
    """One presentation per assignment n -> value, all over a shared fresh
    transcendental x with E(x^n) = value; pairwise distinction certificates
    name the least exponent where two assignments disagree."""
    order = f.cyclotomic_order
    xname = fresh_name("_x", set(f.transcendentals))
    x = FieldElem.from_symbol(xname, order)
    outs = []
    norm = []
    for idx, asg in enumerate(assignments):
        asg = {int(n): coerce(v, order) for n, v in asg.items()}
        for n, v in asg.items():
            if n < 1:
                raise UnsupportedShape("exponents must be positive")
            if v.is_zero():
                raise ZeroValue(f"assignment {idx} maps {n} to zero")
        norm.append(asg)
        pairs = [(x ** n, asg[n]) for n in sorted(asg)]
        ext = extend_graph(adjoin_transcendentals(f, [xname]), pairs)
        outs.append(replace(ext, name=f"{f.name}_type{idx}"))
    certs = []
    for i in range(len(norm)):
        for j in range(i + 1, len(norm)):
            common = sorted(set(norm[i]) & set(norm[j]))
            least = next((n for n in common if norm[i][n] != norm[j][n]), None)
            certs.append((i, j, least))
    return TypeFamily(presentations=tuple(outs), certificates=tuple(certs))
