"""The three benchmark workloads: operations, inputs and reference checks.

Each workload is a closed loop with one client: the runner sends the next
operation only after the previous one returned.  ``build(name, seed,
workdir)`` returns a ``Workload`` whose ``ops`` form one pass; the runner
repeats whole passes.  Every op has a check against an answer known by
construction, run outside the timed region.

- ``amalg-n``: verify and complete independent P^-(n) systems (n = 3, 4)
  and reject two kinds of adversarial systems.  Exercises the rank/hull
  path: indep -> hull + jacobian_rank/ff_rank -> mpoly.
- ``homlaw``: homomorphism-law checks E(a), E(b), E(a+b) on presentations
  built by the four constructors.  Read-heavy e_eval -> coordinate_matrix /
  qlin_solve and FieldElem normalization; no rank computations.
- ``cli-mix``: in-process ``expofield.cli.main`` over all 14 subcommands on
  freshly parsed input files, including malformed inputs (exit 1) and
  domain rejections (exit 2).  The only workload that reaches exprlang,
  serialize, variety, treeprops and argparse.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable

import benchgen as gen
from expofield import FieldElem, coerce
from expofield import amalg, cli, efield, serialize
from expofield.errors import WellDefFailure
from expofield.exprlang import parse_element

S = FieldElem.from_symbol


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    # (result, escaped exception) -> failure reason, or None when correct
    check: Callable[[object, BaseException | None], str | None]
    # a listed library defect this op is known to hit
    known_defect: str | None = None


@dataclass
class Workload:
    ops: list
    warm: list  # ops run untimed after set-up
    output: Callable[[object], bytes] | None = None  # bytes for the digest
    workdir: str | None = None

    def close(self) -> None:
        if self.workdir:
            shutil.rmtree(self.workdir, ignore_errors=True)


def build(name: str, seed: int, workdir: str) -> Workload:
    if name == "amalg-n":
        return build_amalg(seed)
    if name == "homlaw":
        return build_homlaw(seed)
    if name == "cli-mix":
        return build_cli_mix(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


def _no_exception(exc) -> str | None:
    if exc is not None:
        return f"escaped {type(exc).__name__}: {exc}"
    return None


# -- amalg-n ------------------------------------------------------------------


def _det(rows) -> Fraction:
    m = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for c in range(len(m)):
        p = next((i for i in range(c, len(m)) if m[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def _codim1_pairs(s) -> list:
    full = frozenset(range(s.n))
    pairs = []
    for i in range(s.n):
        pairs.extend(s.nodes[full - {i}].egraph)
    return pairs


def _check_completion(s):
    """The top node must be the free composite of the codimension-1 nodes:
    its graph a Z-basis of the planted generator lattice with the planted
    values, and one true kernel verdict per duplicated pair."""
    pairs = _codim1_pairs(s)
    distinct = []
    for arg, val in pairs:
        if not any(arg == a for a, _ in distinct):
            distinct.append((arg, val))
    gens = [a for a, _ in distinct]
    symbols = [next(iter(a.symbols())) if a.symbols() else None for a in gens]
    full = frozenset(range(s.n))
    trans = []
    for i in range(s.n):
        for t in s.nodes[full - {i}].transcendentals:
            if t not in trans:
                trans.append(t)

    def check(result, exc):
        reason = _no_exception(exc)
        if reason:
            return reason
        top = result.system.node(range(s.n))
        if list(top.transcendentals) != trans:
            return "top node transcendentals differ from the union"
        if len(result.check.kernel_basis) != len(pairs) - len(distinct):
            return "wrong number of kernel relations"
        if not all(result.check.verdicts):
            return "a kernel verdict is false"
        if len(top.egraph) != len(distinct):
            return "top graph is not a basis of the argument lattice"
        rows = []
        for arg, val in top.egraph:
            z = []
            rest = arg
            for g, sym in zip(gens, symbols):
                if sym is None:
                    continue
                c = arg.derivative(sym).as_fraction()
                z.append(c)
                rest = rest - coerce(c) * g
            if not rest.is_rational():
                return f"top argument {arg} leaves the generator span"
            z_full = [rest.as_fraction() if sym is None else z.pop(0)
                      for sym in symbols]
            if any(q.denominator != 1 for q in z_full):
                return f"top argument {arg} is not an integer combination"
            want = FieldElem.one()
            for q, (_, v) in zip(z_full, distinct):
                if q:
                    want = want * v ** int(q)
            if want != val:
                return f"E({arg}) should be {want}, top graph says {val}"
            rows.append(z_full)
        if abs(_det(rows)) != 1:
            return "top arguments do not form a Z-basis"
        return None

    return check


def _check_verdict(ok: bool, failure=None):
    def check(result, exc):
        reason = _no_exception(exc)
        if reason:
            return reason
        if result.ok != ok:
            return f"independence verdict {result.ok}, expected {ok}"
        if failure is not None and failure not in result.failures:
            return f"failure {failure} not reported"
        return None

    return check


def _check_conflict(s):
    pairs = _codim1_pairs(s)

    def check(result, exc):
        if not isinstance(exc, WellDefFailure):
            return f"expected WellDefFailure, got {exc!r} / {result!r}"
        z = exc.vector
        if len(z) != len(pairs) or not any(z):
            return "certificate vector has the wrong shape"
        total = FieldElem.zero()
        prod = FieldElem.one()
        for zi, (arg, val) in zip(z, pairs):
            if zi:
                total = total + coerce(zi) * arg
                prod = prod * val ** zi
        if not total.is_zero():
            return "certificate vector is not an argument relation"
        if prod.is_one() or prod != exc.product:
            return "certificate product does not re-verify"
        return None

    return check


def build_amalg(seed: int) -> Workload:
    """Independent systems at n = 3 (12) and n = 4 (8), each verified and
    completed, plus 2 conflicting and 2 reused-transcendental systems; half
    of each kind share E(1) = tau across the diagram."""
    rng = random.Random(seed)
    ops = []
    for n, count in ((3, 12), (4, 8)):
        for k in range(count):
            s = gen.pminus_system(rng, n, shared_pair=k % 2 == 0)
            ops.append(Op(f"verify-n{n}",
                          lambda s=s: amalg.verify_independent_system(s),
                          _check_verdict(True)))
            ops.append(Op(f"complete-n{n}",
                          lambda s=s: amalg.complete_system(s),
                          _check_completion(s)))
    for shared in (False, True):
        s = gen.conflicting_system(rng, 3, shared)
        ops.append(Op("reject-conflict", lambda s=s: amalg.complete_system(s),
                      _check_conflict(s)))
        s, failure = gen.reused_system(rng, 3, shared)
        ops.append(Op("reject-reuse",
                      lambda s=s: amalg.verify_independent_system(s),
                      _check_verdict(False, failure)))
    rng.shuffle(ops)
    warm = [op for op in ops if op.label.endswith("n3")][:2]
    return Workload(ops, warm)


# -- homlaw --------------------------------------------------------------------


def build_homlaw(seed: int) -> Workload:
    """4 presentations per constructor, 6 law checks on each."""
    rng = random.Random(seed)
    presentations = []
    for k in range(4):
        presentations += [gen.extended_presentation(rng),
                          gen.solved_presentation(rng),
                          gen.amalgamated_presentation(rng),
                          gen.completed_presentation(rng, k % 2 == 0)]
    ops = []
    warm = []
    for f in presentations:
        k = len(f.egraph)
        for i in range(6):
            z = gen.zspan_coefficients(rng, k)
            w = gen.zspan_coefficients(rng, k)
            a, b = gen.zspan_element(f, z), gen.zspan_element(f, w)
            want = (gen.planted_value(f, z), gen.planted_value(f, w),
                    gen.planted_value(f, [x + y for x, y in zip(z, w)]))
            op = Op("law", lambda f=f, a=a, b=b: _law(f, a, b),
                    _check_law(want))
            ops.append(op)
            if i == 0:
                warm.append(op)
    rng.shuffle(ops)
    return Workload(ops, warm)


def _law(f, a, b):
    """One law check: E(a), E(b), E(a+b) and whether E(a+b) = E(a)E(b)."""
    ea, eb = efield.e_eval(f, a).value, efield.e_eval(f, b).value
    eab = efield.e_eval(f, a + b).value
    return ea, eb, eab, None not in (ea, eb, eab) and eab == ea * eb


def _check_law(want):
    def check(result, exc):
        reason = _no_exception(exc)
        if reason:
            return reason
        for got, expected, what in zip(result, want, ("E(a)", "E(b)", "E(a+b)")):
            if got is None or got != expected:
                return f"{what} is {got}, planted value {expected}"
        return None if result[3] else "law reported as violated"

    return check


# -- cli-mix -------------------------------------------------------------------

ZERO_DENOMINATOR = "normalize: a zero-denominator literal escapes as ZeroDivisionError"
UNARY_MINUS = "parser: unary minus binds tighter than ^, so -t^2 loads as t^2"


def _invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _cli_check(code: int, verify=None):
    """Exit code first; exit 1 needs a stderr payload and empty stdout;
    exit 0 and 2 need canonical JSON, which ``verify`` checks further."""
    def check(result, exc):
        reason = _no_exception(exc)
        if reason:
            return reason
        got, out, err = result
        if got != code:
            return f"exit {got}, expected {code}"
        if code == 1:
            if out or not err.strip():
                return "exit 1 must leave stdout empty and explain on stderr"
            return None
        try:
            doc = json.loads(out)
        except ValueError:
            return "stdout is not JSON"
        if out != _canonical(doc):
            return "stdout is not canonical JSON"
        return verify(doc) if verify else None

    return check


class _Files:
    def __init__(self, workdir: str):
        self.dir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.count = 0

    def write(self, stem: str, content) -> str:
        self.count += 1
        path = os.path.join(self.dir, f"{self.count:02d}-{stem}")
        text = content if isinstance(content, str) else _canonical(content)
        with open(path, "w") as fh:
            fh.write(text)
        return path


def _chain(prefix: str, length: int, name="C") -> dict:
    """E(p1) = p2, ..., E(p_{L-1}) = p_L: the hull of p_j is p_j..p_L."""
    syms = [f"{prefix}{i}" for i in range(1, length + 1)]
    return {"name": name, "cyclotomic_order": 1, "transcendentals": syms,
            "egraph": [{"arg": a, "val": v} for a, v in zip(syms, syms[1:])]}


def _normalize_ops(rng) -> list:
    ops = []
    names = ["x", "y", "z", "w"]
    for depth in (2, 3):
        v, u = rng.sample(names, 2)
        text = ("E(" * depth + v + ")" * depth
                + f" = {rng.randint(2, 5)}*{v} + {rng.randint(1, 9)}"
                + f" & {u} != {rng.randint(1, 9)}")

        def verify(doc, depth=depth, v=v):
            if doc["aux_count"] != depth - 1 or doc["xvars"][:1] != [v]:
                return "wrong flattening aliases"
            if len(doc["xvars"]) != depth or len(doc["yvars"]) != depth:
                return "wrong pairing"
            if len(doc["polys"]) != depth + 1 or "_w1" not in " ".join(doc["polys"]):
                return "inequation witness missing"
            return None

        ops.append(Op("normalize", lambda t=text: _invoke(["normalize", "-e", t]),
                      _cli_check(0, verify)))
    v = rng.choice(names)
    ops.append(Op("normalize-malformed",
                  lambda t=f"E({v} = {rng.randint(1, 9)}": _invoke(
                      ["normalize", "-e", t]), _cli_check(1)))
    ops.append(Op("normalize-zero-denominator",
                  lambda t=f"{v} = {rng.randint(1, 9)}/0": _invoke(
                      ["normalize", "-e", t]),
                  _cli_check(1), known_defect=ZERO_DENOMINATOR))
    return ops


def _variety_ops(rng, files) -> list:
    a, b = rng.randint(2, 3), rng.randint(1, 5)
    planted = {"base_params": [], "locus_params": ["_p1", "_q1", "_q2"],
               "X": ["_p1", f"{a}*_p1 + {b}"], "Y": ["_q1", "_q2"],
               "free_Y": [True, True], "cyclotomic_order": 1}
    free = {"base_params": ["t1"],
            "locus_params": ["_p1", "_p2", "_q1", "_q2"],
            "X": [f"{rng.randint(1, 3)}*_p1^{rng.randint(2, 3)} + t1", "_p2"],
            "Y": ["_q1", "_q2"], "free_Y": [True, True], "cyclotomic_order": 1}
    planted_path = files.write("planted.json", planted)
    free_path = files.write("free.json", free)
    chain_path = files.write("chain.json", _chain("t", 3))

    def not_free(doc):
        m = doc["relation"]["m"]
        if len(m) != 2 or not m[1] or m[0] + a * m[1] != 0:
            return f"relation {m} does not cancel the locus parameter"
        if doc["relation"]["a"] != str(m[1] * b):
            return "relation value does not re-verify"
        if not doc["oracle"]["agrees"]:
            return "oracle disagrees"
        return None

    def reduced(doc):
        want = {"A": [["1"], [str(a)]], "b": ["0", str(b)], "N": 1,
                "index_map": [0]}
        if any(doc[k] != v for k, v in want.items()):
            return "reduction differs from the planted relation"
        return None

    def solved(n):
        def verify(doc):
            f = serialize.presentation_from_json(doc["presentation"])
            xs, ys = doc["point"]["x"], doc["point"]["y"]
            if len(xs) != n or len(ys) != n:
                return "point has the wrong arity"
            for x, y in zip(xs, ys):
                ev = efield.e_eval(f, parse_element(x))
                if not ev.is_value or ev.value != parse_element(y):
                    return f"E({x}) does not evaluate to {y}"
            return None
        return verify

    return [
        Op("free-check-free", lambda: _invoke(["free-check", "-f", free_path]),
           _cli_check(0, lambda d: None if d == {"verdict": "free"}
                      else "expected a free verdict")),
        Op("free-check-not-free", lambda: _invoke(
            ["free-check", "-f", planted_path, "--oracle", "3"]),
           _cli_check(2, not_free)),
        Op("reduce", lambda: _invoke(["reduce", "-f", planted_path]),
           _cli_check(0, reduced)),
        Op("solve", lambda: _invoke(["solve", "-f", planted_path]),
           _cli_check(0, solved(2))),
        Op("solve-over", lambda: _invoke(
            ["solve", "-f", free_path, "-F", chain_path]),
           _cli_check(0, solved(2))),
    ]


def _presentation_ops(rng, files) -> list:
    length = 4
    chain_doc = _chain("t", length)
    two = _chain("t", length, name="T")
    two["transcendentals"] += ["s1", "s2"]
    two["egraph"].append({"arg": "s1", "val": "s2"})
    k = rng.randint(2, 5)
    dep = {"name": "D", "cyclotomic_order": 1, "transcendentals": ["t1"],
           "egraph": [{"arg": "t1", "val": "2"}, {"arg": f"{k}*t1", "val": "3"}]}
    chain_path = files.write("chain.json", chain_doc)
    two_path = files.write("two-chains.json", two)
    dep_path = files.write("dependent.json", dep)

    def dependent(doc):
        if doc["ok"] or len(doc["violations"]) != 1:
            return "dependent arguments not reported"
        c = doc["violations"][0].get("certificate", [])
        if len(c) != 2 or not any(c) or c[0] + k * c[1] != 0:
            return f"certificate {c} does not re-verify"
        return None

    ops = [
        Op("efield-check", lambda: _invoke(["efield-check", "-F", chain_path]),
           _cli_check(0, lambda d: None if d == {
               "ok": True, "spot_checks": 10, "violations": []}
               else "valid presentation rejected")),
        Op("efield-check-dependent", lambda: _invoke(
            ["efield-check", "-F", dep_path]), _cli_check(0, dependent)),
    ]
    for j in rng.sample(range(1, length), 2):
        want = [f"t{i}" for i in range(j, length + 1)]
        ops.append(Op("hull", lambda j=j: _invoke(
            ["hull", "-F", chain_path, "-g", f"t{j}"]),
            _cli_check(0, lambda d, want=want: None if d == {
                "closed_under_graph": True, "generators": want}
                else f"hull {d.get('generators')} != {want}")))
    j = rng.randint(1, length - 1)
    for A, B, want in ((f"t{j}", f"s{rng.randint(1, 2)}", True),
                       (f"t{j}", f"t{rng.randint(j + 1, length)}", False)):
        ops.append(Op("indep", lambda A=A, B=B: _invoke(
            ["indep", "-F", two_path, "-A", A, "-B", B, "-C", ""]),
            _cli_check(0, lambda d, want=want: None if d == {
                "independent": want} else f"expected independent={want}")))
    return ops


def _amalg_ops(rng, files) -> list:
    base = gen.amalgam_base(rng)
    f1, f2 = gen.extension(rng, base, "L"), gen.extension(rng, base, "R")
    paths = [files.write(f"{f.name}.json", serialize.presentation_to_json(f))
             for f in (base, f1, f2)]
    trans = list(base.transcendentals) + [
        f"{p}__{s}" for p, f in (("L", f1), ("R", f2))
        for s in f.transcendentals if s not in base.transcendentals]

    def amalgam(doc):
        if doc["presentation"]["transcendentals"] != trans:
            return "composite transcendentals are not the renamed union"
        for key, f, p in (("g1", f1, "L"), ("g2", f2, "R")):
            want = {s: s if s in base.transcendentals else f"{p}__{s}"
                    for s in f.transcendentals}
            if doc[key] != want:
                return f"{key} is not the renaming inclusion"
        if (len(doc["welldef"]["kernel_basis"]) != len(base.egraph)
                or not all(doc["welldef"]["verdicts"])):
            return "shared base pairs must give true kernel verdicts"
        return None

    system = gen.pminus_system(rng, 3, shared_pair=True)
    conflict = gen.conflicting_system(rng, 3, shared_pair=True)
    sys_path = files.write("system.json", serialize.system_to_json(system))
    conflict_path = files.write("conflict.json", serialize.system_to_json(conflict))
    conflict_check = _check_conflict(conflict)

    def completed(doc):
        if len(doc["system"]["nodes"]) != 8 or "{0,1,2}" not in doc["system"]["nodes"]:
            return "completion lacks the top node"
        if not all(doc["welldef"]["verdicts"]):
            return "a kernel verdict is false"
        return None

    def rejected(doc):
        if doc.get("error") != "WellDefFailure":
            return f"expected WellDefFailure, got {doc.get('error')}"
        exc = WellDefFailure(doc["vector"], _product(conflict, doc["vector"]))
        if str(exc.product) != doc["product"]:
            return "certificate product does not re-verify"
        return conflict_check(None, exc)

    return [
        Op("amalg2", lambda: _invoke(
            ["amalg2", "--base", paths[0], "-1", paths[1], "-2", paths[2]]),
           _cli_check(0, amalgam)),
        Op("amalg-n", lambda: _invoke(["amalg-n", "-S", sys_path]),
           _cli_check(0, completed)),
        Op("amalg-n-conflict", lambda: _invoke(["amalg-n", "-S", conflict_path]),
           _cli_check(2, rejected)),
    ]


def _product(s, vector) -> FieldElem:
    prod = FieldElem.one()
    for zi, (_, val) in zip(vector, _codim1_pairs(s)):
        if zi:
            prod = prod * val ** zi
    return prod


def _witness_ops(rng, files) -> list:
    n, J = 2, 3
    sigma = [rng.randint(1, J) for _ in range(n)]

    def tp2(doc):
        if doc["freeness"] != "free" or not doc["condition_iii_ok"]:
            return "array witness not certified"
        if doc["condition_iii_checked"] != n * J * (J - 1):
            return "condition (iii) did not cover the array"
        point = doc["branch_points"][0]
        if not point["consistent"] or point["y"][1:] != [str(s) for s in sigma]:
            return "branch point does not realize sigma"
        return None

    # depth-2 tree: branch consistent unless both nodes share y, differ in z
    tree = {node: (rng.choice(["t", "u"]), rng.randint(1, 3))
            for node in ("", "0", "1")}

    def clash(p, q):
        return p[0] == q[0] and p[1] != q[1]

    consistent = [not clash(tree[""], tree[b[0]]) for b in ("00", "01", "10", "11")]
    holds = clash(tree["1"], tree["0"])
    cand = {"witness_kind": "sop1", "depth": 2,
            "base": {"name": "A", "cyclotomic_order": 1,
                     "transcendentals": ["t", "u"], "egraph": []},
            "tree": {k: [y, str(z)] for k, (y, z) in tree.items()}}
    cand_path = files.write("sop1.json", cand)

    def sop1(doc):
        if [r["consistent"] for r in doc["condition_i"]] != consistent:
            return "branch consistency differs from the tree"
        if doc["condition_iii"] != [{"indices": ["1", "0"], "holds": holds}]:
            return "condition (iii) differs from the tree"
        if doc["ok"] != (all(consistent) and holds):
            return "overall verdict is wrong"
        return None

    m = rng.randint(3, 5)
    num = rng.choice([p for p in range(1, 3 * m) if gcd(p, m) == 1])
    assignments = [{str(e): str(rng.randint(2, 4))
                    for e in rng.sample([1, 2, 3], rng.randint(1, 3))}
                   for _ in range(3)]
    certs = []
    for i in range(3):
        for j in range(i + 1, 3):
            common = sorted(set(assignments[i]) & set(assignments[j]), key=int)
            least = next((int(e) for e in common
                          if assignments[i][e] != assignments[j][e]), None)
            certs.append({"i": i, "j": j, "least_disagreement": least})

    def zwitness(doc):
        if doc["mode"] != "rational" or not all(doc["checks"].values()):
            return "rational witness not certified"
        if doc["presentation"]["cyclotomic_order"] != m:
            return "witness uses the wrong root of unity"
        return None

    def error(kind):
        return lambda doc: None if doc["error"] == kind else f"expected {kind}"

    return [
        Op("tp2", lambda: _invoke(["tp2", "-n", str(n), "-J", str(J), "--sigma",
                                   ",".join(map(str, sigma))]),
           _cli_check(0, tp2)),
        Op("tp2-bad-sigma", lambda: _invoke(
            ["tp2", "-n", str(n), "-J", str(J), "--sigma",
             ",".join([str(J + 1)] * n)]),
           _cli_check(2, error("UnsupportedShape"))),
        Op("sop1-verify", lambda: _invoke(["sop1-verify", "-f", cand_path]),
           _cli_check(0, sop1)),
        Op("zwitness", lambda: _invoke(["zwitness", "-c", f"{num}/{m}"]),
           _cli_check(0, zwitness)),
        Op("zwitness-integer", lambda c=str(rng.randint(2, 9)): _invoke(
            ["zwitness", "-c", c]), _cli_check(2, error("NotTranscendental"))),
        Op("type-family", lambda: _invoke(
            ["type-family", "--assignments", json.dumps(assignments)]),
           _cli_check(0, lambda d: None if d["certificates"] == certs
                      else "distinction certificates differ")),
    ]


def _roundtrip_ops(rng, files) -> list:
    chain_path = files.write("rt-chain.json", _chain("t", 3))
    system = gen.pminus_system(rng, 3, shared_pair=True)
    sys_path = files.write("rt-system.json", serialize.system_to_json(system))
    variety = gen.planted_variety(rng)
    var_path = files.write("rt-variety.json", serialize.variety_to_json(variety))
    # leading coefficient -1 on an even power of the first symbol
    minus = -S("t1") ** (2 * rng.randint(1, 2)) + rng.randint(1, 3) * S("t2") ** 2
    minus_doc = {"name": "M", "cyclotomic_order": 1,
                 "transcendentals": ["t1", "t2"],
                 "egraph": [{"arg": "t1", "val": str(minus)}]}
    minus_path = files.write("rt-minus.json", minus_doc)

    def same(extra):
        def verify(doc):
            if doc.get("identical") is not True:
                return "reloading changed the document"
            return None if all(doc.get(k) == v for k, v in extra.items()) \
                else f"roundtrip report differs from {extra}"
        return verify

    return [
        Op("roundtrip", lambda: _invoke(["roundtrip", "-f", chain_path]),
           _cli_check(0, same({"schema": "presentation"}))),
        Op("roundtrip", lambda: _invoke(["roundtrip", "-f", sys_path]),
           _cli_check(0, same({"schema": "system", "independent": True}))),
        Op("roundtrip", lambda: _invoke(["roundtrip", "-f", var_path]),
           _cli_check(0, same({"schema": "variety"}))),
        Op("roundtrip-unary-minus", lambda: _invoke(["roundtrip", "-f", minus_path]),
           _cli_check(0, same({"schema": "presentation"})),
           known_defect=UNARY_MINUS),
    ]


def _malformed_ops(rng, files) -> list:
    bad_json = files.write("bad.json", '{"name": "F", "egraph": [')
    no_x = {"base_params": [], "locus_params": ["_p1", "_q1"], "Y": ["_q1"],
            "free_Y": [True]}
    no_x_path = files.write("no-x.json", no_x)
    bad_elem = _chain("t", 2)
    bad_elem["egraph"][0]["val"] = f"t1 +* {rng.randint(2, 9)}"
    bad_elem_path = files.write("bad-elem.json", bad_elem)
    return [
        Op("malformed-json", lambda: _invoke(["hull", "-F", bad_json, "-g", "t1"]),
           _cli_check(1)),
        Op("malformed-schema", lambda: _invoke(["free-check", "-f", no_x_path]),
           _cli_check(1)),
        Op("malformed-element", lambda: _invoke(["roundtrip", "-f", bad_elem_path]),
           _cli_check(1)),
    ]


def build_cli_mix(seed: int, workdir: str) -> Workload:
    """Two corpora of 31 invocations each over the 14 subcommands; each
    corpus has 5 malformed inputs (exit 1) and 4 domain rejections (exit 2).
    Two independent draws per pass keep the latency tail from resting on a
    single input."""
    os.environ["EXPOFIELD_SEED"] = "0"
    rng = random.Random(seed)
    shutil.rmtree(workdir, ignore_errors=True)
    files = _Files(workdir)
    corpora = [_normalize_ops(rng) + _variety_ops(rng, files)
               + _presentation_ops(rng, files) + _amalg_ops(rng, files)
               + _witness_ops(rng, files) + _roundtrip_ops(rng, files)
               + _malformed_ops(rng, files) for _ in range(2)]
    ops = corpora[0] + corpora[1]
    rng.shuffle(ops)
    return Workload(ops, warm=list(ops), workdir=workdir,
                    output=lambda result: result[1].encode() if result else b"")
