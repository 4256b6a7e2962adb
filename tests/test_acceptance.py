"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All tolerances are exact (symbolic computation); the counts and bounds are
the contract: 500/|m|<=6 for the freeness oracle, 200 pipeline round trips,
100 runs x 20 pairs for each homomorphism-law constructor, 100 amalgamation
squares, 50 random + 10 adversarial systems, 300 independence triples,
all 256 array branches, the full coprime table up to 12, 256-element
generator families with 1000 spot checks, and byte-identical CLI reruns.
"""

import json
import random
import time
from fractions import Fraction
from itertools import product

import pytest

from expofield import (FieldElem, acf_indep, additive_freeness,
                       amalgamate2, coerce, complete_system, e_eval,
                       eval_system, freeness_oracle, indep,
                       minimal_ea_family, presentation, solve, tp2_witness,
                       type_family, verify_finite_witness,
                       verify_independent_system, z_stabilizer_witness)
from expofield.cli import main as cli_main
from expofield.errors import UnsupportedShape, WellDefFailure
from expofield.exprlang import eliminate_inequations, flatten, parse
from expofield.treeprops import point_assignment
from expofield.variety import from_flat
from gen import (conflicting_system, planted_system, rand_extension,
                 rand_pminus_system, rand_presentation, rand_variety,
                 reused_transcendental_system, zspan_pair)

S = FieldElem.from_symbol


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail}")
    assert ok, detail


def test_criterion_1_freeness_oracle_equivalence():
    rng = random.Random(101)
    t0 = time.time()
    disagreements = 0
    for _ in range(500):
        v, _ = rand_variety(rng, max_n=4, max_params=3)
        cert = additive_freeness(v)
        oracle = freeness_oracle(v, 6)
        if cert.verdict != oracle.verdict:
            disagreements += 1
        if not cert.is_free:
            total = FieldElem.zero()
            for m, x in zip(cert.relation, v.X):
                total = total + coerce(m) * x
            if total != cert.value:
                disagreements += 1
    elapsed = time.time() - t0
    report(1, disagreements == 0 and elapsed < 60,
           f"500 varieties, {disagreements} disagreements, {elapsed:.1f}s "
           "(limit 60s)")


def test_criterion_2_reduction_round_trip():
    rng = random.Random(202)
    failures = 0
    for _ in range(200):
        f, text, _ = planted_system(rng)
        system = parse(text)
        try:
            fs = flatten(eliminate_inequations(system))
            res = from_flat(fs, base_params=f.transcendentals)
            sol = solve(f, res.variety)
            if not eval_system(sol.presentation, system,
                               point_assignment(res, sol)):
                failures += 1
        except Exception:
            failures += 1
    report(2, failures == 0, f"200 systems through normalize/from_flat/"
                             f"reduce/solve, {failures} failures")


def _law_violations(rng, f, pairs=20):
    bad = 0
    if not f.egraph:
        return 0
    for _ in range(pairs):
        a, b = zspan_pair(rng, f)
        ea = e_eval(f, a).value
        eb = e_eval(f, b).value
        eab = e_eval(f, a + b).value
        if eab != ea * eb:
            bad += 1
    return bad


def test_criterion_3_homomorphism_law_suite():
    rng = random.Random(303)
    violations = 0

    for _ in range(100):  # extend_graph
        f = rand_presentation(rng, n_pairs=rng.randint(1, 3))
        violations += _law_violations(rng, f)

    for _ in range(100):  # solve
        v, _ = rand_variety(rng, max_n=2, max_params=2)
        try:
            res = solve(presentation("Q"), v)
        except Exception:
            f0 = presentation("Q")
            u = S("_p1")
            from expofield import ParametricVariety
            v = ParametricVariety(base_params=(), locus_params=("_p1",),
                                  X=(u,), Y=(coerce(rng.randint(2, 9)),),
                                  free_Y=(False,))
            res = solve(f0, v)
        violations += _law_violations(rng, res.presentation)

    for _ in range(100):  # amalgamate2
        base = rand_presentation(rng, name="B")
        am = amalgamate2(base, rand_extension(rng, base, "L"),
                         rand_extension(rng, base, "R"))
        violations += _law_violations(rng, am.composite)

    for _ in range(100):  # complete_system
        s = rand_pminus_system(rng, 3)
        comp = complete_system(s, verify=False)
        violations += _law_violations(rng, comp.system.node(range(3)))

    report(3, violations == 0,
           f"4 constructors x 100 runs x 20 Z-span pairs, {violations} "
           "violations")


def test_criterion_4_amalgamation_commuting_squares():
    rng = random.Random(404)
    failures = 0
    for _ in range(100):
        base = rand_presentation(rng, name="B")
        f1 = rand_extension(rng, base, "L")
        f2 = rand_extension(rng, base, "R")
        am = amalgamate2(base, f1, f2)
        ok = all(am.g1.apply(S(t)) == am.g2.apply(S(t))
                 for t in base.transcendentals)
        g1 = [am.g1.apply(S(t)) for t in f1.transcendentals]
        g2 = [am.g2.apply(S(t)) for t in f2.transcendentals]
        bb = [S(t) for t in base.transcendentals]
        ok = ok and acf_indep(g1, g2, bb, am.composite.transcendentals)
        for src, emb in ((f1, am.g1), (f2, am.g2)):
            for t in src.transcendentals:
                if emb.inclusion[t].symbols() - set(am.composite.transcendentals):
                    ok = False
            for arg, val in src.egraph:
                ev = e_eval(am.composite, emb.apply(arg))
                if not ev.is_value or ev.value != emb.apply(val):
                    ok = False
        if not ok:
            failures += 1
    report(4, failures == 0, f"100 random (F, F1, F2) triples, {failures} "
                             "failures (square, independence, restriction)")


def test_criterion_5_n_amalgamation():
    rng = random.Random(505)
    failures = 0
    for n, count in ((3, 25), (4, 25)):
        for _ in range(count):
            s = rand_pminus_system(rng, n)
            rep = verify_independent_system(s)
            if not rep.ok:
                failures += 1
                continue
            comp = complete_system(s)
            if not all(comp.check.verdicts):
                failures += 1
            if not verify_independent_system(comp.system).ok:
                failures += 1
    adversarial_caught = 0
    for i in range(10):
        if i % 2 == 0:
            try:
                complete_system(conflicting_system(rng))
            except (WellDefFailure, UnsupportedShape):
                adversarial_caught += 1
        elif not verify_independent_system(reused_transcendental_system()).ok:
            adversarial_caught += 1
    report(5, failures == 0 and adversarial_caught == 10,
           f"50 systems (n=3,4) completed and verified, {failures} failures; "
           f"{adversarial_caught}/10 adversarial inputs caught")


def test_criterion_6_independence_properties():
    rng = random.Random(606)
    violations = 0
    for _ in range(300):
        f = rand_presentation(rng, n_trans=4, n_pairs=rng.randint(0, 2))
        pool = [S(t) for t in f.transcendentals]
        def pick():
            return [rng.choice(pool) for _ in range(rng.randint(0, 2))]
        a, b, c = pick(), pick(), pick()
        if indep(f, a, b, c) != indep(f, b, a, c):
            violations += 1
        if not indep(f, a, c, c):
            violations += 1
        a2, b2 = pick(), pick()
        if indep(f, a + a2, b + b2, c) and not indep(f, a, b, c):
            violations += 1
    report(6, violations == 0,
           f"300 triples: symmetry, existence-over-base, monotonicity, "
           f"{violations} violations")


def test_criterion_7_array_witness_all_branches():
    t0 = time.time()
    n, J = 4, 4
    w, _ = tp2_witness(n, J, (1,) * n)
    rep = verify_finite_witness(w, branches=list(product(range(1, J + 1),
                                                         repeat=n)))
    branches_ok = sum(1 for r in rep.condition_i if r.consistent)
    elapsed = time.time() - t0
    ok = (branches_ok == J ** n
          and all(v for _, v in rep.condition_iii)
          and rep.condition_ii == "structural"
          and elapsed < 120)
    report(7, ok, f"n=4, J=4: {branches_ok}/256 branches realized, "
                  f"condition (iii) checked {len(rep.condition_iii)} pairs, "
                  f"{elapsed:.1f}s (limit 120s)")


def test_criterion_8_kernel_stabilizer_witnesses():
    from math import gcd
    failures = 0
    count = 0
    for m in range(2, 13):
        for n in range(1, 13):
            if gcd(n, m) != 1:
                continue
            count += 1
            f = presentation("Q", cyclotomic_order=m)
            w = z_stabilizer_witness(f, coerce(Fraction(n, m), m))
            if not all(w.checks.values()):
                failures += 1
    rng = random.Random(808)
    for _ in range(20):
        f = presentation("F", transcendentals=("t",))
        d = coerce(rng.randint(2, 50)) / rng.randint(1, 7)
        if d.is_one():
            d = coerce(2)
        w = z_stabilizer_witness(f, S("t"), d=d)
        if not all(w.checks.values()):
            failures += 1
    report(8, failures == 0,
           f"{count} rational witnesses (m<=12) + 20 non-constant ones, "
           f"{failures} failures")


def test_criterion_9_generator_families():
    rng = random.Random(909)
    prefixes = list(product((1, 2), repeat=8))
    families = [minimal_ea_family(p, name=f"M{i}")
                for i, p in enumerate(prefixes)]
    failures = 0
    for _ in range(1000):
        i, j = rng.sample(range(256), 2)
        # certificate: least n >= 2 where the prefixes disagree
        least = next((k + 2 for k in range(8)
                      if prefixes[i][k] != prefixes[j][k]), None)
        if least is None:
            failures += 1
            continue
        tau = S("tau")
        vi = e_eval(families[i], tau ** least).value
        vj = e_eval(families[j], tau ** least).value
        if vi == vj or vi != coerce(prefixes[i][least - 2]):
            failures += 1

    assignments = [{k + 1: v for k, v in enumerate(p)} for p in prefixes]
    fam = type_family(presentation("Q"), assignments)
    cert_by_pair = {(i, j): n for i, j, n in fam.certificates}
    if len(cert_by_pair) != 256 * 255 // 2:
        failures += 1
    for _ in range(1000):
        i, j = sorted(rng.sample(range(256), 2))
        n = cert_by_pair[(i, j)]
        if n is None or assignments[i][n] == assignments[j][n]:
            failures += 1
            continue
        x = S("_x1")
        vi = e_eval(fam.presentations[i], x ** n).value
        vj = e_eval(fam.presentations[j], x ** n).value
        if vi == vj:
            failures += 1
    report(9, failures == 0,
           "256 minimal-family prefixes + 256 type assignments, "
           f"2x1000 spot-checked distinction certificates, {failures} failures")


def test_criterion_10_cli_determinism(tmp_path, capsys):
    variety = tmp_path / "v.json"
    variety.write_text(json.dumps({
        "base_params": [], "locus_params": ["_p1", "_q1", "_q2"],
        "X": ["_p1", "2*_p1 + 3"], "Y": ["_q1", "_q2"],
        "free_Y": [True, True]}))
    pres = tmp_path / "f.json"
    pres.write_text(json.dumps({
        "name": "F", "cyclotomic_order": 1,
        "transcendentals": ["t1", "t2"],
        "egraph": [{"arg": "t1", "val": "t2"}]}))
    base = tmp_path / "base.json"
    base.write_text(json.dumps({
        "name": "B", "cyclotomic_order": 1, "transcendentals": ["tau"],
        "egraph": [{"arg": "1", "val": "tau"}]}))
    ext1 = tmp_path / "e1.json"
    ext1.write_text(json.dumps({
        "name": "L", "cyclotomic_order": 1,
        "transcendentals": ["tau", "s1"],
        "egraph": [{"arg": "1", "val": "tau"}, {"arg": "s1", "val": "3"}]}))
    ext2 = tmp_path / "e2.json"
    ext2.write_text(json.dumps({
        "name": "R", "cyclotomic_order": 1,
        "transcendentals": ["tau", "s2"],
        "egraph": [{"arg": "1", "val": "tau"}, {"arg": "s2", "val": "5"}]}))
    from expofield import serialize
    system = tmp_path / "s.json"
    system.write_text(serialize.canonical_dumps(
        serialize.system_to_json(rand_pminus_system(random.Random(10), 3))))
    sop1 = tmp_path / "sop1.json"
    sop1.write_text(json.dumps({
        "witness_kind": "sop1", "depth": 1,
        "base": {"name": "A", "cyclotomic_order": 1,
                 "transcendentals": ["t"], "egraph": []},
        "tree": {"": ["t", "1"]}}))

    corpus = [
        ["normalize", "-e", "E(E(x)) = x & y != 0"],
        ["free-check", "-f", str(variety), "--oracle", "6"],
        ["reduce", "-f", str(variety)],
        ["solve", "-f", str(variety)],
        ["efield-check", "-F", str(pres)],
        ["hull", "-F", str(pres), "-g", "t1"],
        ["indep", "-F", str(pres), "-A", "t1", "-B", "t2", "-C", ""],
        ["amalg2", "--base", str(base), "-1", str(ext1), "-2", str(ext2)],
        ["amalg-n", "-S", str(system)],
        ["tp2", "-n", "2", "-J", "3", "--sigma", "2,3"],
        ["sop1-verify", "-f", str(sop1)],
        ["zwitness", "-c", "5/3"],
        ["type-family", "--assignments", '[{"1": "2"}, {"1": "3"}]'],
        ["roundtrip", "-f", str(pres)],
    ]
    runs = []
    for _ in range(2):
        outputs = []
        for argv in corpus:
            code = cli_main(argv)
            out = capsys.readouterr().out
            outputs.append((argv[0], code, out))
        runs.append(outputs)
    identical = runs[0] == runs[1]
    report(10, identical,
           f"{len(corpus)} CLI invocations byte-identical across two runs")
