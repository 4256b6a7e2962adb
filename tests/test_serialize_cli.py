"""JSON schemas, roundtrips, and the command-line driver."""

import json

import pytest

from expofield import minimal_ea_family, presentation
from expofield.cli import main
from expofield.errors import SchemaError
from expofield import serialize
from gen import conflicting_system, rand_pminus_system

import random

SYSTEM = serialize.system_to_json(rand_pminus_system(random.Random(4), 3))
VARIETY = {"base_params": [], "locus_params": ["_p1", "_q1"], "X": ["_p1"],
           "Y": ["_q1"], "free_Y": [True]}
SOP1 = {"witness_kind": "sop1", "depth": 1, "tree": {"": ["t", "1"]},
        "base": {"name": "A", "transcendentals": ["t"], "egraph": []}}
SOP1_DEPTH_2 = SOP1 | {"depth": 2, "tree": {"": ["t", "1"], "0": ["t", "2"],
                                            "1": ["t", "3"]}}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestSchemas:
    def test_presentation_bytes_identical(self):
        fam = minimal_ea_family([2, 3])
        doc = serialize.presentation_to_json(fam)
        text = serialize.canonical_dumps(doc)
        again = serialize.presentation_from_json(json.loads(text))
        assert serialize.canonical_dumps(
            serialize.presentation_to_json(again)) == text

    def test_zero_value_schema_path(self):
        doc = {"name": "bad", "cyclotomic_order": 1,
               "transcendentals": ["a"],
               "egraph": [{"arg": "a", "val": "0"}]}
        with pytest.raises(SchemaError) as exc:
            serialize.presentation_from_json(doc)
        assert exc.value.path == "/egraph/0/val"

    def test_system_roundtrip_with_report(self):
        s = rand_pminus_system(random.Random(2), 3)
        doc = serialize.system_to_json(s)
        rep = serialize.roundtrip(doc)
        assert rep["identical"] and rep["independent"]

    def test_non_identity_arrow_rejected(self):
        s = rand_pminus_system(random.Random(2), 3)
        doc = serialize.system_to_json(s)
        doc["arrows"][0]["map"] = {"x": "y"}
        with pytest.raises(SchemaError):
            serialize.system_from_json(doc)

    def test_variety_roundtrip(self):
        doc = {"base_params": [], "locus_params": ["_p1", "_q1"],
               "X": ["_p1"], "Y": ["_q1"], "free_Y": [True],
               "cyclotomic_order": 1}
        v = serialize.variety_from_json(doc)
        assert serialize.variety_to_json(v) == doc


class TestCLI:
    def test_normalize_nested(self, capsys):
        code, out = run_cli(capsys, "normalize", "-e", "E(E(x))=x")
        assert code == 0
        doc = json.loads(out)
        assert doc["aux_count"] == 1
        assert doc["xvars"] == ["x", "_u1"]

    def test_exponent_beyond_the_field_width_exits_2(self, capsys):
        from expofield.mpoly import MAX_EXPONENT
        code, out = run_cli(capsys, "normalize", "-e",
                            "x = t^100000000000000000000 * t")
        assert code == 2
        assert json.loads(out) == {
            "error": "UnsupportedShape",
            "detail": f"an exponent exceeds the limit {MAX_EXPONENT}"}
        code, out = run_cli(capsys, "normalize", "-e", f"x = t^{MAX_EXPONENT}")
        assert code == 0
        assert json.loads(out)["polys"] == [f"-t^{MAX_EXPONENT} + x"]
        code, out = run_cli(capsys, "normalize", "-e",
                            f"x = t^{MAX_EXPONENT} * t")
        assert code == 2 and json.loads(out)["error"] == "UnsupportedShape"

    def test_free_check_exit_codes(self, capsys, tmp_path):
        free = tmp_path / "free.json"
        free.write_text(json.dumps({
            "base_params": [], "locus_params": ["_p1", "_q1"],
            "X": ["_p1"], "Y": ["_q1"], "free_Y": [True]}))
        code, out = run_cli(capsys, "free-check", "-f", str(free))
        assert code == 0 and json.loads(out)["verdict"] == "free"
        notfree = tmp_path / "notfree.json"
        notfree.write_text(json.dumps({
            "base_params": [], "locus_params": ["_p1", "_q1", "_q2"],
            "X": ["_p1", "2*_p1 + 3"], "Y": ["_q1", "_q2"],
            "free_Y": [True, True]}))
        code, out = run_cli(capsys, "free-check", "-f", str(notfree),
                            "--oracle", "5")
        doc = json.loads(out)
        assert code == 2
        assert doc["relation"]["m"] == [2, -1]
        assert doc["relation"]["a"] == "-3"
        assert doc["oracle"]["agrees"]

    def test_solve_command(self, capsys, tmp_path):
        v = tmp_path / "v.json"
        v.write_text(json.dumps({
            "base_params": [], "locus_params": ["_p1"],
            "X": ["_p1"], "Y": ["5"], "free_Y": [False]}))
        code, out = run_cli(capsys, "solve", "-f", str(v))
        assert code == 0
        doc = json.loads(out)
        assert doc["point"]["y"] == ["5"]

    def test_tp2_certificate(self, capsys):
        code, out = run_cli(capsys, "tp2", "-n", "2", "-J", "3",
                            "--sigma", "2,3")
        assert code == 0
        doc = json.loads(out)
        assert doc["freeness"] == "free"
        assert doc["witness_kind"] == "tp2"
        assert doc["condition_iii_ok"]

    def test_zwitness(self, capsys):
        code, out = run_cli(capsys, "zwitness", "-c", "5/3")
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "rational"
        assert all(doc["checks"].values())

    def test_indep_and_hull(self, capsys, tmp_path):
        pres = tmp_path / "f.json"
        pres.write_text(json.dumps({
            "name": "F", "cyclotomic_order": 1,
            "transcendentals": ["t1", "t2"],
            "egraph": [{"arg": "t1", "val": "t2"}]}))
        code, out = run_cli(capsys, "indep", "-F", str(pres),
                            "-A", "t1", "-B", "t2", "-C", "")
        assert code == 0 and json.loads(out) == {"independent": False}
        code, out = run_cli(capsys, "hull", "-F", str(pres), "-g", "t1")
        assert code == 0
        assert json.loads(out)["generators"] == ["t1", "t2"]

    def test_amalg_n(self, capsys, tmp_path):
        s = rand_pminus_system(random.Random(4), 3)
        path = tmp_path / "s.json"
        path.write_text(serialize.canonical_dumps(serialize.system_to_json(s)))
        code, out = run_cli(capsys, "amalg-n", "-S", str(path))
        assert code == 0
        doc = json.loads(out)
        assert all(doc["welldef"]["verdicts"])
        assert "{0,1,2}" in doc["system"]["nodes"]

    def test_sop1_verify(self, capsys, tmp_path):
        cand = {
            "witness_kind": "sop1", "depth": 1,
            "base": {"name": "A", "cyclotomic_order": 1,
                     "transcendentals": ["t"], "egraph": []},
            "tree": {"": ["t", "1"]},
        }
        path = tmp_path / "cand.json"
        path.write_text(json.dumps(cand))
        code, out = run_cli(capsys, "sop1-verify", "-f", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["condition_ii"] == "structural"

    def test_roundtrip_command(self, capsys, tmp_path):
        fam = minimal_ea_family([2, 3])
        path = tmp_path / "fam.json"
        path.write_text(serialize.canonical_dumps(
            serialize.presentation_to_json(fam)))
        code, out = run_cli(capsys, "roundtrip", "-f", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["identical"] and doc["check"]["ok"]

    def test_schema_error_is_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "transcendentals": [],
                                    "egraph": [{"arg": "a", "val": "0"}]}))
        code, _ = run_cli(capsys, "roundtrip", "-f", str(path))
        assert code == 1

    def test_type_family(self, capsys):
        code, out = run_cli(capsys, "type-family", "--assignments",
                            '[{"1": "2"}, {"1": "3"}]')
        assert code == 0
        doc = json.loads(out)
        assert doc["certificates"][0]["least_disagreement"] == 1

    def test_efield_check(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({
            "name": "F", "cyclotomic_order": 1,
            "transcendentals": ["a", "b"],
            "egraph": [{"arg": "a", "val": "b"},
                       {"arg": "2*a", "val": "b"}]}))
        code, out = run_cli(capsys, "efield-check", "-F", str(path))
        assert code == 0
        doc = json.loads(out)
        assert not doc["ok"]
        assert doc["violations"][0]["kind"] == "dependent_arguments"

    def test_zero_denominator_literal_is_syntax_error(self, capsys):
        code = main(["normalize", "-e", "x = 1/0"])
        assert code == 1
        assert "expected a nonzero denominator" in capsys.readouterr().err

    @pytest.mark.parametrize("order", [0, "3"])
    def test_efield_check_rejects_bad_order(self, capsys, tmp_path, order):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"name": "F", "cyclotomic_order": order,
                                    "transcendentals": [], "egraph": []}))
        code = main(["efield-check", "-F", str(path)])
        assert code == 1
        assert "/cyclotomic_order" in capsys.readouterr().err

    def test_efield_check_rejects_bad_seed(self, capsys, tmp_path,
                                           monkeypatch):
        monkeypatch.setenv("EXPOFIELD_SEED", "x")
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"name": "F", "transcendentals": [],
                                    "egraph": []}))
        assert main(["efield-check", "-F", str(path)]) == 1
        assert "EXPOFIELD_SEED" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, argv", [
        ([1, 2], ["efield-check", "-F"]),
        ([1, 2], ["free-check", "-f"]),
        ({"name": "F", "transcendentals": [], "egraph": [1]},
         ["efield-check", "-F"]),
        ({"name": "F", "transcendentals": [], "egraph": [1]},
         ["roundtrip", "-f"]),
        ({"name": "F", "transcendentals": [], "egraph": [1]},
         ["hull", "-g", "t1", "-F"]),
        ({"base_params": [], "locus_params": ["_p1", "_q1"], "X": ["_p1"],
          "Y": ["_q1"], "free_Y": [True], "cyclotomic_order": "3"},
         ["reduce", "-f"]),
        ({"name": "F", "transcendentals": 5, "egraph": []},
         ["efield-check", "-F"]),
        ({"name": "F", "transcendentals": 5, "egraph": []},
         ["roundtrip", "-f"]),
        ({"name": "F", "transcendentals": "ab", "egraph": []},
         ["efield-check", "-F"]),
        ({"name": "F", "transcendentals": "ab", "egraph": []},
         ["roundtrip", "-f"]),
        ({"name": "F", "transcendentals": ["a", 1], "egraph": []},
         ["hull", "-g", "a", "-F"]),
        ({"name": "F", "transcendentals": ["a b"], "egraph": []},
         ["efield-check", "-F"]),
        ({"name": "F", "transcendentals": ["zeta"], "egraph": []},
         ["roundtrip", "-f"]),
        ({"name": "F", "transcendentals": ["a", "a"], "egraph": []},
         ["efield-check", "-F"]),
        ({"n": 2, "nodes": [1]}, ["amalg-n", "-S"]),
        ({"n": "3", "nodes": {}}, ["amalg-n", "-S"]),
        (SYSTEM | {"arrows": {}}, ["amalg-n", "-S"]),
        (SYSTEM | {"arrows": [1]}, ["amalg-n", "-S"]),
        (SYSTEM | {"arrows": [{"map": ["a"]}]}, ["amalg-n", "-S"]),
        (VARIETY | {"base_params": 5}, ["reduce", "-f"]),
        (VARIETY | {"locus_params": None}, ["free-check", "-f"]),
        (VARIETY | {"base_params": "t"}, ["solve", "-f"]),
        (SOP1 | {"tree": [["t", "1"]]}, ["sop1-verify", "-f"]),
        (SOP1 | {"depth": "1"}, ["sop1-verify", "-f"]),
        ({"cyclotomic_order": 1, "transcendentals": [], "egraph": []},
         ["efield-check", "-F"]),
        (SOP1 | {"depth": -1}, ["sop1-verify", "-f"]),
        (SYSTEM | {"arrows": [{"from": 5, "to": None, "map": {}}]},
         ["amalg-n", "-S"]),
        (SYSTEM | {"arrows": [{"from": "{0}", "map": {}}]}, ["roundtrip", "-f"]),
        (SYSTEM | {"arrows": [{"from": "{}", "to": "{5}"}]}, ["amalg-n", "-S"]),
        (SYSTEM | {"arrows": [{"from": "{0}", "to": "{0}"}]}, ["amalg-n", "-S"]),
        (SYSTEM | {"arrows": [{"from": "{0}", "to": "{1,2}"}]},
         ["roundtrip", "-f"]),
        (SYSTEM | {"arrows": [{"from": "{0,1}", "to": "{1}"}]},
         ["amalg-n", "-S"]),
    ])
    def test_malformed_document_is_schema_error(self, capsys, tmp_path, doc,
                                                argv):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(argv + [str(path)]) == 1
        assert capsys.readouterr().err.startswith("schema error:")

    @pytest.mark.parametrize("argv", [
        ["type-family", "--assignments", "[1]"],
        ["type-family", "--assignments", '[{"a": "2"}]'],
        ["type-family", "--assignments", "[{"],
        ["tp2", "-n", "2", "-J", "3", "--sigma", "a,b"],
        ["zwitness", "-c", "t"],
        ["zwitness", "-c", "1/0"],
        ["type-family", "--assignments", '[{"1": null}]'],
        ["type-family", "--assignments", '[{"1_0": "2"}]'],
        ["type-family", "--assignments", '[{" 10 ": "2"}]'],
        ["type-family", "--assignments", '[{"1": "2", "01": "3"}]'],
        ["type-family", "--assignments", '[{"\u00b2": "2"}]'],
        ["sop1-verify", "-f", "{sop1}", "--branches", "22"],
        ["sop1-verify", "-f", "{sop1}", "--branches", "ab"],
        ["sop1-verify", "-f", "{sop1}", "--branches", "000"],
        ["sop1-verify", "-f", "{sop1}", "--branches", "01,1"],
        ["hull", "-F", "{F}", "-g", "(1)/(0)"],
        ["indep", "-F", "{F}", "-B", "t1", "-A", "(t1)/(t1-t1)"],
        ["indep", "-F", "{F}", "-A", "t1", "-B", "(t1)/(t1-t1)"],
        ["indep", "-F", "{F}", "-A", "t1", "-B", "t1", "-C", "(t1)/(t1-t1)"],
        ["zwitness", "-c", "(1)/(0)"],
        ["zwitness", "-c", "1/2", "-d", "(1)/(0)"],
        ["solve", "-f", "{V}", "--order", "0"],
        ["type-family", "--assignments", '[{"1": "2"}]', "--order", "0"],
        ["type-family", "--assignments", '[{"1": "2"}]', "--order", "-1"],
        ["free-check", "-f", "{V}", "--oracle", "-1"],
    ])
    def test_malformed_argument_exits_1(self, capsys, tmp_path, argv):
        """``{sop1}`` stands for a depth-2 SOP1 candidate file, ``{F}`` for
        a presentation over t1 and ``{V}`` for a free variety.  When the
        last option given is one of those listed below, the error names it."""
        files = {"{sop1}": SOP1_DEPTH_2,
                 "{F}": {"name": "F", "transcendentals": ["t1"], "egraph": []},
                 "{V}": VARIETY}
        for mark, doc in files.items():
            (tmp_path / mark.strip("{}")).write_text(json.dumps(doc))
        argv = [str(tmp_path / arg.strip("{}")) if arg in files else arg
                for arg in argv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(("schema error:", "error:"))
        if argv[-2] in ("--branches", "--order", "--oracle", "-g", "-A", "-B",
                        "-C", "-c", "-d"):
            assert err.startswith(f"schema error: {argv[-2]}:")

    def test_sop1_branches_of_the_depth_are_checked(self, capsys, tmp_path):
        path = tmp_path / "sop1.json"
        path.write_text(json.dumps(SOP1_DEPTH_2))
        code, out = run_cli(capsys, "sop1-verify", "-f", str(path),
                            "--branches", "01, 10")
        assert code == 0
        assert [r["branch"] for r in json.loads(out)["condition_i"]] == \
            [["01"], ["10"]]

    @pytest.mark.parametrize("argv", [
        ["hull", "-g", "b"],
        ["hull", "-g", "a, a + b"],
        ["indep", "-A", "b", "-B", "b"],
        ["indep", "-A", "a", "-B", "a", "-C", "(1)/(b)"],
    ])
    def test_foreign_symbol_is_domain_error(self, capsys, tmp_path, argv):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"name": "F", "transcendentals": ["a"],
                                    "egraph": []}))
        assert main(argv + ["-F", str(path)]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["error"] == "UnsupportedShape"
        assert "'b'" in doc["detail"]

    def test_determinism_two_runs(self, capsys, tmp_path):
        v = tmp_path / "v.json"
        v.write_text(json.dumps({
            "base_params": [], "locus_params": ["_p1", "_q1", "_q2"],
            "X": ["_p1", "2*_p1 + 3"], "Y": ["_q1", "_q2"],
            "free_Y": [True, True]}))
        runs = []
        for _ in range(2):
            _, out = run_cli(capsys, "solve", "-f", str(v))
            runs.append(out)
        assert runs[0] == runs[1]

    def test_incoherent_system_exits_2_with_the_kernel_vector(self, capsys,
                                                                tmp_path):
        path = tmp_path / "s.json"
        path.write_text(serialize.canonical_dumps(serialize.system_to_json(
            conflicting_system(random.Random(1)))))
        code, out = run_cli(capsys, "amalg-n", "-S", str(path))
        assert code == 2
        assert out == ('{"error":"WellDefFailure","product":"3",'
                       '"vector":[0,0,0,0,0,0,1,0,0,0,-1]}\n')

    @pytest.mark.parametrize("first, detail", [
        ({"cyclotomic_order": 3},
         "L: cyclotomic order 3 differs from the base's 1"),
        ({"egraph": [{"arg": "t", "val": "2"}]},
         "L does not preserve the base graph at t"),
    ])
    def test_ill_formed_extension_exits_2(self, capsys, tmp_path, first,
                                          detail):
        base = {"name": "B", "transcendentals": ["t", "s"],
                "egraph": [{"arg": "t", "val": "s"}]}
        paths = []
        for name, doc in (("B", base), ("L", base | {"name": "L"} | first)):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(doc))
        code, out = run_cli(capsys, "amalg2", "--base", str(paths[0]),
                            "-1", str(paths[1]), "-2", str(paths[0]))
        assert code == 2
        assert json.loads(out) == {"error": "IllFormedExtension",
                                   "detail": detail}

    @pytest.mark.parametrize("doc, detail", [
        (SYSTEM | {"n": 2}, "systems need n >= 3"),
        (SYSTEM | {"n": 7}, "n is capped at 6 (2^n nodes)"),
        (SYSTEM | {"arrows": [], "nodes": {
            k: v for k, v in SYSTEM["nodes"].items() if k != "{0,1}"}},
         "nodes must cover P^-(n) or P(n)"),
        (SYSTEM | {"nodes": SYSTEM["nodes"] | {
            "{}": SYSTEM["nodes"]["{}"] | {"cyclotomic_order": 3}}},
         "all nodes must share one cyclotomic order"),
    ])
    def test_system_shape_is_a_schema_error(self, capsys, tmp_path, doc,
                                            detail):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert main(["amalg-n", "-S", str(path)]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"schema error: /: {detail}\n")
