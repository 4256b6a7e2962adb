"""JSON schemas, roundtrips, and the command-line driver."""

import json

import pytest

from expofield import complete_system, minimal_ea_family, presentation
from expofield.cli import main
from expofield.errors import SchemaError
from expofield.exprlang import parse_element
from expofield import serialize
from gen import conflicting_system, rand_pminus_system

import random

SYSTEM = serialize.system_to_json(rand_pminus_system(random.Random(4), 3))
VARIETY = {"base_params": [], "locus_params": ["_p1", "_q1"], "X": ["_p1"],
           "Y": ["_q1"], "free_Y": [True]}
SOP1 = {"witness_kind": "sop1", "depth": 1, "tree": {"": ["t", "1"]},
        "base": {"name": "A", "transcendentals": ["t"], "egraph": []}}
# a graph that names u without declaring it; declared, u lies in the hulls
# of both t and s, so they are not independent
UNDECLARED = {"name": "F", "transcendentals": ["s", "t"],
              "egraph": [{"arg": "t", "val": "u"}, {"arg": "s", "val": "u"}]}
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

    def test_json_nested_past_the_recursion_limit_exits_1(self, capsys,
                                                          tmp_path):
        """A document of 100,000 nested arrays is a schema error at "/", in
        a file or in ``--assignments``, and no RecursionError."""
        deep = "[" * 100_000 + "]" * 100_000
        path = tmp_path / "deep.json"
        path.write_text(deep)
        for argv, where in ((["roundtrip", "-f", str(path)], str(path)),
                            (["type-family", "--assignments", deep],
                             "--assignments")):
            assert main(argv) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith(
                f"schema error: /: invalid JSON in {where}: maximum recursion")

    def test_nesting_past_the_bound_exits_1(self, capsys):
        """1,000 unary minuses, past ``MAX_NESTING``, are a syntax error and
        no RecursionError in a later walk over the term."""
        assert main(["normalize", "-e", "x = " + "-" * 1000 + "t"]) == 1
        assert capsys.readouterr() == (
            "", "error: line 1, col 205: expected at most 200 nested "
            "brackets and minuses\n")

    def test_zeta_at_order_1_exits_1(self, capsys):
        assert main(["normalize", "-e", "x = zeta"]) == 1
        assert capsys.readouterr() == (
            "", "error: zeta used with cyclotomic order 1\n")

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

    def test_zwitness_for_a_symbol_defaults_d_to_2(self, capsys):
        code, out = run_cli(capsys, "zwitness", "-c", "t", "-m", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "transcendental"
        assert doc["presentation"]["egraph"] == [
            {"arg": "_c1", "val": "1"}, {"arg": "_c1*t", "val": "2"}]

    @pytest.mark.parametrize("argv, error, detail", [
        (["tp2", "-n", "0", "-J", "2", "--sigma", "1"], "UnsupportedShape",
         "need n, J >= 1"),
        (["tp2", "-n", "2", "-J", "3", "--sigma", "1,4"], "UnsupportedShape",
         "sigma must map 1..n into 1..J"),
        (["zwitness", "-c", "zeta", "-m", "3"], "NotTranscendental",
         "c = zeta is constant over Q(zeta)"),
        (["zwitness", "-c", "t", "-m", "1", "-d", "1"], "UnsupportedShape",
         "need d distinct from 0 and 1"),
        (["type-family", "--assignments", '[{"0": "2"}]'], "UnsupportedShape",
         "exponents must be positive"),
    ])
    def test_domain_rejection_exits_2(self, capsys, argv, error, detail):
        code, out = run_cli(capsys, *argv)
        assert (code, json.loads(out)) == (2, {"error": error,
                                               "detail": detail})

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

    @pytest.mark.parametrize("label", ["{ 0 }", "{0,0}"])
    @pytest.mark.parametrize("command", ["amalg-n -S", "roundtrip -f"])
    def test_repeated_node_is_schema_error(self, capsys, tmp_path, command,
                                           label):
        """A second label for node {0} is refused, not read over the first."""
        path = tmp_path / "s.json"
        nodes = SYSTEM["nodes"] | {label: SYSTEM["nodes"]["{1}"]}
        path.write_text(json.dumps(SYSTEM | {"nodes": nodes}))
        assert main([*command.split(), str(path)]) == 1
        assert capsys.readouterr().err == (
            f"schema error: /nodes/{label}: repeated node {{0}}\n")

    def test_solve_without_auto_extension(self, capsys, tmp_path):
        v = tmp_path / "v.json"
        v.write_text(json.dumps({
            "base_params": ["t"], "locus_params": ["u", "q", "r"],
            "X": ["u", "u + t"], "Y": ["q", "r"], "free_Y": [True, True]}))
        code, out = run_cli(capsys, "solve", "-f", str(v), "--no-auto-extend")
        assert code == 2
        assert json.loads(out) == {
            "detail": "E(t) is undefined and auto-extension is disabled",
            "error": "MissingExponential", "root_specs": []}
        code, out = run_cli(capsys, "solve", "-f", str(v))
        assert code == 0
        assert json.loads(out)["adjoined"][-1] == ["_g1",
                                                   "fresh value for E(t)"]

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

    def test_efield_check_ignores_the_seed_variable(self, capsys, tmp_path,
                                                    monkeypatch):
        """The spot checks always draw from seed 0, so EXPOFIELD_SEED, which
        once chose the seed, changes no byte, valid integer or not."""
        path = tmp_path / "f.json"
        path.write_text(serialize.canonical_dumps(
            serialize.presentation_to_json(minimal_ea_family([2, 3]))))
        outs = []
        for seed in (None, "0", "x"):
            if seed is None:
                monkeypatch.delenv("EXPOFIELD_SEED", raising=False)
            else:
                monkeypatch.setenv("EXPOFIELD_SEED", seed)
            outs.append(run_cli(capsys, "efield-check", "-F", str(path)))
        assert outs[0][0] == 0 and json.loads(outs[0][1])["spot_checks"] == 10
        assert outs[1] == outs[0] and outs[2] == outs[0]

    def test_output_file_gets_the_stdout_bytes(self, capsys, tmp_path):
        code, out = run_cli(capsys, "normalize", "-e", "E(E(x)) = x")
        path = tmp_path / "out.json"
        assert run_cli(capsys, "normalize", "-e", "E(E(x)) = x",
                       "-o", str(path)) == (code, "")
        assert code == 0 and path.read_text() == out

    def test_invalid_json_is_schema_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": ')
        assert main(["efield-check", "-F", str(path)]) == 1
        assert capsys.readouterr().err.startswith(
            f"schema error: /: invalid JSON in {path}:")

    def test_normalize_reads_system_text_from_a_file(self, capsys, tmp_path):
        path = tmp_path / "system.txt"
        path.write_text("E(E(x)) = x\ny != 0\n")
        from_file = run_cli(capsys, "normalize", "-f", str(path))
        assert from_file == run_cli(capsys, "normalize", "-e",
                                    "E(E(x)) = x & y != 0")
        assert from_file[0] == 0

    def test_unknown_subcommand_exits_1(self, capsys):
        assert main(["no-such-command"]) == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        assert main(["reduce", "-f", str(tmp_path / "absent.json")]) == 1
        assert capsys.readouterr().err.startswith("io error:")

    @pytest.mark.parametrize("text", ["1 + (t1)/(t2)", "(t1)/(t2) + 1",
                                      "2*(t1)/(t2)"])
    def test_quotient_text_must_be_canonical(self, capsys, tmp_path, text):
        """A ``/`` that does not separate two parenthesized groups is refused
        with exit 1, not read as another quotient."""
        pres = tmp_path / "f.json"
        pres.write_text(json.dumps({"name": "F", "transcendentals": ["t1", "t2"],
                                    "egraph": []}))
        assert main(["hull", "-F", str(pres), "-g", text]) == 1
        assert capsys.readouterr().err.startswith(
            f"schema error: -g: bad element {text!r}: line 1, col")
        doc = tmp_path / "g.json"
        doc.write_text(json.dumps({
            "name": "F", "transcendentals": ["t1", "t2"],
            "egraph": [{"arg": text, "val": "2"}]}))
        assert main(["roundtrip", "-f", str(doc)]) == 1
        assert "expected a quotient (TERM)/(TERM)" in capsys.readouterr().err

    def test_eliminated_locus_parameter_certificates(self, capsys, tmp_path):
        """The second coordinate is u + (t + 1)/(t + 2), written over a
        denominator that keeps the factor u + 1: the relation's constant is
        cleared of u by substitution (``eliminate_symbols``)."""
        path = tmp_path / "v.json"
        path.write_text(json.dumps({
            "base_params": ["t"], "locus_params": ["u", "_q1", "_q2"],
            "X": ["u", "(t*u^2 + 2*u^2 + 2*t*u + 3*u + t + 1)"
                       "/(t*u + 2*u + t + 2)"],
            "Y": ["_q1", "_q2"], "free_Y": [True, True]}))
        code, out = run_cli(capsys, "free-check", "-f", str(path))
        assert (code, out) == (2, '{"relation":{"a":"(-t - 1)/(t + 2)",'
                                  '"m":[1,-1]},"verdict":"not_free"}\n')
        a = parse_element(json.loads(out)["relation"]["a"])
        assert a.symbols() == {"t"}
        code, out = run_cli(capsys, "reduce", "-f", str(path))
        assert code == 0
        assert json.loads(out)["b"] == ["0", "(t + 1)/(t + 2)"]

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

    @pytest.mark.parametrize("doc, argv, err", [
        ({"name": "F", "transcendentals": ["t"],
          "egraph": [{"arg": "t - t", "val": "2"}]}, ["roundtrip", "-f"],
         "/egraph/0/arg: graph argument is zero"),
        (UNDECLARED, ["indep", "-A", "t", "-B", "s", "-F"],
         "/egraph: undeclared symbols ['u']"),
        (SYSTEM | {"nodes": {"0" if k == "{0}" else k: v
                             for k, v in SYSTEM["nodes"].items()}},
         ["amalg-n", "-S"], "/nodes/0: bad subset label '0'"),
        (SYSTEM | {"nodes": {"{a}" if k == "{0}" else k: v
                             for k, v in SYSTEM["nodes"].items()}},
         ["roundtrip", "-f"], "/nodes/{a}: bad subset label '{a}'"),
        (SOP1 | {"tree": {"": ["t"]}}, ["sop1-verify", "-f"],
         "/tree/: expected [y, z]"),
        ({"witness_kind": "sop2"}, ["roundtrip", "-f"],
         "/witness_kind: unknown kind 'sop2'"),
        (VARIETY | {"X": [], "Y": [], "free_Y": []}, ["reduce", "-f"],
         "/: variety needs at least one coordinate"),
        (VARIETY | {"Y": ["_q1", "2"]}, ["free-check", "-f"],
         "/: X, Y, free_Y must have equal length"),
        (VARIETY | {"base_params": ["_p1"]}, ["solve", "-f"],
         "/: locus parameters must be fresh"),
        (VARIETY | {"X": ["_p1 + s"]}, ["reduce", "-f"],
         "/: undeclared symbols ['s']"),
    ])
    def test_malformed_document_names_the_fault(self, capsys, tmp_path, doc,
                                                argv, err):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(argv + [str(path)]) == 1
        assert capsys.readouterr() == ("", f"schema error: {err}\n")

    def test_efield_check_reports_undeclared_symbols(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(UNDECLARED))
        code, out = run_cli(capsys, "efield-check", "-F", str(path))
        assert (code, json.loads(out)) == (0, {
            "ok": False, "spot_checks": 0,
            "violations": [{"kind": "undeclared_symbols", "symbols": ["u"]}]})
        path.write_text(json.dumps(UNDECLARED | {
            "transcendentals": ["s", "t", "u"]}))
        code, out = run_cli(capsys, "indep", "-F", str(path), "-A", "t",
                            "-B", "s")
        assert (code, out) == (0, '{"independent":false}\n')

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

    @pytest.mark.parametrize("tree, transcendentals, consistent, detail", [
        # E(x) = 1 & E(2x) = 1 is not additively free; x = 0 satisfies it
        ({"": ["1", "1"], "0": ["2", "1"], "1": ["2", "1"]}, [], True,
         "realized"),
        # E(0) = 1 & E(t*x) = 2
        ({"": ["0", "1"], "0": ["t", "2"], "1": ["t", "2"]}, ["t"], True,
         "realized"),
        ({"": ["1", "2"], "0": ["2", "3"], "1": ["2", "3"]}, [], False,
         "coordinate 1 forces E = 3 but the homomorphism gives 4"),
    ])
    def test_sop1_branch_that_is_not_additively_free(
            self, capsys, tmp_path, tree, transcendentals, consistent,
            detail):
        """A branch variety that is not additively free is solved, not
        refused: ``solve`` reduces it and raises only on a conflict."""
        path = tmp_path / "sop1.json"
        path.write_text(json.dumps(SOP1 | {"depth": 2, "tree": tree, "base": {
            "name": "A", "transcendentals": transcendentals, "egraph": []}}))
        code, out = run_cli(capsys, "sop1-verify", "-f", str(path),
                            "--branches", "00")
        assert code == 0
        assert json.loads(out)["condition_i"] == [
            {"branch": ["00"], "consistent": consistent, "detail": detail}]

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

    def test_indep_parses_every_option_before_the_symbol_check(
            self, capsys, tmp_path):
        """``indep`` checks symbols in the library, once all three options
        parse: an undeclared symbol in -A with a -B that does not parse is
        -B's schema error (exit 1), not the domain error on -A (exit 2)."""
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"name": "F", "transcendentals": ["a"],
                                    "egraph": []}))
        assert main(["indep", "-F", str(path), "-A", "b",
                     "-B", "(1)/(0)"]) == 1
        assert capsys.readouterr().err.startswith("schema error: -B:")

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

    def test_completed_system_exits_2(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(serialize.canonical_dumps(serialize.system_to_json(
            complete_system(rand_pminus_system(random.Random(4), 3)).system)))
        code, out = run_cli(capsys, "amalg-n", "-S", str(path))
        assert code == 2
        assert out == ('{"detail":"system is already complete",'
                       '"error":"UnsupportedShape"}\n')

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
