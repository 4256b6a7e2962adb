"""JSON schemas, roundtrips, and the command-line driver."""

import json

import pytest

from expofield import minimal_ea_family, presentation
from expofield.cli import main
from expofield.errors import SchemaError
from expofield import serialize
from gen import rand_pminus_system

import random


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
        assert doc["relation"]["m"] == [-2, 1]
        assert doc["relation"]["a"] == "3"
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
