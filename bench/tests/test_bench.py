"""Self-tests of the benchmark: run with ``python3 -m pytest bench/tests``.

They check that traced counts repeat for a seed, that seeds change the
inputs, that the counts predicted to be zero are zero, and that the runner
keeps its output contract.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run._prepare_path()
import tracer  # noqa: E402
import workloads  # noqa: E402


def traced_pass(name, seed, tmp_path):
    tr = tracer.Tracer()
    work, outcomes = run.one_pass(workloads, name, seed, str(tmp_path / name), tr)
    return tr, work, outcomes


def counts(tr) -> dict:
    summary = tr.summary()
    out = {layer: calls for layer, (calls, _) in summary["layers"].items()}
    out.update(summary["counters"])
    out["max_terms"] = summary["max_terms"]
    return out


def fingerprint(work, outcomes) -> list:
    # CLI stderr names the input files, so compare stdout there
    return [work.output(result) if work.output else repr(result)
            for _, result, _ in outcomes]


def ancestors(tr, i):
    p = tr.span_parent[i]
    while p >= 0:
        yield tr.names[tr.span_name[p]]
        p = tr.span_parent[p]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_counts_repeat_and_checks_pass(name, tmp_path):
    first, work, outcomes = traced_pass(name, 5, tmp_path)
    second, _, _ = traced_pass(name, 5, tmp_path)
    assert counts(first) == counts(second)
    tally = run.Tally(work)
    for i, (elapsed, result, exc) in enumerate(outcomes):
        tally.record(i, elapsed, result, exc)
    assert not tally.unexpected
    assert counts(first)["op"] == len(work.ops)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_seed_changes_inputs(name, tmp_path):
    a = run.one_pass(workloads, name, 1, str(tmp_path / "a"))
    b = run.one_pass(workloads, name, 2, str(tmp_path / "b"))
    assert fingerprint(*a) != fingerprint(*b)
    assert fingerprint(*a) == fingerprint(*run.one_pass(
        workloads, name, 1, str(tmp_path / "c")))


def test_predicted_zero_counts(tmp_path):
    homlaw, _, _ = traced_pass("homlaw", 3, tmp_path)
    assert counts(homlaw)["linalg.ff_rank"] == 0
    assert counts(homlaw)["exprlang.parse"] == 0
    amalg_tr, _, _ = traced_pass("amalg-n", 3, tmp_path)
    assert counts(amalg_tr)["exprlang.parse"] == 0
    # complete_system checks functoriality of the diagram with e_eval;
    # verify_independent_system never evaluates E
    eval_id = amalg_tr.names.index("efield.e_eval")
    for i, nid in enumerate(amalg_tr.span_name):
        if nid == eval_id:
            assert "amalg.complete_system" in ancestors(amalg_tr, i)


def test_cli_mix_reports_the_known_defects(tmp_path):
    work, outcomes = run.one_pass(workloads, "cli-mix", 4, str(tmp_path / "c"))
    tally = run.Tally(work)
    for i, (elapsed, result, exc) in enumerate(outcomes):
        tally.record(i, elapsed, result, exc)
    assert {f[2] for f in tally.failures} == {
        workloads.ZERO_DENOMINATOR, workloads.UNARY_MINUS}
    assert len(tally.digest.hexdigest()) == 64


def _run(args, cwd):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_output_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _run(["--workload", "homlaw", "--seed", "7", "--seconds", "0.5",
                     "--trace", trace], ROOT)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(doc) == {"correct", "attempted", "failed", "metrics"}
        assert doc["correct"] and doc["attempted"] >= 1
        assert {m["name"]: m["unit"] for m in spec[key]} == {
            k: v["unit"] for k, v in doc["metrics"].items()}


def test_all_prints_one_row_per_workload():
    proc = _run(["--workload", "all", "--seed", "3", "--seconds", "0.1"], ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    rows = [line for line in lines if not line.startswith(("{", " "))]
    assert [row.split(":")[0] for row in rows] == list(run.WORKLOADS)
    for row in rows:
        for metric, unit in run.E2E_UNITS.items():
            assert f" {metric}=" in f" {row.split(': ', 1)[1]}" and unit in row
        assert "samples=" in row and "failed_op_share=" in row
    doc = json.loads(lines[-1])
    assert len(doc["metrics"]) == len(run.WORKLOADS) * len(run.E2E_UNITS)


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(["--workload", "homlaw", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not os.path.exists(tmp_path / ".bench_out")
