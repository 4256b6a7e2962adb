"""Mutation fuzzer over the CLI's JSON inputs.

Each example starts from a valid document, picks one JSON path in it, and
either replaces the value there by a value of another JSON type or deletes
the key.  Every subcommand that reads that schema then runs through
``cli.main``: it must exit 0, 1 or 2 and never raise.  A value of the wrong
type in a field the command reads must be a schema error (exit 1).
"""

import contextlib
import io
import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from expofield import serialize
from expofield.cli import main
from expofield.exprlang import flatten, parse
from expofield.treeprops import tp2_witness
from gen import rand_presentation, rand_pminus_system, rand_variety

PRESENTATION = {"name": "F", "cyclotomic_order": 1,
                "transcendentals": ["t1", "t2"],
                "egraph": [{"arg": "t1", "val": "t2"}]}
VARIETY = {"base_params": [], "locus_params": ["_p1", "_q1"], "X": ["_p1"],
           "Y": ["_q1"], "free_Y": [True]}
SOP1 = serialize.sop1_to_json(serialize.sop1_from_json({
    "witness_kind": "sop1", "depth": 1, "tree": {"": ["t", "1"]},
    "base": {"name": "A", "transcendentals": ["t"], "egraph": []}}))
_TP2 = tp2_witness(2, 2, (1, 2))

# schema -> valid documents to mutate
DOCS = {
    "presentation": [PRESENTATION] + [
        serialize.presentation_to_json(rand_presentation(random.Random(k)))
        for k in range(3)],
    "variety": [VARIETY] + [
        serialize.variety_to_json(rand_variety(random.Random(k))[0])
        for k in range(2)],
    "system": [serialize.system_to_json(
        rand_pminus_system(random.Random(4), 3))],
    "sop1": [SOP1],
    "tp2": [serialize.tp2_certificate(*_TP2, (1, 2))],
    "flat": [serialize.flat_to_json(flatten(parse("E(E(x)) = x")))],
    "assignments": [[{"1": "2", "2": "3"}, {"1": "3"}]],
}

# schema -> argv of every subcommand that reads it; {doc} is the mutated
# document's file (its text, for assignments), {variety} a valid variety
COMMANDS = {
    "presentation": [
        ["efield-check", "-F", "{doc}"],
        ["hull", "-F", "{doc}", "-g", "1"],
        ["indep", "-F", "{doc}", "-A", "1", "-B", "1"],
        ["solve", "-f", "{variety}", "-F", "{doc}"],
        ["amalg2", "--base", "{doc}", "-1", "{doc}", "-2", "{doc}"],
        ["zwitness", "-F", "{doc}", "-c", "1/2"],
        ["type-family", "-F", "{doc}", "--assignments", '[{"1": "2"}]'],
        ["roundtrip", "-f", "{doc}"],
    ],
    "variety": [["free-check", "-f", "{doc}"], ["reduce", "-f", "{doc}"],
                ["solve", "-f", "{doc}"], ["roundtrip", "-f", "{doc}"]],
    "system": [["amalg-n", "-S", "{doc}"], ["roundtrip", "-f", "{doc}"]],
    "sop1": [["sop1-verify", "-f", "{doc}"], ["roundtrip", "-f", "{doc}"]],
    "tp2": [["roundtrip", "-f", "{doc}"]],
    "flat": [["roundtrip", "-f", "{doc}"]],
    "assignments": [["type-family", "--assignments={doc}"]],
}

# result schemas are only partly read back, and a candidate's witness_kind
# is not read by every command: a wrong type there need not be an error
LOOSE_SCHEMAS = {"tp2", "flat"}
LOOSE_KEYS = {"witness_kind"}

DELETE = "<delete>"

VALUES = {
    int: st.integers(-3, 9),
    float: st.floats(allow_nan=False, allow_infinity=False, width=32),
    bool: st.booleans(),
    str: st.text(max_size=4),
    list: st.lists(st.integers(-2, 2) | st.text(max_size=2), max_size=2),
    dict: st.dictionaries(st.text(max_size=2), st.integers(-2, 2),
                          max_size=2),
    type(None): st.none(),
}


def json_paths(value, prefix=()):
    """Every path into ``value``, the root () first."""
    yield prefix
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield from json_paths(child, prefix + (key,))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutations(draw):
    """(schema, document index, path, new value or DELETE)."""
    schema = draw(st.sampled_from(sorted(DOCS)))
    index = draw(st.integers(0, len(DOCS[schema]) - 1))
    doc = DOCS[schema][index]
    path = draw(st.sampled_from(list(json_paths(doc))))
    old = type(at(doc, path))
    kinds = [k for k in VALUES if k is not old]
    if path and isinstance(path[-1], str):
        kinds.append(DELETE)
    kind = draw(st.sampled_from(kinds))
    value = DELETE if kind is DELETE else draw(VALUES[kind])
    return schema, index, path, value


def mutate(doc, path, value):
    doc = json.loads(json.dumps(doc))
    if not path:
        return value
    parent = at(doc, path[:-1])
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "variety.json").write_text(json.dumps(VARIETY))
    return path


@settings(max_examples=150, deadline=None)
@given(mutation=mutations())
@example(mutation=("variety", 0, ("X",), 5))
@example(mutation=("sop1", 0, ("phi",), 5))
@example(mutation=("presentation", 0, ("name",), [1]))
@example(mutation=("presentation", 0, ("cyclotomic_order",), True))
@example(mutation=("variety", 0, ("free_Y",), "x"))
@example(mutation=("system", 0, ("arrows", 0, "from"), 5))
@example(mutation=("system", 0, ("arrows", 0, "to"), None))
def test_mutated_document_exits_cleanly(workdir, mutation):
    schema, index, path, value = mutation
    text = json.dumps(mutate(DOCS[schema][index], path, value))
    doc_path = workdir / "doc.json"
    doc_path.write_text(text)
    subs = {"{doc}": text if schema == "assignments" else str(doc_path),
            "{variety}": str(workdir / "variety.json")}
    strict = (value is not DELETE and schema not in LOOSE_SCHEMAS
              and not LOOSE_KEYS & set(path))
    for argv in COMMANDS[schema]:
        for key, sub in subs.items():
            argv = [arg.replace(key, sub) for arg in argv]
        code, out, err = run(argv)
        assert code in (0, 1, 2), argv
        if code == 1:
            assert err.startswith(("schema error:", "error:")), (argv, err)
        else:
            json.loads(out)
        if strict:
            assert code == 1 and err.startswith("schema error:"), (argv, err)
