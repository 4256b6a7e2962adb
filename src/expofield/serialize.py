"""JSON schemas for every persistent object, with canonical serialization.

Field elements travel as their canonical text; dumps sort keys and use fixed
separators, so identical inputs produce byte-identical documents.
"""

from __future__ import annotations

import json

from .amalg import (CompletionResult, IndepSystem, subset_label,
                    verify_independent_system)
from .efield import (EFieldPresentation, HullPresentation, WellDefCheck,
                     check_presentation, presentation)
from .errors import ExpoFieldError, SchemaError
from .exprlang import FlatSystem, parse_element, parse, print_system
from .fieldelem import FieldElem
from .mpoly import ZETA, _frac_str, is_valid_symbol
from .treeprops import (PHI_TEXT, PSI_TEXT, SOP1Candidate, TP2Witness,
                        VerifyReport)
from .variety import FreenessCertificate, ParametricVariety, ReductionResult


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string",
               int: "an integer", bool: "a boolean"}
_REQUIRED = object()


def _typed(value, kind, path: str):
    """``value`` (at ``path``), checked to have the JSON type ``kind``:
    ``[kind]`` asks for an array of values of that type, and ``{key: kind}``
    for an object with those fields.  A JSON ``true`` is not an integer."""
    if isinstance(kind, list):
        return [_typed(v, kind[0], f"{path}/{i}")
                for i, v in enumerate(_typed(value, list, path))]
    if isinstance(kind, dict):
        return {key: _field(value, key, path, k) for key, k in kind.items()}
    if not isinstance(value, kind) or kind is int and isinstance(value, bool):
        raise SchemaError(path or "/",
                          f"expected {_JSON_TYPES[kind]}, got {value!r}")
    return value


def _field(doc, key: str, path: str, kind, default=_REQUIRED):
    """The field ``key`` of the object ``doc`` at ``path``, checked to have
    the JSON type ``kind`` (see ``_typed``); ``default`` when it is absent,
    and an error when it is absent with no default."""
    if key not in _typed(doc, dict, path):
        if default is _REQUIRED:
            raise SchemaError(f"{path}/{key}", "missing")
        return default
    return _typed(doc[key], kind, f"{path}/{key}")


def _elem(text: str, order: int, path: str) -> FieldElem:
    try:
        return parse_element(text, order)
    except ExpoFieldError as exc:
        raise SchemaError(path, f"bad element {text!r}: {exc}")
    except ZeroDivisionError:
        raise SchemaError(path, f"element {text!r} has zero denominator")


def _built(make, path: str, *args, **kwargs):
    """``make(*args, **kwargs)``, with a library error it raises reported as
    a schema error at ``path``."""
    try:
        return make(*args, **kwargs)
    except ExpoFieldError as exc:
        raise SchemaError(path or "/", str(exc))


def _elems(doc, key: str, path: str, order: int) -> tuple:
    """The array of element strings ``doc[key]``, parsed."""
    return tuple(_elem(text, order, f"{path}/{key}/{i}")
                 for i, text in enumerate(_field(doc, key, path, [str])))


# -- presentations --------------------------------------------------------------


def presentation_to_json(f: EFieldPresentation) -> dict:
    return {
        "name": f.name,
        "cyclotomic_order": f.cyclotomic_order,
        "transcendentals": list(f.transcendentals),
        "egraph": [{"arg": str(a), "val": str(v)} for a, v in f.egraph],
    }


def _order(doc, path: str) -> int:
    """The document's cyclotomic order (default 1), an integer >= 1."""
    order = _field(doc, "cyclotomic_order", path, int, 1)
    if order < 1:
        raise SchemaError(f"{path}/cyclotomic_order", f"bad order {order!r}")
    return order


def _symbols(doc, key: str, path: str) -> tuple:
    """A list of symbol names (transcendentals or parameters): an array of
    distinct symbol strings, none of them the reserved ``E`` or ``zeta``."""
    names = _field(doc, key, path, [str])
    for i, name in enumerate(names):
        if not is_valid_symbol(name) or name in (ZETA, "E"):
            raise SchemaError(f"{path}/{key}/{i}", f"not a symbol: {name!r}")
        if name in names[:i]:
            raise SchemaError(f"{path}/{key}/{i}", f"repeated symbol {name!r}")
    return tuple(names)


def presentation_fields(doc, path: str = "") -> tuple:
    """A presentation document's name, cyclotomic order, transcendentals and
    (arg, val) graph pairs, each of the right type but not yet checked to
    present a field: ``efield-check`` reports what is wrong with them."""
    order = _order(doc, path)
    pairs = []
    for i, entry in enumerate(_field(doc, "egraph", path, list, [])):
        at = f"{path}/egraph/{i}"
        pairs.append((_elem(_field(entry, "arg", at, str), order, f"{at}/arg"),
                      _elem(_field(entry, "val", at, str), order, f"{at}/val")))
    return (_field(doc, "name", path, str), order,
            _symbols(doc, "transcendentals", path), tuple(pairs))


def presentation_from_json(doc: dict, path: str = "") -> EFieldPresentation:
    name, order, trans, pairs = presentation_fields(doc, path)
    for i, (arg, val) in enumerate(pairs):
        if val.is_zero():
            raise SchemaError(f"{path}/egraph/{i}/val", "graph value is zero")
        if arg.is_zero():
            raise SchemaError(f"{path}/egraph/{i}/arg", "graph argument is zero")
    return _built(presentation, f"{path}/egraph", name, order, trans, pairs)


# -- varieties --------------------------------------------------------------------


def variety_to_json(v: ParametricVariety) -> dict:
    return {
        "base_params": list(v.base_params),
        "locus_params": list(v.locus_params),
        "X": [str(x) for x in v.X],
        "Y": [str(y) for y in v.Y],
        "free_Y": list(v.free_Y),
        "cyclotomic_order": v.cyclotomic_order,
    }


def variety_from_json(doc: dict, path: str = "") -> ParametricVariety:
    order = _order(doc, path)
    base = _symbols(doc, "base_params", path)
    locus = _symbols(doc, "locus_params", path)
    xs = _elems(doc, "X", path, order)
    ys = _elems(doc, "Y", path, order)
    flags = tuple(_field(doc, "free_Y", path, [bool]))
    return _built(ParametricVariety, path, base_params=base,
                  locus_params=locus, X=xs, Y=ys, free_Y=flags,
                  cyclotomic_order=order)


# -- systems ---------------------------------------------------------------------


def _label_to_subset(label: str, path: str) -> frozenset:
    label = label.strip()
    if not (label.startswith("{") and label.endswith("}")):
        raise SchemaError(path, f"bad subset label {label!r}")
    inner = label[1:-1].strip()
    if not inner:
        return frozenset()
    try:
        return frozenset(int(x) for x in inner.split(","))
    except ValueError:
        raise SchemaError(path, f"bad subset label {label!r}")


def _node_of(arrow, key: str, path: str, nodes) -> frozenset:
    """The subset that ``arrow[key]`` labels, which must be a node."""
    label = _field(arrow, key, path, str)
    subset = _label_to_subset(label, f"{path}/{key}")
    if subset not in nodes:
        raise SchemaError(f"{path}/{key}", f"no node {label!r}")
    return subset


def system_to_json(s: IndepSystem) -> dict:
    nodes = {}
    arrows = []
    labels = sorted(s.nodes, key=lambda a: (len(a), sorted(a)))
    for a in labels:
        nodes[subset_label(a)] = presentation_to_json(s.nodes[a])
    for a in labels:
        for b in labels:
            if a < b and len(b) == len(a) + 1:
                arrows.append({
                    "from": subset_label(a),
                    "to": subset_label(b),
                    "map": {t: t for t in s.nodes[a].transcendentals},
                })
    return {"n": s.n, "nodes": nodes, "arrows": arrows}


def system_from_json(doc: dict, path: str = "") -> IndepSystem:
    n = _field(doc, "n", path, int)
    nodes = {}
    for label, nd in _field(doc, "nodes", path, dict).items():
        at = f"{path}/nodes/{label}"
        subset = _label_to_subset(label, at)
        if subset in nodes:
            raise SchemaError(at, f"repeated node {subset_label(subset)}")
        nodes[subset] = presentation_from_json(nd, at)
    for i, arrow in enumerate(_field(doc, "arrows", path, list, [])):
        at = f"{path}/arrows/{i}"
        low, high = (_node_of(arrow, key, at, nodes) for key in ("from", "to"))
        if not low < high:
            raise SchemaError(at, f"from {subset_label(low)} is not a proper "
                              f"subset of to {subset_label(high)}")
        for k, v in _field(arrow, "map", at, dict, {}).items():
            if k != v:
                raise SchemaError(f"{at}/map",
                                  "only identity inclusion maps are supported")
    return _built(IndepSystem, path, n=n, nodes=nodes)


# -- results ----------------------------------------------------------------------


def flat_to_json(fs: FlatSystem) -> dict:
    return {
        "xvars": list(fs.xvars),
        "yvars": list(fs.yvars),
        "polys": [str(p) for p in fs.polys],
        "aux_count": fs.aux_count,
        "pairing": [f"{y} := E({x})" for x, y in zip(fs.xvars, fs.yvars)],
    }


def freeness_to_json(cert: FreenessCertificate) -> dict:
    out = {"verdict": cert.verdict}
    if cert.relation is not None:
        out["relation"] = {"m": list(cert.relation), "a": str(cert.value)}
    return out


def reduction_to_json(rr: ReductionResult) -> dict:
    return {
        "A": [[_frac_str(q) for q in row] for row in rr.A],
        "b": [str(bi) for bi in rr.b],
        "N": rr.N,
        "index_map": list(rr.index_map),
        "carried_Y": rr.carried_Y,
        "vprime": variety_to_json(rr.vprime) if rr.vprime else None,
    }


def welldef_to_json(check: WellDefCheck) -> dict:
    return {
        "kernel_basis": [list(v) for v in check.kernel_basis],
        "verdicts": list(check.verdicts),
    }


def completion_to_json(res: CompletionResult) -> dict:
    return {
        "system": system_to_json(res.system),
        "welldef": welldef_to_json(res.check),
    }


def hull_to_json(h: HullPresentation) -> dict:
    return {
        "generators": [str(g) for g in h.generators],
        "closed_under_graph": h.closed_under_graph,
    }


def verify_report_to_json(rep: VerifyReport) -> dict:
    return {
        "condition_i": [
            {"branch": list(r.branch), "consistent": r.consistent,
             "detail": r.detail}
            for r in rep.condition_i],
        "condition_ii": rep.condition_ii,
        "condition_iii": [{"indices": list(ix), "holds": v}
                          for ix, v in rep.condition_iii],
        "ok": rep.ok,
    }


def tp2_certificate(w: TP2Witness, rep: VerifyReport, sigma) -> dict:
    branch_points = []
    for r in rep.condition_i:
        entry = {"branch": [int(x) for x in r.branch],
                 "consistent": r.consistent}
        if r.solution is not None:
            entry["x"] = [str(x) for x in r.solution.point_x]
            entry["y"] = [str(y) for y in r.solution.point_y]
        branch_points.append(entry)
    return {
        "witness_kind": "tp2",
        "n": w.n,
        "J": w.J,
        "sigma": [int(s) for s in sigma],
        "b": [str(x) for x in w.b],
        "c": [str(x) for x in w.c],
        "phi": print_system(w.phi),
        "psi": print_system(w.psi),
        "freeness": "free" if rep.ok else "failed",
        "branch_points": branch_points,
        "condition_ii": rep.condition_ii,
        "condition_iii_checked": len(rep.condition_iii),
        "condition_iii_ok": all(v for _, v in rep.condition_iii),
    }


def sop1_from_json(doc: dict, path: str = "") -> SOP1Candidate:
    depth = _field(doc, "depth", path, int)
    base = presentation_from_json(_field(doc, "base", path, dict), f"{path}/base")
    nodes = _field(doc, "tree", path, dict)
    tree = {}
    for node in nodes:
        tree[node] = _elems(nodes, node, f"{path}/tree", base.cyclotomic_order)
        if len(tree[node]) != 2:
            raise SchemaError(f"{path}/tree/{node}", "expected [y, z]")
    phi = parse(_field(doc, "phi", path, str, PHI_TEXT))
    psi = parse(_field(doc, "psi", path, str, PSI_TEXT))
    return _built(SOP1Candidate, path, depth=depth, tree=tree, base=base,
                  phi=phi, psi=psi)


def sop1_to_json(cand: SOP1Candidate) -> dict:
    return {
        "witness_kind": "sop1",
        "depth": cand.depth,
        "base": presentation_to_json(cand.base),
        "tree": {node: [str(y), str(z)]
                 for node, (y, z) in sorted(cand.tree.items())},
        "phi": print_system(cand.phi),
        "psi": print_system(cand.psi),
    }


def assignments_from_json(text: str, order: int) -> list:
    """The ``type-family`` assignments: a JSON array of objects, each
    mapping plain decimal exponents to element strings."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError("/", f"invalid JSON in --assignments: {exc}")
    assignments = []
    for i, entry in enumerate(_typed(doc, [dict], "")):
        asg = {}
        for key in entry:
            if not key.isdecimal() or key != str(int(key)):
                raise SchemaError(f"/{i}/{key}", "expected a decimal exponent")
            asg[int(key)] = _elem(_field(entry, key, f"/{i}", str), order,
                                  f"/{i}/{key}")
        assignments.append(asg)
    return assignments


# -- roundtrip -------------------------------------------------------------------


def detect_schema(doc) -> str:
    kind = _field(doc, "witness_kind", "", str, None)
    if kind is not None:
        return kind
    if "egraph" in doc:
        return "presentation"
    if "X" in doc:
        return "variety"
    if "nodes" in doc:
        return "system"
    if "xvars" in doc:
        return "flat"
    raise SchemaError("/", "unrecognized document shape")


def _system_checks(s: IndepSystem) -> dict:
    rep = verify_independent_system(s)
    return {"independent": rep.ok, "failures": [list(f) for f in rep.failures]}


def roundtrip(doc) -> dict:
    """Deserialize, re-serialize, byte-compare, and run the checks of the
    document's schema; a result schema (tp2, flat) counts as identical."""
    # kind -> (reader, writer, checks of the loaded object); built per call
    # to call the functions this module binds now (a profiler may wrap them)
    schemas = {
        "presentation": (presentation_from_json, presentation_to_json,
                         lambda f: {"check": check_presentation(f)}),
        "variety": (variety_from_json, variety_to_json, None),
        "system": (system_from_json, system_to_json, _system_checks),
        "sop1": (sop1_from_json, sop1_to_json, None),
        "tp2": (lambda d: _typed(d, {"n": int, "J": int, "sigma": [int],
                                     "freeness": str}, ""), None, None),
        "flat": (lambda d: _typed(d, {"xvars": [str], "yvars": [str],
                                      "polys": [str], "aux_count": int}, ""),
                 None, None),
    }
    kind = detect_schema(doc)
    if kind not in schemas:
        raise SchemaError("/witness_kind", f"unknown kind {kind!r}")
    read, write, checks = schemas[kind]
    obj = read(doc)
    identical = write is None or (canonical_dumps(write(obj))
                                  == canonical_dumps(doc))
    return {"schema": kind, "identical": identical,
            **(checks(obj) if checks else {})}
