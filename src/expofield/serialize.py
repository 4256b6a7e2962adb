"""JSON schemas for every persistent object, with canonical serialization.

Field elements travel as their canonical text; dumps sort keys and use fixed
separators, so identical inputs produce byte-identical documents.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .amalg import CompletionResult, IndepSystem, subset_label
from .efield import EFieldPresentation, HullPresentation, WellDefCheck, presentation
from .errors import ExpoFieldError, SchemaError
from .exprlang import FlatSystem, parse_element, parse, print_system
from .fieldelem import FieldElem
from .treeprops import SOP1Candidate, TP2Witness, VerifyReport
from .variety import FreenessCertificate, ParametricVariety, ReductionResult


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _parse_frac(text, path: str) -> Fraction:
    try:
        if isinstance(text, int):
            return Fraction(text)
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(path, f"not a rational: {text!r} ({exc})")


def _elem(text, order: int, path: str) -> FieldElem:
    if not isinstance(text, str):
        raise SchemaError(path, f"expected an element string, got {text!r}")
    try:
        return parse_element(text, order)
    except ExpoFieldError as exc:
        raise SchemaError(path, f"bad element {text!r}: {exc}")
    except ZeroDivisionError:
        raise SchemaError(path, f"element {text!r} has zero denominator")


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise SchemaError(f"{path}/{key}", "missing")
    return doc[key]


# -- presentations --------------------------------------------------------------


def presentation_to_json(f: EFieldPresentation) -> dict:
    return {
        "name": f.name,
        "cyclotomic_order": f.cyclotomic_order,
        "transcendentals": list(f.transcendentals),
        "egraph": [{"arg": str(a), "val": str(v)} for a, v in f.egraph],
    }


def cyclotomic_order_of(doc: dict, path: str = "") -> int:
    """The document's cyclotomic order (default 1), an int >= 1."""
    order = doc.get("cyclotomic_order", 1)
    if not isinstance(order, int) or order < 1:
        raise SchemaError(f"{path}/cyclotomic_order", f"bad order {order!r}")
    return order


def presentation_from_json(doc: dict, path: str = "") -> EFieldPresentation:
    if not isinstance(doc, dict):
        raise SchemaError(path or "/", "expected an object")
    name = _require(doc, "name", path)
    order = cyclotomic_order_of(doc, path)
    trans = _require(doc, "transcendentals", path)
    pairs = []
    for i, entry in enumerate(doc.get("egraph", [])):
        arg = _elem(_require(entry, "arg", f"{path}/egraph/{i}"), order,
                    f"{path}/egraph/{i}/arg")
        val = _elem(_require(entry, "val", f"{path}/egraph/{i}"), order,
                    f"{path}/egraph/{i}/val")
        if val.is_zero():
            raise SchemaError(f"{path}/egraph/{i}/val", "graph value is zero")
        if arg.is_zero():
            raise SchemaError(f"{path}/egraph/{i}/arg", "graph argument is zero")
        pairs.append((arg, val))
    try:
        return presentation(name, order, tuple(trans), tuple(pairs))
    except ExpoFieldError as exc:
        raise SchemaError(f"{path}/egraph", str(exc))


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
    order = doc.get("cyclotomic_order", 1)
    base = tuple(_require(doc, "base_params", path))
    locus = tuple(_require(doc, "locus_params", path))
    xs = tuple(_elem(x, order, f"{path}/X/{i}")
               for i, x in enumerate(_require(doc, "X", path)))
    ys = tuple(_elem(y, order, f"{path}/Y/{i}")
               for i, y in enumerate(_require(doc, "Y", path)))
    flags = tuple(bool(b) for b in _require(doc, "free_Y", path))
    try:
        return ParametricVariety(base_params=base, locus_params=locus,
                                 X=xs, Y=ys, free_Y=flags,
                                 cyclotomic_order=order)
    except ExpoFieldError as exc:
        raise SchemaError(path or "/", str(exc))


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
    n = _require(doc, "n", path)
    nodes_doc = _require(doc, "nodes", path)
    nodes = {}
    for label, nd in nodes_doc.items():
        subset = _label_to_subset(label, f"{path}/nodes/{label}")
        nodes[subset] = presentation_from_json(nd, f"{path}/nodes/{label}")
    for i, arrow in enumerate(doc.get("arrows", [])):
        mapping = arrow.get("map", {})
        for k, v in mapping.items():
            if k != v:
                raise SchemaError(f"{path}/arrows/{i}/map",
                                  "only identity inclusion maps are supported")
    try:
        return IndepSystem(n=n, nodes=nodes)
    except ExpoFieldError as exc:
        raise SchemaError(path or "/", str(exc))


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
            {"branch": list(r.branch) if not isinstance(r.branch, str)
             else r.branch,
             "consistent": r.consistent, "detail": r.detail}
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
    depth = _require(doc, "depth", path)
    base = presentation_from_json(_require(doc, "base", path), f"{path}/base")
    order = base.cyclotomic_order
    tree = {}
    for node, pair in _require(doc, "tree", path).items():
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"{path}/tree/{node}", "expected [y, z]")
        tree[node] = (_elem(pair[0], order, f"{path}/tree/{node}/0"),
                      _elem(pair[1], order, f"{path}/tree/{node}/1"))
    phi = parse(doc.get("phi", "E(y*x) = z"))
    psi = parse(doc.get("psi", "y1 = y2 & z1 != z2"))
    try:
        return SOP1Candidate(depth=depth, tree=tree, base=base,
                             phi=phi, psi=psi)
    except ExpoFieldError as exc:
        raise SchemaError(path or "/", str(exc))


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


# -- roundtrip -------------------------------------------------------------------


def detect_schema(doc) -> str:
    if not isinstance(doc, dict):
        raise SchemaError("/", "top-level JSON must be an object")
    if "witness_kind" in doc:
        return doc["witness_kind"]
    if "egraph" in doc:
        return "presentation"
    if "X" in doc:
        return "variety"
    if "nodes" in doc:
        return "system"
    if "xvars" in doc:
        return "flat"
    raise SchemaError("/", "unrecognized document shape")


def roundtrip(doc) -> dict:
    """Deserialize, re-serialize, byte-compare, and run the relevant checks."""
    from .amalg import verify_independent_system
    from .efield import check_presentation

    kind = detect_schema(doc)
    report = {"schema": kind}
    if kind == "presentation":
        obj = presentation_from_json(doc)
        again = presentation_to_json(obj)
        report["identical"] = canonical_dumps(again) == canonical_dumps(doc)
        report["check"] = check_presentation(obj)
    elif kind == "variety":
        obj = variety_from_json(doc)
        again = variety_to_json(obj)
        report["identical"] = canonical_dumps(again) == canonical_dumps(doc)
    elif kind == "system":
        obj = system_from_json(doc)
        again = system_to_json(obj)
        report["identical"] = canonical_dumps(again) == canonical_dumps(doc)
        rep = verify_independent_system(obj)
        report["independent"] = rep.ok
        report["failures"] = [list(f) for f in rep.failures]
    elif kind == "sop1":
        obj = sop1_from_json(doc)
        again = sop1_to_json(obj)
        report["identical"] = canonical_dumps(again) == canonical_dumps(doc)
    elif kind == "tp2":
        for key in ("n", "J", "sigma", "freeness"):
            _require(doc, key, "")
        report["identical"] = True
    elif kind == "flat":
        for key in ("xvars", "yvars", "polys", "aux_count"):
            _require(doc, key, "")
        report["identical"] = True
    else:
        raise SchemaError("/witness_kind", f"unknown kind {kind!r}")
    return report
