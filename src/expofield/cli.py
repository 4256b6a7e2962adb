"""Batch command-line front end.

Every subcommand reads JSON documents (and/or system text), runs one
pipeline stage, and writes one canonical JSON result.  Exit codes: 0 on
success, 2 on domain rejections (the payload carries the certificate), 1 on
usage, IO, schema or syntax errors (a message on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import serialize
from .amalg import amalgamate2, complete_system, indep
from .efield import (build_unchecked, check_presentation, hull, presentation,
                     solve, undeclared)
from .errors import DomainError, ExpoFieldError, SchemaError, UnsupportedShape
from .exprlang import eliminate_inequations, flatten, parse
from .treeprops import (tp2_witness, type_family, verify_finite_witness,
                        z_stabilizer_witness)
from .variety import additive_freeness, freeness_oracle, reduce


def _emit(args, payload: dict) -> int:
    text = serialize.canonical_dumps(payload)
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _load_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError("/", f"invalid JSON in {path}: {exc}")


def _system_text(args) -> str:
    if getattr(args, "expr", None):
        return args.expr
    with open(args.file) as fh:
        return fh.read()


def _order(args):
    """``--order``, or None when it is not given."""
    order = getattr(args, "order", None)
    if order is not None and order < 1:
        raise SchemaError("--order", f"expected an integer >= 1, got {order}")
    return order


def _load_presentation(args):
    order = _order(args)
    if getattr(args, "presentation", None):
        return serialize.presentation_from_json(_load_json(args.presentation))
    return presentation("Q", cyclotomic_order=order or 1)


def _elems(text: str, f, option: str):
    """Comma-separated element texts of ``option`` at ``f``'s order."""
    text = text.strip()
    if not text:
        return []
    return [serialize._elem(part.strip(), f.cyclotomic_order, option)
            for part in text.split(",")]


def cmd_normalize(args) -> int:
    system = parse(_system_text(args))
    system = eliminate_inequations(system)
    fs = flatten(system)
    return _emit(args, serialize.flat_to_json(fs))


def cmd_free_check(args) -> int:
    v = serialize.variety_from_json(_load_json(args.file))
    cert = additive_freeness(v)
    payload = serialize.freeness_to_json(cert)
    if args.oracle:
        try:
            oc = freeness_oracle(v, args.oracle)
        except UnsupportedShape as exc:
            raise SchemaError("--oracle", str(exc)) from None
        payload["oracle"] = {
            "bound": args.oracle,
            "verdict": oc.verdict,
            "agrees": oc.verdict == cert.verdict,
        }
    _emit(args, payload)
    return 0 if cert.is_free else 2


def cmd_reduce(args) -> int:
    v = serialize.variety_from_json(_load_json(args.file))
    rr = reduce(v)
    return _emit(args, serialize.reduction_to_json(rr))


def cmd_solve(args) -> int:
    v = serialize.variety_from_json(_load_json(args.file))
    f = _load_presentation(args)
    res = solve(f, v, auto_extend=not args.no_auto_extend)
    payload = {
        "presentation": serialize.presentation_to_json(res.presentation),
        "point": {"x": [str(x) for x in res.point_x],
                  "y": [str(y) for y in res.point_y]},
        "param_values": {k: str(v_) for k, v_ in sorted(res.param_values.items())},
        "adjoined": [[name, role] for name, role in res.adjoined],
    }
    return _emit(args, payload)


def cmd_efield_check(args) -> int:
    fields = serialize.presentation_fields(_load_json(args.presentation))
    return _emit(args, check_presentation(build_unchecked(*fields)))


def cmd_hull(args) -> int:
    f = _load_presentation(args)
    gens = _elems(args.generators, f, "-g")
    extra = undeclared(f, gens)
    if extra:
        raise UnsupportedShape(f"undeclared symbols {extra}")
    h = hull(f, gens)
    return _emit(args, serialize.hull_to_json(h))


def cmd_indep(args) -> int:
    f = _load_presentation(args)
    result = indep(f, _elems(args.A, f, "-A"), _elems(args.B, f, "-B"),
                   _elems(args.C, f, "-C"))
    return _emit(args, {"independent": result})


def cmd_amalg2(args) -> int:
    base = serialize.presentation_from_json(_load_json(args.base))
    f1 = serialize.presentation_from_json(_load_json(args.first))
    f2 = serialize.presentation_from_json(_load_json(args.second))
    am = amalgamate2(base, f1, f2)
    payload = {
        "presentation": serialize.presentation_to_json(am.composite),
        "g1": {k: str(v) for k, v in sorted(am.g1.inclusion.items())},
        "g2": {k: str(v) for k, v in sorted(am.g2.inclusion.items())},
        "welldef": serialize.welldef_to_json(am.check),
    }
    return _emit(args, payload)


def cmd_amalg_n(args) -> int:
    s = serialize.system_from_json(_load_json(args.system))
    res = complete_system(s)
    return _emit(args, serialize.completion_to_json(res))


def cmd_tp2(args) -> int:
    try:
        sigma = tuple(int(x) for x in args.sigma.split(","))
    except ValueError:
        raise SchemaError("--sigma",
                          f"not comma-separated integers: {args.sigma!r}")
    w, rep = tp2_witness(args.n, args.J, sigma)
    payload = serialize.tp2_certificate(w, rep, sigma)
    _emit(args, payload)
    return 0 if rep.ok else 2


def cmd_sop1_verify(args) -> int:
    cand = serialize.sop1_from_json(_load_json(args.file))
    branches = args.branches
    if branches != "all":
        branches = [b.strip() for b in branches.split(",") if b.strip()]
    try:
        rep = verify_finite_witness(cand, branches=branches)
    except SchemaError as exc:
        raise SchemaError("--branches", exc.detail) from None
    return _emit(args, serialize.verify_report_to_json(rep))


def cmd_zwitness(args) -> int:
    if args.presentation:
        f = serialize.presentation_from_json(_load_json(args.presentation))
    else:
        order = _order(args)
        if order is None:
            # the order comes from the denominator of a rational c
            c = serialize._elem(args.c, 1, "-c")
            if not c.is_rational():
                raise SchemaError("-c", f"{args.c!r} is not rational; give "
                                        "-F or --order")
            order = c.as_fraction().denominator
        f = presentation("Q", cyclotomic_order=order)
    c = serialize._elem(args.c, f.cyclotomic_order, "-c")
    d = serialize._elem(args.d, f.cyclotomic_order, "-d") if args.d else None
    w = z_stabilizer_witness(f, c, d=d)
    payload = {
        "mode": w.mode,
        "argument": str(w.argument),
        "checks": {k: bool(v) for k, v in sorted(w.checks.items())},
        "presentation": serialize.presentation_to_json(w.presentation),
    }
    return _emit(args, payload)


def cmd_type_family(args) -> int:
    f = _load_presentation(args)
    assignments = serialize.assignments_from_json(args.assignments,
                                                  f.cyclotomic_order)
    fam = type_family(f, assignments)
    payload = {
        "presentations": [serialize.presentation_to_json(p)
                          for p in fam.presentations],
        "certificates": [{"i": i, "j": j,
                          "least_disagreement": n}
                         for i, j, n in fam.certificates],
    }
    return _emit(args, payload)


def cmd_roundtrip(args) -> int:
    doc = _load_json(args.file)
    report = serialize.roundtrip(doc)
    return _emit(args, report)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: each subparser binds its
    ``cmd_*`` function when it is built."""
    p = argparse.ArgumentParser(
        prog="expofield",
        description="Exact computation with existentially closed exponential fields")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        sp.add_argument("-o", "--output", help="write JSON here instead of stdout")
        return sp

    sp = add("normalize", cmd_normalize,
             help="parse, eliminate inequations, flatten")
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("-e", "--expr", help="system text")
    g.add_argument("-f", "--file", help="file with system text")

    sp = add("free-check", cmd_free_check, help="decide additive freeness")
    sp.add_argument("-f", "--file", required=True, help="variety JSON")
    sp.add_argument("--oracle", type=int, default=0,
                    help="also run the brute-force oracle with this bound")

    sp = add("reduce", cmd_reduce, help="reduce to additively free form")
    sp.add_argument("-f", "--file", required=True, help="variety JSON")

    sp = add("solve", cmd_solve, help="realize an exponential point")
    sp.add_argument("-f", "--file", required=True, help="variety JSON")
    sp.add_argument("-F", "--presentation", help="presentation JSON")
    sp.add_argument("--order", type=int, help="cyclotomic order when no -F")
    sp.add_argument("--no-auto-extend", action="store_true")

    sp = add("efield-check", cmd_efield_check, help="validate a presentation")
    sp.add_argument("-F", "--presentation", required=True)

    sp = add("hull", cmd_hull, help="generator hull under the graph")
    sp.add_argument("-F", "--presentation", required=True)
    sp.add_argument("-g", "--generators", required=True,
                    help="comma-separated element texts")

    sp = add("indep", cmd_indep, help="the independence relation")
    sp.add_argument("-F", "--presentation", required=True)
    sp.add_argument("-A", required=True)
    sp.add_argument("-B", required=True)
    sp.add_argument("-C", default="")

    sp = add("amalg2", cmd_amalg2, help="amalgamate two extensions")
    sp.add_argument("--base", required=True)
    sp.add_argument("-1", "--first", required=True)
    sp.add_argument("-2", "--second", required=True)

    sp = add("amalg-n", cmd_amalg_n, help="complete an independent system")
    sp.add_argument("-S", "--system", required=True)

    sp = add("tp2", cmd_tp2, help="array witness for the tree property")
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("-J", type=int, required=True)
    sp.add_argument("--sigma", required=True, help="comma-separated branch")

    sp = add("sop1-verify", cmd_sop1_verify, help="falsify a candidate tree")
    sp.add_argument("-f", "--file", required=True, help="candidate JSON")
    sp.add_argument("--branches", default="all",
                    help="'all' or comma-separated binary strings")

    sp = add("zwitness", cmd_zwitness, help="kernel-stabilizer witness")
    sp.add_argument("-F", "--presentation")
    sp.add_argument("-c", required=True, help="the non-integer scalar")
    sp.add_argument("-d", help="target value for the non-constant mode")
    sp.add_argument("-m", "--order", type=int,
                    help="cyclotomic order when no -F is given")

    sp = add("type-family", cmd_type_family, help="pairwise-distinct types")
    sp.add_argument("-F", "--presentation")
    sp.add_argument("--order", type=int)
    sp.add_argument("--assignments", required=True,
                    help='JSON like [{"1":"2"},{"1":"3"}]')

    sp = add("roundtrip", cmd_roundtrip, help="validate and re-serialize")
    sp.add_argument("-f", "--file", required=True)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return args.fn(args)
    except SchemaError as exc:
        sys.stderr.write(f"schema error: {exc}\n")
        return 1
    except DomainError as exc:
        sys.stdout.write(serialize.canonical_dumps(exc.payload()))
        return 2
    except ExpoFieldError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
