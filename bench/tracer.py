"""Per-layer tracing from outside the library.

The tracer replaces each listed public function by a wrapper at every
binding where it is reachable: the defining module, every module that
imported it by name (``expofield.amalg.jacobian_rank``,
``expofield.cli.hull``), or the class for methods.  Each wrapped call
records a span (name, start, end, parent, request) in flat arrays kept in
memory; self time is derived once at the end as span time minus the time
covered by child spans.  Hot coefficient operations (``Fraction`` add and
mul) are counted without spans, because a timer around them would cost as
much as the operation.  ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from fractions import Fraction

# layer name -> (module, attribute path) of every function it times.  The
# comments name the end-to-end metric each group should move, and where.
LAYERS = {
    # polynomial kernel (ROADMAP 3): throughput_ops_s on homlaw and amalg-n
    "mpoly.mul": [("expofield.mpoly", "MPoly.__mul__")],
    "mpoly.exact_divide": [("expofield.mpoly", "MPoly.exact_divide")],
    # normal form (ROADMAP 4): latency_p50_ms on homlaw
    "fieldelem.new": [("expofield.fieldelem", "FieldElem.__init__")],
    "fieldelem.pow": [("expofield.fieldelem", "FieldElem.__pow__")],
    "fieldelem.eq": [("expofield.fieldelem", "FieldElem.__eq__")],
    # rank (ROADMAP 5a): throughput_ops_s and latency_p90_ms on amalg-n,
    # no change on homlaw, where ff_rank is never called
    "linalg.ff_rank": [("expofield.linalg", "ff_rank")],
    "linalg.jacobian_rank": [("expofield.linalg", "jacobian_rank")],
    "linalg.kernel_basis": [("expofield.linalg", "kernel_basis")],
    "linalg.integer_kernel_basis": [("expofield.linalg", "integer_kernel_basis")],
    # span solving (ROADMAP 5b): throughput_ops_s on homlaw; watch
    # latency_p50_ms on cli-mix for a cost
    "linalg.coordinate_matrix": [("expofield.linalg", "coordinate_matrix")],
    "linalg.qlin_solve": [("expofield.linalg", "qlin_solve")],
    "linalg.rational_span_solve": [("expofield.linalg", "rational_span_solve")],
    "efield.e_eval": [("expofield.efield", "e_eval")],
    # hull and independence: throughput_ops_s on amalg-n (efield.solve also
    # moves setup_s on homlaw)
    "efield.hull": [("expofield.efield", "hull")],
    "efield.merge_graphs": [("expofield.efield", "merge_graphs")],
    "efield.solve": [("expofield.efield", "solve")],
    "efield.extend_graph": [("expofield.efield", "extend_graph")],
    "amalg.indep": [("expofield.amalg", "indep")],
    "amalg.acf_indep": [("expofield.amalg", "acf_indep")],
    "amalg.complete_system": [("expofield.amalg", "complete_system")],
    # front end: latency_p50_ms on cli-mix only
    "variety.additive_freeness": [("expofield.variety", "additive_freeness")],
    "variety.reduce": [("expofield.variety", "reduce")],
    "exprlang.parse": [("expofield.exprlang", "parse")],
    "exprlang.flatten": [("expofield.exprlang", "flatten")],
    "serialize.load": [("expofield.serialize", name) for name in (
        "presentation_from_json", "variety_from_json", "system_from_json",
        "sop1_from_json")],
    "serialize.dump": [("expofield.serialize", name) for name in (
        "canonical_dumps", "presentation_to_json", "variety_to_json",
        "system_to_json", "flat_to_json", "freeness_to_json",
        "reduction_to_json", "welldef_to_json", "completion_to_json",
        "hull_to_json", "verify_report_to_json", "tp2_certificate",
        "sop1_to_json")],
    "treeprops.verify_finite_witness": [("expofield.treeprops",
                                         "verify_finite_witness")],
    "cli.main": [("expofield.cli", "main")],
}

# counter name -> (owner, attribute) of every call it counts
COUNTED = {
    "coeff.fraction_ops": [(Fraction, "__add__"), (Fraction, "__radd__"),
                           (Fraction, "__mul__"), (Fraction, "__rmul__")],
}

# counted only where the library still has it (ROADMAP 5a removes it)
DIVISION_PATH = ("expofield.linalg", "_rank_field_division")

OP = "op"  # root span of one benchmark operation


def _resolve(module: str, path: str):
    """(owner, attribute, original) for a dotted attribute path."""
    owner = sys.modules[module]
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr, owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


def _term_count(poly) -> int:
    terms = getattr(poly, "terms", None)
    return len(terms) if terms is not None else 0


class Tracer:
    def __init__(self):
        self.names = [OP] + list(LAYERS)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self._patches: list = []
        self.reset()

    def reset(self) -> None:
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("l")
        self.span_request = array("l")
        self._stack = [-1]
        self._request = [-1]
        self.counters = dict.fromkeys(
            list(COUNTED) + ["mpoly.exact_divide.useful",
                             "linalg.ff_rank.division_path_calls"], 0)
        self.max_terms = 0

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, name: str, fn, after=None):
        nid = self._ids[name]
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, requests = self.span_parent, self.span_request
        stack, request = self._stack, self._request
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            requests.append(request[0])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, key: str, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _gauge(self, result) -> None:
        n = _term_count(result)
        if n > self.max_terms:
            self.max_terms = n

    def _divide_outcome(self, result) -> None:
        if result is not None:
            self.counters["mpoly.exact_divide.useful"] += 1
            self._gauge(result)

    def call_op(self, fn):
        """Run one benchmark operation under a root span."""
        self._request[0] = len(self.span_start)
        try:
            return self._spanned(OP, fn)()
        finally:
            self._request[0] = -1

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every listed function at each binding in ``expofield.*``."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "expofield" or name.startswith("expofield.")]
        hooks = {"mpoly.mul": self._gauge,
                 "mpoly.exact_divide": self._divide_outcome}
        wrapped_fns = {}
        for layer, targets in LAYERS.items():
            for module, path in targets:
                owner, attr, original = _resolve(module, path)
                wrapper = self._spanned(layer, original, hooks.get(layer))
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                else:
                    wrapped_fns[id(original)] = (original, wrapper)
        if DIVISION_PATH[0] in sys.modules and hasattr(
                sys.modules[DIVISION_PATH[0]], DIVISION_PATH[1]):
            original = getattr(sys.modules[DIVISION_PATH[0]], DIVISION_PATH[1])
            wrapped_fns[id(original)] = (original, self._counted(
                "linalg.ff_rank.division_path_calls", original))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrapped_fns.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        for key, targets in COUNTED.items():
            for owner, attr in targets:
                self._patch(owner, attr, self._counted(key, owner.__dict__[attr]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        """Per layer: calls and self time in ns; plus counters and gauge."""
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        n = len(starts)
        child = [0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(n):
            nid = self.span_name[i]
            calls[nid] += 1
            self_ns[nid] += ends[i] - starts[i] - child[i]
        layers = {name: (calls[i], self_ns[i]) for i, name in enumerate(self.names)}
        return {"layers": layers, "counters": dict(self.counters),
                "max_terms": self.max_terms, "spans": n}

    def write_spans(self, path) -> None:
        """Spans as gzip'd TSV: name, start and end (ns from the first
        span), parent index and request index (-1 for none)."""
        t0 = self.span_start[0] if len(self.span_start) else 0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\trequest\n")
            names = self.names
            for nid, s, e, p, r in zip(self.span_name, self.span_start,
                                       self.span_end, self.span_parent,
                                       self.span_request):
                fh.write(f"{names[nid]}\t{s - t0}\t{e - t0}\t{p}\t{r}\n")
