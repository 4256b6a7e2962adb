#!/usr/bin/env python3
"""expofield benchmark: end-to-end and per-layer numbers for three workloads.

    python3 bench/run.py --workload homlaw --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 30     # one row per workload

Stdlib only; imports the library from ``src/`` next to this directory.
Each run sets up ``SETUP_REPEATS`` times (import, input generation from
``--seed``, warm-up) and reports the median as ``setup_s``.  It then runs
whole passes over the workload's operations, one client in a closed loop,
until ``--seconds`` have elapsed and at least ``MIN_SAMPLES`` operations
are timed.  Every operation is checked against an answer known by
construction; failures are counted, never raised.

Host speed.  On a shared host the speed of one core drifts by up to 2x
over minutes, so raw timings of one run do not repeat.  After every
operation (and every set-up) the runner times a fixed stdlib calibration
loop for ``CALIB_SHARE`` of the operation's time.  Each time is scaled to a
host that runs the loop ``REF_SPEED`` times per second, using the median
speed measured within ``SPEED_WINDOW_NS`` of it.  The human-readable row
also prints the raw p50 and the host speed.

End-to-end metrics (``--trace 0``), all times host-scaled:
  setup_s           median set-up time
  throughput_ops_s  operations per second of one pass, summed from each
                    operation's median latency
  latency_p50_ms, latency_p90_ms  over every timed operation
  ok_op_share       share of operations whose check passed
  peak_rss_mb       peak resident set size of the process

``--trace 1`` instead runs alternating untraced and traced passes, each on
freshly built inputs, and reports per-layer call counts (from the first
traced pass, so they repeat exactly for a seed) and median raw self times;
see ``tracer.py``.  Spans of the first traced pass are written to
``.bench_out/spans-<workload>.tsv.gz``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts every failed
operation; ``correct`` is false when an operation fails that does not hit a
defect listed in ``workloads.py`` (the unary-minus and zero-denominator
bugs, which fail on ``cli-mix`` until they are fixed).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("amalg-n", "homlaw", "cli-mix")
SETUP_REPEATS = 5
MIN_SAMPLES = 110  # leaves at least 10 samples beyond p90
REF_SPEED = 1500.0  # calibration units per second of the reference host
CALIB_SHARE = 0.1
SPEED_WINDOW_NS = 500_000_000  # host speed is a median over +-0.5 s

E2E_UNITS = {"setup_s": "s", "throughput_ops_s": "1/s", "latency_p50_ms": "ms",
             "latency_p90_ms": "ms", "ok_op_share": "share", "peak_rss_mb": "MB"}


def _prepare_path() -> None:
    for p in (str(SRC), str(BENCH_DIR)):
        if p not in sys.path:
            sys.path.insert(0, p)


def _fresh_import():
    """Import the library and the workload modules from scratch."""
    for name in list(sys.modules):
        if name.startswith("expofield") or name in ("benchgen", "workloads"):
            del sys.modules[name]
    return importlib.import_module("workloads")


def _run_op(op, call=None):
    try:
        result = call(op.run) if call else op.run()
        return result, None
    except Exception as exc:  # an escaped exception is a failed op
        return None, exc


# The calibration loop is shaped like the library's hot path, so both slow
# down alike: the product of two 12-term sparse polynomials with tuple
# monomials and Fraction coefficients.
_CALIB_POLY = {(("a", i), ("b", j)): Fraction(i + 1, j + 2)
               for i in range(1, 5) for j in range(1, 4)}


def _calibration_unit() -> dict:
    out = {}
    for m1, c1 in _CALIB_POLY.items():
        for m2, c2 in _CALIB_POLY.items():
            exps = dict(m1)
            for sym, e in m2:
                exps[sym] = exps.get(sym, 0) + e
            mono = tuple(sorted(exps.items()))
            prev = out.get(mono)
            out[mono] = c1 * c2 if prev is None else prev + c1 * c2
    return out


def host_speed(seconds: float) -> float:
    """Calibration units per second, over at least one unit and ``seconds``."""
    clock = time.perf_counter
    n, t0 = 0, clock()
    while True:
        _calibration_unit()
        n += 1
        elapsed = clock() - t0
        if elapsed >= seconds:
            return n / elapsed


class Tally:
    """Per-op latencies with the host speed after each, failures, digest."""

    def __init__(self, work):
        self.work = work
        self.samples = []  # (op index, elapsed ns, host speed, end ns)
        self.attempted = 0
        self.failures = []  # (label, reason, known defect)
        self.digest = hashlib.sha256() if work.output else None

    def record(self, i, elapsed_ns, result, exc, speed=REF_SPEED, end_ns=0,
               first_pass=True) -> None:
        op = self.work.ops[i]
        self.samples.append((i, elapsed_ns, speed, end_ns))
        self.attempted += 1
        reason = op.check(result, exc)
        if reason:
            self.failures.append((op.label, reason, op.known_defect))
        if self.digest is not None and first_pass:
            self.digest.update(self.work.output(result))

    @property
    def unexpected(self) -> list:
        return [f for f in self.failures if not f[2]]

    def scaled(self) -> list:
        """Per op, its latencies scaled to the reference host speed."""
        out = [[] for _ in self.work.ops]
        ends = [s[3] for s in self.samples]
        lo = hi = 0
        for i, elapsed, _, end in self.samples:
            while ends[lo] < end - SPEED_WINDOW_NS:
                lo += 1
            while hi < len(ends) and ends[hi] <= end + SPEED_WINDOW_NS:
                hi += 1
            speed = statistics.median(s[2] for s in self.samples[lo:hi])
            out[i].append(elapsed * speed / REF_SPEED)
        return out


def timed_loop(work, seconds: float) -> Tally:
    tally = Tally(work)
    clock = time.perf_counter_ns
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes == 0 or time.perf_counter() < deadline \
            or tally.attempted < MIN_SAMPLES:
        for i, op in enumerate(work.ops):
            t0 = clock()
            result, exc = _run_op(op)
            elapsed = clock() - t0
            speed = host_speed(CALIB_SHARE * elapsed / 1e9)
            tally.record(i, elapsed, result, exc, speed, clock(),
                         first_pass=passes == 0)
        passes += 1
    return tally


def setup(name: str, seed: int, workdir: str):
    """Set up SETUP_REPEATS times; return (workloads module, work,
    host-scaled set-up times)."""
    times, speeds = [], []
    work = None
    for _ in range(SETUP_REPEATS):
        if work is not None:
            work.close()
        t0 = time.perf_counter()
        wl = _fresh_import()
        work = wl.build(name, seed, workdir)
        for op in work.warm:
            _run_op(op)
        times.append(time.perf_counter() - t0)
        speeds.append(host_speed(CALIB_SHARE * times[-1]))
    speed = statistics.median(speeds)
    return wl, work, [t * speed / REF_SPEED for t in times]


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    workdir = str(OUT_DIR / f"{name}-{os.getpid()}")
    wl, work, setup_times = setup(name, seed, workdir)
    try:
        tally = timed_loop(work, seconds)
    finally:
        work.close()
    scaled = tally.scaled()
    samples = sorted(x for lat in scaled for x in lat)
    q = statistics.quantiles(samples, n=10)
    p50, p90 = q[4], q[8]
    pass_ns = sum(statistics.median(lat) for lat in scaled)
    failed = len(tally.failures)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "throughput_ops_s": len(work.ops) / (pass_ns / 1e9),
        "latency_p50_ms": p50 / 1e6,
        "latency_p90_ms": p90 / 1e6,
        "ok_op_share": (tally.attempted - failed) / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "samples": len(samples),
        "beyond_p90": sum(1 for x in samples if x > p90),
        "failed_op_share": failed / tally.attempted,
        "raw_p50_ms": statistics.median(s[1] for s in tally.samples) / 1e6,
        "host.calib_ops_s": statistics.median(s[2] for s in tally.samples),
    }
    if tally.digest is not None:
        info["stdout_sha256"] = tally.digest.hexdigest()
    return _result(tally, metrics, info)


def _result(tally, metrics, info) -> dict:
    return {"correct": not tally.unexpected, "attempted": tally.attempted,
            "failed": len(tally.failures), "metrics": metrics, "info": info,
            "failures": sorted({f"{label}: {reason}" + (
                f" [known defect: {known}]" if known else "")
                for label, reason, known in tally.failures})}


def one_pass(wl, name: str, seed: int, workdir: str, tr=None):
    """Build fresh inputs, warm up and time one pass, traced when ``tr`` is
    given.  Returns (work, [(elapsed_ns, result, exception)] per op)."""
    work = wl.build(name, seed, workdir)
    try:
        for op in work.warm:
            _run_op(op)
        outcomes = []
        clock = time.perf_counter_ns
        if tr is not None:
            tr.reset()
            tr.install()
        try:
            for op in work.ops:
                t0 = clock()
                result, exc = _run_op(op, tr.call_op if tr is not None else None)
                outcomes.append((clock() - t0, result, exc))
        finally:
            if tr is not None:
                tr.uninstall()
    finally:
        work.close()
    return work, outcomes


def traced(name: str, seed: int, seconds: float) -> dict:
    import tracer as tracing

    workdir = str(OUT_DIR / f"{name}-{os.getpid()}")
    wl = _fresh_import()
    tr = tracing.Tracer()
    rates = {False: [], True: []}
    self_ns = {layer: [] for layer in tr.names}
    speeds = []
    first = tally = None
    deadline = time.perf_counter() + seconds
    while first is None or time.perf_counter() < deadline:
        for trace_on in (False, True):
            work, outcomes = one_pass(wl, name, seed, workdir,
                                      tr if trace_on else None)
            speeds.append(host_speed(0.05))
            rates[trace_on].append(
                len(work.ops) / (sum(o[0] for o in outcomes) / 1e9))
            if not trace_on:
                continue
            summary = tr.summary()
            for layer, (_, ns) in summary["layers"].items():
                self_ns[layer].append(ns)
            if first is None:
                first = summary
                tally = Tally(work)
                for i, (elapsed, result, exc) in enumerate(outcomes):
                    tally.record(i, elapsed, result, exc)
                OUT_DIR.mkdir(exist_ok=True)
                tr.write_spans(OUT_DIR / f"spans-{name}.tsv.gz")
    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.calls"] = first["layers"][layer][0]
        metrics[f"{layer}.self_s"] = statistics.median(self_ns[layer]) / 1e9
    divides = first["layers"]["mpoly.exact_divide"][0]
    counters = first["counters"]
    metrics["mpoly.exact_divide.useful_ratio"] = (
        counters["mpoly.exact_divide.useful"] / divides if divides else 0.0)
    metrics["mpoly.max_terms"] = first["max_terms"]
    metrics["coeff.fraction_ops.calls"] = counters["coeff.fraction_ops"]
    metrics["linalg.ff_rank.division_path_calls"] = \
        counters["linalg.ff_rank.division_path_calls"]
    metrics["host.calib_ops_s"] = statistics.median(speeds)
    untraced_rate = statistics.median(rates[False])
    traced_rate = statistics.median(rates[True])
    metrics["trace.untraced_ops_s"] = untraced_rate
    metrics["trace.traced_ops_s"] = traced_rate
    metrics["trace.overhead_ops_s"] = traced_rate - untraced_rate
    info = {"spans": first["spans"], "traced_passes": len(rates[True])}
    return _result(tally, metrics, info)


def _row(name: str, res: dict) -> str:
    m, info = res["metrics"], res["info"]
    if "setup_s" not in m:
        return (f"{name}: {len(m)} per-layer metrics from "
                f"{info['traced_passes']} traced passes, {info['spans']} spans")
    parts = [f"{k}={m[k]:.4g} {E2E_UNITS[k]}" for k in E2E_UNITS]
    parts.append(f"samples={info['samples']} beyond_p90={info['beyond_p90']}")
    parts.append(f"failed_op_share={info['failed_op_share']:.4g} "
                 f"({res['failed']}/{res['attempted']})")
    parts.append(f"raw_p50={info['raw_p50_ms']:.4g} ms")
    parts.append(f"host.calib_ops_s={info['host.calib_ops_s']:.4g} 1/s")
    if "stdout_sha256" in info:
        parts.append(f"stdout_sha256={info['stdout_sha256']}")
    return f"{name}: " + "  ".join(parts)


def _run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    rows, merged = [], {"correct": True, "attempted": 0, "failed": 0,
                        "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        rows.extend(lines[:-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for key, value in res["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print("\n".join(rows))
    print(json.dumps(merged))
    return 0


def _layer_unit(key: str) -> str:
    if key.endswith(".self_s"):
        return "s"
    if key.endswith("_ops_s"):
        return "1/s"
    if key.endswith("_ratio"):
        return "share"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "expofield" / "__init__.py").is_file():
        print(f"error: expofield sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    _prepare_path()
    res = (traced if args.trace else end_to_end)(
        args.workload, args.seed, args.seconds)
    unit = _layer_unit if args.trace else E2E_UNITS.get
    print(_row(args.workload, res))
    for failure in res["failures"]:
        print(f"  failed: {failure}")
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": unit(k)}
                    for k, v in res["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
