"""The answer bytes of two benchmark workloads, checked against fixed digests.

Off unless run, and needs nothing beyond the standard library:

    python tests/answer_bytes.py [homlaw] [amalg-n]

For each named workload (both by default) and each of the seeds 1, 7 and
23, it builds the ops of ``bench/workloads.py``, runs them in op order and
hashes with SHA-256:

- homlaw: the printed E(a), E(b) and E(a+b) of every op, one per line;
- amalg-n: ``serialize.canonical_dumps`` of every op's result, which the
  workload's own checks compare with ``!=`` (cross-multiplied), so only
  this sees a change in how a value prints: ``completion_to_json`` for a
  ``CompletionResult``, ``{"ok", "failures"}`` for a ``SystemReport`` and
  ``payload()`` for a ``DomainError``.

It prints one "seed digest" line per seed and exits 1 when a workload's
lines differ from its digests below.  A speedup must leave them as they
are.  Set order must not reach an answer either, so amalg-n is checked
under more than one hash seed:

    PYTHONHASHSEED=1 python tests/answer_bytes.py amalg-n

It reads ``bench/`` and writes nothing in the repository, not even
bytecode.
"""

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 7, 23)
WANT = {
    "homlaw": {
        1: "6bc64e475a665426f98233dfe55d5673609204d8353ca706a9c5b04c50a0224f",
        7: "a091034094281c3101d5bc2ef9f754be78b4c5b730bd417333f541c83a092d68",
        23: "24d53af4f53ff61f026289bd4ab74cc1349a7fb1d506a766cddbd7f7eb4fe1dd",
    },
    "amalg-n": {
        1: "0fdf4ec044c93beb4d2f0de4845900a0a9514742abcb5690ab89eaeb7594db98",
        7: "fff0d7c65060079b0f0d2aaf2b7ef7e7e0193fd2e5afc02e90dac2f34728caac",
        23: "c1183e4f1f58c2f3bed1c3f978c03eb1e477f5addf2e5828ef91fb07cd0e9bc3",
    },
}


def _homlaw_bytes(op) -> bytes:
    return ("%s\n%s\n%s\n" % op.run()[:3]).encode()


def _amalg_bytes(op) -> bytes:
    from expofield import amalg, serialize
    from expofield.errors import DomainError
    try:
        r = op.run()
    except DomainError as exc:
        doc = exc.payload()
    else:
        if isinstance(r, amalg.CompletionResult):
            doc = serialize.completion_to_json(r)
        else:
            doc = {"ok": r.ok, "failures": [list(f) for f in r.failures]}
    return serialize.canonical_dumps(doc).encode()


ANSWER = {"homlaw": _homlaw_bytes, "amalg-n": _amalg_bytes}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", metavar="workload",
                    help="homlaw or amalg-n (default: both)")
    args = ap.parse_args(argv)
    for name in args.workloads:
        if name not in WANT:
            ap.error(f"unknown workload {name!r}")
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads
    ok = True
    for name in args.workloads or WANT:
        print(name)
        for seed in SEEDS:
            h = hashlib.sha256()
            for op in workloads.build(name, seed, None).ops:
                h.update(ANSWER[name](op))
            got = h.hexdigest()
            print(seed, got)
            if got != WANT[name][seed]:
                print(f"expected {WANT[name][seed]}")
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
