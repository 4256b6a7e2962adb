"""Which lines of ``src/expofield`` the benchmark workloads never run.

Off unless run, and needs nothing beyond the standard library and the
helpers of ``unreached.py`` beside it:

    python tests/traffic.py [--seeds 1 2 3]

For each workload of ``bench/workloads.py`` and each seed, it builds the
ops in a temporary directory, then runs the warm-up and one pass under the
line tracer of ``unreached.py``, from before the package is imported.  An
op that raises counts as run.  It prints, by file, the lines that no
workload ran.  It reads ``bench/`` and writes nothing in the repository,
not even bytecode.
"""

import argparse
import shutil
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("amalg-n", "homlaw", "cli-mix")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True
    from unreached import SRC, _global, _lines, _ran, _ranges
    lines = {path: _lines(compile(path.read_text(), str(path), "exec"))
             for path in sorted(SRC.glob("*.py"))}
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    tmp = tempfile.mkdtemp(prefix="expofield-traffic-")
    threading.settrace(_global)
    sys.settrace(_global)
    try:
        import workloads
        for seed in args.seeds:
            for name in WORKLOADS:
                work = workloads.build(name, seed, f"{tmp}/{name}-{seed}")
                for op in work.warm + work.ops:
                    try:
                        op.run()
                    except Exception:  # rejected inputs raise, and ran
                        pass
                work.close()
    finally:
        sys.settrace(None)
        threading.settrace(None)
        shutil.rmtree(tmp, ignore_errors=True)
    total = 0
    for path, numbers in lines.items():
        never = sorted(n for n in numbers if (str(path), n) not in _ran)
        if never:
            total += len(never)
            print(f"{path.name}: {_ranges(never)}")
    print(f"{total} of {sum(map(len, lines.values()))} lines never ran in "
          f"{', '.join(WORKLOADS)} at seeds {', '.join(map(str, args.seeds))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
