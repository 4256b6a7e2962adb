"""The demos print the same bytes on every supported Python: their
concatenated stdout, in file-name order, hashes to one pinned value.  A
speedup that changes any printed element shows up here."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMOS_SHA256 = \
    "5e8e3c0edea8b30e1a74b283b012f524f14bce8280a90e45add866d96272a294"


def test_demos_print_the_pinned_bytes():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    digest = hashlib.sha256()
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert len(demos) == 6
    for demo in demos:
        run = subprocess.run([sys.executable, str(demo)], env=env,
                             capture_output=True, check=True)
        digest.update(run.stdout)
    assert digest.hexdigest() == DEMOS_SHA256
