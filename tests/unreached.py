"""A line ratchet for ``src/expofield``: the test session fails when more of
its lines never run than the number committed here, ``LIMIT``.

Off unless loaded, and needs nothing beyond the standard library and pytest:

    python -m pytest -q -p unreached --hypothesis-seed=0

The lines counted are those the compiled code objects of each module
report (``co_lines``); a line runs when a ``sys.settrace`` line event names
it.  Only frames of this package's source files are traced, in the test
process and its threads, not in the subprocesses some tests start.  The
fixed Hypothesis seed keeps the count the same from run to run.  The
session's summary lists the lines that never ran, by file.  ``LIMIT`` may
only fall.
"""

import sys
import threading
from pathlib import Path

import pytest

LIMIT = 9

SRC = Path(__file__).resolve().parents[1] / "src" / "expofield"

_ran: set = set()  # (file name, line)
_ours: dict = {}  # code object -> whether it is ours
_LINES = pytest.StashKey[dict]()  # file -> the lines its code reports
_MISSED = pytest.StashKey[dict]()  # file name -> lines that never ran


def _lines(code):
    """Every line a code object, or one nested in it, reports."""
    out = {line for _, _, line in code.co_lines() if line}  # 0: no line
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            out |= _lines(const)
    return out


def _local(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    code = frame.f_code
    ours = _ours.get(code)
    if ours is None:
        ours = _ours[code] = code.co_filename.startswith(str(SRC))
    return _local if ours else None


def pytest_configure(config):
    if "expofield" in sys.modules:
        raise RuntimeError("unreached: expofield was imported before tracing")
    # read before the run, so that an edit during it cannot shift the lines
    config.stash[_LINES] = {
        path: _lines(compile(path.read_text(), str(path), "exec"))
        for path in sorted(SRC.glob("*.py"))}
    threading.settrace(_global)
    sys.settrace(_global)


def _ranges(lines) -> str:
    spans = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    missed = session.config.stash[_MISSED] = {}
    for path, lines in session.config.stash[_LINES].items():
        never = sorted(line for line in lines if (str(path), line) not in _ran)
        if never:
            missed[path.name] = never
    if sum(map(len, missed.values())) > LIMIT and session.exitstatus == 0:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    missed = config.stash[_MISSED]
    count = sum(map(len, missed.values()))
    tr = terminalreporter
    tr.section("unreached lines of src/expofield")
    for name, lines in missed.items():
        tr.write_line(f"{name}: {_ranges(lines)}")
    verdict = "over" if count > LIMIT else "within"
    tr.write_line(f"{count} lines never ran; {verdict} the limit of {LIMIT}")
