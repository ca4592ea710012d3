"""Statement coverage of ``src/qminority`` by the Tier-1 tests, standard library only.

    PYTHONPATH=src python tests/line_coverage.py

runs the Tier-1 tests in this process under ``sys.settrace`` and
``threading.settrace``, recording the lines executed in ``src/qminority``. A
module's executable lines are those its code objects map instructions to
(``co_lines``, through every code object in ``co_consts``). The script exits 1
if Tier-1 fails, or with the list of executable ``file:line`` pairs no test
reached. There is no allow-list: a line that only a child process runs counts
as not reached.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qminority"


def executable_lines(path: Path) -> set[int]:
    stack, lines = [compile(path.read_text(), str(path), "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def traced_tier1() -> tuple[int, dict[str, set[int]]]:
    """Tier-1's exit code, and the lines it ran in each module, by file name."""
    reached = {path.name: set() for path in PACKAGE.glob("*.py")}
    names = {}  # co_filename -> file name in the package, or None

    def name_of(code):
        if code.co_filename not in names:
            path = Path(code.co_filename).resolve()
            names[code.co_filename] = path.name if path.parent == PACKAGE else None
        return names[code.co_filename]

    def trace_lines(frame, event, arg):
        reached[name_of(frame.f_code)].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        if name_of(frame.f_code) is None:
            return None
        return trace_lines(frame, event, arg)

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                            str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, reached


def main() -> int:
    code, reached = traced_tier1()
    if code != 0:
        print(f"Tier-1 failed (pytest exit code {code})")
        return 1
    problems = []
    for path in sorted(PACKAGE.glob("*.py")):
        missed = executable_lines(path) - reached[path.name]
        problems += [f"{path.relative_to(ROOT)}:{line} not reached" for line in sorted(missed)]
    print("\n".join(problems)
          or f"every executable line of {PACKAGE.relative_to(ROOT)} was reached")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
