"""Memory gates: peak RSS and minor page faults of CLI calls against a baseline call.

    PYTHONPATH=src python tests/memory_gates.py NAME

runs the gate NAME of ``GATES``. A gate runs its baseline call and its measured
calls, each in its own child, prints every reading and exits 1 if a measured
call's peak RSS exceeds the baseline's by more than the gate's MB bound, or its
minor faults by more than its fault bound, where it has one. Tier-1 runs
``sweep``, ``kraus`` and ``validate``; CI runs ``sweep-full`` and ``compare``,
which take under a minute together. An unknown name or a second argument exits 2.

- ``sweep``: a streamed ``sweep --out`` of 20,001 points, 79 slices, against one
  of 1,001; within 3 MB and 60 faults. It read +0.0 to +0.2 MB and +10 to +23
  faults over 23 runs. A table writer that %-formats each slice's cells into
  ``point * len(values)``, byte-identical but leaving the heap larger, read +0.4
  to +0.6 MB and +120 to +133 faults over 22 runs.
- ``sweep-full``: the same sweep at 1,000,001 points; within 5 MB and 10,000
  faults. It read +0.3 to +0.4 MB and +86 to +151 faults over 3 runs. A sweep whose freed chunks go back to
  the kernel faults their pages in again on every chunk, about 4 faults a point:
  +383,635 faults at 100,001 points.
- ``compare``: ``compare --channel dep --out`` on 1,000 x 100 cells, as CSV and as
  JSON, against the default 11 x 5 grid as CSV; within 10 MB. Both read +7.4 to
  +7.5 MB; with the text held whole they peaked at 101.4 MB as CSV and 203.2 MB as
  JSON, against 33.5 MB.
- ``kraus``: ``best-response --grid 9 --out`` on the depolarizing channel, whose
  Kraus sets have 256 operators, against phase flip at p = mu = 0, whose sets have
  1; within 760 faults. A 256-operator set is laid out from its column/value table
  and keeps its operators once, as adjoint rows, beside that 96 KiB gather table:
  1.1 MiB, about 280 pages. It read +481 to +514 faults; a plain 1 MiB stack built
  first read +551 to +555, and dense (4096, 16) operator rows kept beside the
  adjoint rows +1,036 to +1,040.
- ``validate``: ``validate``, whose completeness check builds 16 depolarizing
  stacks of 256 operators, 1 MiB each, one at a time, against a 1-operator
  phase-flip ``payoff``; within 450 faults. It read +392 to +405 faults, and +366
  to +376 with one more 288-byte temporary per damping table, at the same
  tracemalloc peak: heap placement alone moves it by about 25. A previous stack
  kept alive while the next one is built read +573 to +581.

A child reads its own ``VmHWM``, which exec resets, where ``ru_maxrss`` would start
at the high water of the process that spawned it, so a gate can run from any
parent, pytest included. It imports a private copy of the package without its
``__pycache__`` and writes no bytecode, because heap history, and with it the fault
count, differs between an import that compiles the sources and one that loads
bytecode. Linux only.
"""

from __future__ import annotations

import importlib.util
import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

# the check every child script starts with: it must import the private copy
_PRIVATE = """
import os, sys
from qminority import cli
if not os.path.realpath(cli.__file__).startswith(os.getcwd()):
    sys.exit(f"imported {cli.__file__}, not the private copy")
"""
_CHILD = """
import resource
code = cli.main(sys.argv[1:])
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
with open("/proc/self/status") as status:
    peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(peak, faults)
sys.exit(code)
"""


def run_private(script: str, argv: list[str]) -> subprocess.CompletedProcess:
    """Run ``script`` with these arguments in a new child that imports a bytecode-free
    copy of the package, as ``cli``, from a new temporary directory, its working
    directory, where a relative ``--out`` path is written."""
    package = importlib.util.find_spec("qminority").submodule_search_locations[0]
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(package, os.path.join(tmp, "qminority"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = os.pathsep.join(filter(None, [tmp, os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-c", _PRIVATE + script, *argv], cwd=tmp,
                              timeout=600, capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1"))


def cli_usage(argv: list[str]) -> tuple[float, int]:
    """Peak RSS in MB and minor page faults of one CLI call with these arguments, in
    its own ``run_private`` child."""
    proc = run_private(_CHILD, argv)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr}")
    kilobytes, faults = proc.stdout.splitlines()[-1].split()
    return int(kilobytes) / 1024, int(faults)


def sweep(points: int) -> list[str]:
    return ["sweep", "--channel", "pf", "--vary", "p", "--mu", "0.3", "--gamma", "pi/2",
            "--points", str(points), "--out", "out"]


def compare(p_points: int, mu_points: int, fmt: str) -> list[str]:
    return ["compare", "--channel", "dep", "--p-points", str(p_points), "--mu-points",
            str(mu_points), "--format", fmt, "--out", "out"]


def search(channel: str, p: str, mu: str) -> list[str]:
    return ["best-response", "--channel", channel, "--p", p, "--mu", mu, "--gamma", "pi/2",
            "--grid", "9", "--out", "out"]


class Gate(NamedTuple):
    base: list[str]
    measured: list[list[str]]
    mb: float | None  # bound on each measured call's peak RSS over the baseline's
    faults: int | None  # bound on its minor faults over the baseline's


PAYOFF = ["payoff", "--channel", "pf", "--p", "0", "--mu", "0", "--gamma", "pi/2"]
GATES = {
    "sweep": Gate(sweep(1001), [sweep(20001)], 3, 60),
    "sweep-full": Gate(sweep(1001), [sweep(1000001)], 5, 10000),
    "compare": Gate(compare(11, 5, "csv"), [compare(1000, 100, fmt) for fmt in ("csv", "json")],
                    10, None),
    "kraus": Gate(search("pf", "0", "0"), [search("dep", "0.3", "0.3")], None, 760),
    "validate": Gate(PAYOFF, [["validate"]], None, 450),
}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in GATES:
        print(f"usage: memory_gates.py {{{','.join(GATES)}}}", file=sys.stderr)
        return 2
    gate = GATES[argv[0]]
    base_peak, base_faults = cli_usage(gate.base)
    print(f"{' '.join(gate.base)}: peak RSS {base_peak:.1f} MB, {base_faults} minor faults")
    passed = True
    for call in gate.measured:
        peak, faults = cli_usage(call)
        print(f"{' '.join(call)}: peak RSS {peak:.1f} MB ({peak - base_peak:+.1f}, bound "
              f"{'none' if gate.mb is None else f'+{gate.mb}'}), {faults} minor faults "
              f"({faults - base_faults:+d}, bound "
              f"{'none' if gate.faults is None else f'+{gate.faults}'})")
        passed &= gate.mb is None or peak - base_peak <= gate.mb
        passed &= gate.faults is None or faults - base_faults <= gate.faults
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
