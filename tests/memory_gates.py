"""Memory gates: peak RSS and minor page faults of CLI calls against a baseline call.

    PYTHONPATH=src python tests/memory_gates.py sweep 1000001 5 10000
    PYTHONPATH=src python tests/memory_gates.py compare 1000 100 10
    PYTHONPATH=src python tests/memory_gates.py kraus 760
    PYTHONPATH=src python tests/memory_gates.py validate 450

Each gate runs its baseline call and its measured calls, each in its own child,
prints every reading and exits 1 if a measured call's peak RSS exceeds the
baseline's by more than the MB bound, or its minor faults by more than the fault
bound, where the gate takes one:

- ``sweep POINTS MB [FAULTS]``: a streamed ``sweep --out`` of POINTS points against
  one of 1,001. A sweep whose freed chunks go back to the kernel faults their pages
  in again on every chunk, about 4 faults a point.
- ``compare P_POINTS MU_POINTS MB``: ``compare --channel dep --out`` on the large
  grid, as CSV and as JSON, against the default 11 x 5 grid as CSV.
- ``kraus FAULTS``: ``best-response --grid 9 --out`` on the depolarizing channel, whose
  Kraus sets have 256 operators, against phase flip at p = mu = 0, whose sets have 1.
  A 256-operator set is laid out from its column/value table and keeps its operators
  once, as adjoint rows, beside that 96 KiB gather table: 1.1 MiB, about 280 pages. It
  read +481 to +489 faults; a plain 1 MiB stack built first read +551 to +555, and
  dense (4096, 16) operator rows kept beside the adjoint rows fault in about 490 pages
  more.
- ``validate FAULTS``: ``validate``, whose completeness check builds 16 depolarizing
  stacks of 256 operators, 1 MiB each, against a 1-operator phase-flip ``payoff``.
  It read +392 to +403 faults, and +366 to +376 with one more 288-byte temporary per
  damping table, at the same tracemalloc peak: heap placement alone moves it by about
  25. A previous stack kept alive while the next one is built adds about 255 faults.

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


def sweep(points) -> list[str]:
    return ["sweep", "--channel", "pf", "--vary", "p", "--mu", "0.3", "--gamma", "pi/2",
            "--points", str(points), "--out", "out"]


def compare(p_points, mu_points, fmt: str) -> list[str]:
    return ["compare", "--channel", "dep", "--p-points", str(p_points), "--mu-points",
            str(mu_points), "--format", fmt, "--out", "out"]


def search(channel: str, p: str, mu: str) -> list[str]:
    return ["best-response", "--channel", channel, "--p", p, "--mu", mu, "--gamma", "pi/2",
            "--grid", "9", "--out", "out"]


PAYOFF = ["payoff", "--channel", "pf", "--p", "0", "--mu", "0", "--gamma", "pi/2"]

# gate name -> its arguments -> (baseline call, measured calls, MB bound, fault bound)
GATES = {
    "sweep": lambda points, mb, faults=None: (sweep(1001), [sweep(points)], mb, faults),
    "compare": lambda p_points, mu_points, mb: (
        compare(11, 5, "csv"), [compare(p_points, mu_points, f) for f in ("csv", "json")], mb, None),
    "kraus": lambda faults: (search("pf", "0", "0"), [search("dep", "0.3", "0.3")], None, faults),
    "validate": lambda faults: (PAYOFF, [["validate"]], None, faults),
}


def main(argv: list[str]) -> int:
    base, measured, mb, faults = GATES[argv[0]](*argv[1:])
    base_peak, base_faults = cli_usage(base)
    print(f"{' '.join(base)}: peak RSS {base_peak:.1f} MB, {base_faults} minor faults")
    passed = True
    for call in measured:
        peak, count = cli_usage(call)
        print(f"{' '.join(call)}: peak RSS {peak:.1f} MB ({peak - base_peak:+.1f}, bound "
              f"{'none' if mb is None else '+' + mb}), {count} minor faults "
              f"({count - base_faults:+d}, bound {'none' if faults is None else '+' + faults})")
        passed &= mb is None or peak - base_peak <= float(mb)
        passed &= faults is None or count - base_faults <= int(faults)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
