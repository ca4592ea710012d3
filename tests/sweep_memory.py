"""Peak RSS and minor page faults of a streamed ``sweep --out`` at two lengths.

    PYTHONPATH=src python tests/sweep_memory.py 1000001 5 10000

runs ``sweep --channel pf --vary p --mu 0.3 --gamma pi/2 --out ...`` at 1,001
points and at the given number of points, each in its own interpreter, prints
both peaks and both fault counts, and exits 1 if the longer sweep's peak RSS
exceeds the shorter one's by more than the given number of MB, or, when a
third bound is given, its minor faults exceed the shorter one's by more than
that many. A sweep whose freed chunks go back to the kernel faults their pages
in again on every chunk, about 4 faults a point.

On Linux a process's ``ru_maxrss`` starts at the high-water RSS of the process
that spawned it, so the sweeps must be spawned from a small interpreter like
this one, which imports neither numpy nor the package; a test runner spawns
this script rather than the sweeps.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

BASE_POINTS = 1001

_CLI = """
import resource, sys
from qminority import cli
code = cli.main(sys.argv[1:])
usage = resource.getrusage(resource.RUSAGE_SELF)
print(code, usage.ru_maxrss, usage.ru_minflt)
"""


def cli_usage(argv: list[str]) -> tuple[float, int]:
    """Peak RSS in MB and minor page faults of one CLI call with exactly these
    arguments, in its own interpreter; what the call prints goes to a pipe."""
    proc = subprocess.run([sys.executable, "-c", _CLI, *argv],
                          capture_output=True, text=True, check=True)
    code, kilobytes, faults = proc.stdout.splitlines()[-1].split()
    if code != "0":
        raise RuntimeError(f"{' '.join(argv)} exited {code}: {proc.stderr}")
    return int(kilobytes) / 1024, int(faults)


def written_usage(argv: list[str]) -> tuple[float, int]:
    """``cli_usage`` of the call written with --out to a file in a new temporary
    directory."""
    with tempfile.TemporaryDirectory() as tmp:
        return cli_usage([*argv, "--out", os.path.join(tmp, "out")])


def sweep_usage(points: int) -> tuple[float, int]:
    """Peak RSS in MB and minor faults of one sweep of ``points`` points, with --out."""
    return written_usage(["sweep", "--channel", "pf", "--vary", "p", "--mu", "0.3",
                          "--gamma", "pi/2", "--points", str(points)])


def main(argv: list[str]) -> int:
    points, bound_mb = int(argv[0]), float(argv[1])
    bound_faults = int(argv[2]) if len(argv) > 2 else None
    (base, base_faults), (peak, faults) = sweep_usage(BASE_POINTS), sweep_usage(points)
    print(f"{BASE_POINTS} points: peak RSS {base:.1f} MB, {base_faults} minor faults")
    fault_bound = "none" if bound_faults is None else f"+{bound_faults}"
    print(f"{points} points: peak RSS {peak:.1f} MB (bound +{bound_mb:g} MB), "
          f"{faults} minor faults (bound {fault_bound})")
    faults_ok = bound_faults is None or faults - base_faults <= bound_faults
    return 0 if peak - base <= bound_mb and faults_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
