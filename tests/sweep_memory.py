"""Peak RSS of a streamed ``sweep --out`` at two lengths.

    PYTHONPATH=src python tests/sweep_memory.py 1000001 5

runs ``sweep --channel pf --vary p --mu 0.3 --gamma pi/2 --out ...`` at 1,001
points and at the given number of points, each in its own interpreter, prints
both peaks and exits 1 if the longer sweep's peak RSS exceeds the shorter
one's by more than the given number of MB.

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
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def cli_peak_rss_mb(argv: list[str]) -> float:
    """Peak RSS in MB of one CLI call, in its own interpreter, written with --out."""
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run([sys.executable, "-c", _CLI, *argv,
                               "--out", os.path.join(tmp, "out")],
                              capture_output=True, text=True, check=True)
    code, kilobytes = proc.stdout.split()
    if code != "0":
        raise RuntimeError(f"{' '.join(argv)} exited {code}: {proc.stderr}")
    return int(kilobytes) / 1024


def peak_rss_mb(points: int) -> float:
    """Peak RSS in MB of one sweep of ``points`` points written with --out."""
    return cli_peak_rss_mb(["sweep", "--channel", "pf", "--vary", "p", "--mu", "0.3",
                            "--gamma", "pi/2", "--points", str(points)])


def main(argv: list[str]) -> int:
    points, bound_mb = int(argv[0]), float(argv[1])
    base, peak = peak_rss_mb(BASE_POINTS), peak_rss_mb(points)
    print(f"peak RSS {base:.1f} MB at {BASE_POINTS} points, {peak:.1f} MB at "
          f"{points} points (bound +{bound_mb:g} MB)")
    return 0 if peak - base <= bound_mb else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
