"""Peak RSS of ``compare --out`` on a large grid against the default 11 x 5 grid.

    PYTHONPATH=src python tests/compare_memory.py 1000 100 20

runs ``compare --channel dep --out ...`` at 11 x 5 cells and at the given
``--p-points`` x ``--mu-points``, as CSV and as JSON, each in its own
interpreter spawned as ``tests/sweep_memory.py`` spawns its sweeps, prints the
peaks and exits 1 if either large grid's peak RSS exceeds the 11 x 5 one's by
more than the given number of MB.
"""

from __future__ import annotations

import sys

from sweep_memory import cli_peak_rss_mb


def peak_rss_mb(p_points: int, mu_points: int, fmt: str) -> float:
    return cli_peak_rss_mb(["compare", "--channel", "dep", "--p-points", str(p_points),
                            "--mu-points", str(mu_points), "--format", fmt])


def main(argv: list[str]) -> int:
    p_points, mu_points, bound_mb = int(argv[0]), int(argv[1]), float(argv[2])
    base = peak_rss_mb(11, 5, "csv")
    worst = 0.0
    for fmt in ("csv", "json"):
        peak = peak_rss_mb(p_points, mu_points, fmt)
        worst = max(worst, peak - base)
        print(f"{fmt}: peak RSS {base:.1f} MB at 11 x 5 cells, {peak:.1f} MB at "
              f"{p_points} x {mu_points} (bound +{bound_mb:g} MB)")
    return 0 if worst <= bound_mb else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
