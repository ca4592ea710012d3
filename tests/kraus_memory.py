"""Peak RSS and minor page faults of a 256-operator best-response search against a
1-operator one.

    PYTHONPATH=src python tests/kraus_memory.py 1130

runs ``best-response --gamma pi/2 --grid 9 --out ...`` on ``--channel dep --p 0.3
--mu 0.3``, whose Kraus sets have 256 operators, and on ``--channel pf --p 0 --mu 0``,
whose sets have 1, each in its own interpreter spawned as ``tests/sweep_memory.py``
spawns its sweeps, prints both peaks and both fault counts, and exits 1 if the
depolarizing search's minor faults exceed the phase-flip one's by more than the
given number. A 256-operator set keeps its operators once, in the row layout of
``apply_kraus``'s first product, beside their adjoint rows: 2 MiB, 512 pages. A third
1 MiB copy of the operators faults in about 250 pages more.
"""

from __future__ import annotations

import sys

from sweep_memory import cli_usage

SEARCHES = {"dep": ("0.3", "0.3"), "pf": ("0", "0")}


def search_usage(channel: str) -> tuple[float, int]:
    p, mu = SEARCHES[channel]
    return cli_usage(["best-response", "--channel", channel, "--p", p, "--mu", mu,
                      "--gamma", "pi/2", "--grid", "9"])


def main(argv: list[str]) -> int:
    bound_faults = int(argv[0])
    usage = {channel: search_usage(channel) for channel in SEARCHES}
    for channel, (peak, faults) in usage.items():
        p, mu = SEARCHES[channel]
        print(f"{channel} (p {p}, mu {mu}): peak RSS {peak:.1f} MB, {faults} minor faults")
    extra = usage["dep"][1] - usage["pf"][1]
    print(f"dep - pf: {extra} minor faults (bound +{bound_faults})")
    return 0 if extra <= bound_faults else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
