"""Peak RSS and minor page faults of a 256-operator best-response search against a
1-operator one.

    PYTHONPATH=src python tests/kraus_memory.py 760

runs ``best-response --gamma pi/2 --grid 9 --out ...`` on ``--channel dep --p 0.3
--mu 0.3``, whose Kraus sets have 256 operators, and on ``--channel pf --p 0 --mu 0``,
whose sets have 1, each in its own interpreter spawned as ``tests/sweep_memory.py``
spawns its sweeps, prints both peaks and both fault counts, and exits 1 if the
depolarizing search's minor faults exceed the phase-flip one's by more than the
given number. A 256-operator set keeps its operators once, as the adjoint rows of
``apply_kraus``'s second product, beside a 96 KiB table of the columns and values its
first product gathers and scales: 1.1 MiB, about 280 pages. The dense (4096, 16) rows
of the operators kept beside them fault in about 480 pages more.
"""

from __future__ import annotations

import sys

from sweep_memory import written_usage

SEARCHES = {"dep": ("0.3", "0.3"), "pf": ("0", "0")}


def search_usage(channel: str) -> tuple[float, int]:
    p, mu = SEARCHES[channel]
    return written_usage(["best-response", "--channel", channel, "--p", p, "--mu", mu,
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
