"""Peak RSS and minor page faults of ``validate`` against a 1-operator ``payoff`` call.

    PYTHONPATH=src python tests/validate_memory.py 450

runs ``validate``, whose completeness check builds 16 depolarizing stacks of 256
operators, 1 MiB each, and ``payoff --channel pf --p 0 --mu 0 --gamma pi/2``, whose
Kraus set has 1 operator, each in its own interpreter spawned as
``tests/sweep_memory.py`` spawns its sweeps, prints both peaks and both fault
counts, and exits 1 if validate's minor faults exceed the payoff call's by more than
the given number. With one dense stack alive at a time the gap is about 315 faults;
a previous stack kept alive while the next one is built adds about 235.
"""

from __future__ import annotations

import sys

from sweep_memory import cli_usage

CALLS = {"validate": ["validate"],
         "payoff": ["payoff", "--channel", "pf", "--p", "0", "--mu", "0", "--gamma", "pi/2"]}


def main(argv: list[str]) -> int:
    bound_faults = int(argv[0])
    usage = {name: cli_usage(args) for name, args in CALLS.items()}
    for name, (peak, faults) in usage.items():
        print(f"{' '.join(CALLS[name])}: peak RSS {peak:.1f} MB, {faults} minor faults")
    extra = usage["validate"][1] - usage["payoff"][1]
    print(f"validate - payoff: {extra} minor faults (bound +{bound_faults})")
    return 0 if extra <= bound_faults else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
