"""Record the digests that hold the CLI to byte-identical output.

    PYTHONPATH=src python3 tests/make_digests.py

Runs every call of ``calls()`` in this process, with ``COLUMNS=80`` so that
argparse wraps help text the same way everywhere, and writes cli_digests.json
beside this script. It maps each call's arguments to the SHA-256 of its exit
code, stdout, stderr and ``--out`` bytes; ``--out OUT`` in a key stands for a
temporary file. The digests are for Python 3.11 and numpy 2.4.6, the versions
CI pins. Regenerate them only in a change whose output is meant to change, and
list the calls that changed; never to make a failing test pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from qminority import cli
from reference import workloads

DIGESTS = Path(__file__).resolve().parent / "cli_digests.json"
OUT = "OUT"  # stands for the temporary --out file in a call's key
PARTS = ("code", "stdout", "stderr", "out")

KINDS = ("ad", "dep", "bf", "pf", "bpf")
OUT_COMMANDS = ("sweep", "compare", "best-response", "payoff")  # those that take --out
SWEEP_FIXED = {"p": ["--mu", "0.3", "--gamma", "pi/2"],
               "mu": ["--p", "0.3", "--gamma", "pi/2"],
               "gamma": ["--p", "0.3", "--mu", "0.3"]}
UNWRITABLE = "/no_such_dir_qm/x.csv"
SWEEP = ["sweep", "--channel", "pf", "--vary", "p"]
PAYOFF = ["payoff", "--channel", "pf", "--p", "0.3", "--mu", "0.2", "--gamma", "pi/2"]
BEST = ["best-response", "--channel", "pf", "--p", "0.5", "--mu", "0", "--gamma", "pi/2"]
COMPARE = ["compare", "--channel", "pf"]
# each failure the CLI reports, from argparse, the commands' checks and a failed write
ERRORS = [
    COMPARE + ["--p-points", "1"],
    COMPARE + ["--mu-points", "1", "--out", UNWRITABLE],
    COMPARE + ["--gamma", "2"],
    COMPARE + ["--p-points", "1000", "--mu-points", "101"],
    COMPARE + ["--out", UNWRITABLE],
    SWEEP + ["--mu", "2", "--gamma", "pi/2"],
    SWEEP + ["--mu", "0", "--gamma", "0", "--points", "1"],
    SWEEP + ["--mu", "0"],
    SWEEP + ["--p", "0.1", "--mu", "0", "--gamma", "0"],
    SWEEP + ["--mu", "0", "--gamma", "0", "--points", "3", "--out", UNWRITABLE],
    ["sweep", "--channel", "pf", "--vary", "gamma", "--p", "0.3", "--mu", "0.3",
     "--gamma", "0"],
    ["sweep", "--channel", "dephasing", "--vary", "p", "--mu", "0", "--gamma", "0"],
    PAYOFF + ["--strategy", "0,0,0"],
    PAYOFF + ["--gamma", "pi/0"],
    PAYOFF + ["--out", UNWRITABLE],
    BEST + ["--player", "7"],
    BEST + ["--grid", "1"],
    BEST + ["--others", "1,2"],
    BEST + ["--grid", "2", "--out", UNWRITABLE],
    ["stability"],
]


def calls() -> list[list[str]]:
    """The corpus: each call once to stdout, and once more to ``--out OUT`` for a
    command that takes ``--out`` when the call does not name its own."""
    argvs = [argv for name in sorted(workloads.WORKLOADS)
             for argv in workloads.reference_calls(name)]
    argvs += [["sweep", "--channel", kind, "--vary", vary, *SWEEP_FIXED[vary],
               "--points", str(points), "--format", fmt]
              for kind in KINDS for vary in SWEEP_FIXED for points in (2, 101, 257, 600)
              for fmt in ("csv", "json")]
    argvs += [["compare", "--channel", kind, "--p-points", str(p_points),
               "--mu-points", str(mu_points), "--format", fmt]
              for kind in KINDS for p_points, mu_points in ((11, 5), (2, 2), (3, 171), (257, 2))
              for fmt in ("csv", "json")]
    # plain validate is a reference call
    argvs += [["validate", "--inject-broken-channel"]] + ERRORS
    argvs += [["--help"]] + [[command, "--help"] for command in
                             ("sweep", "validate", "compare", "best-response", "payoff")]
    argvs += [PAYOFF + ["--out", "-"], COMPARE + ["--format", "json", "--out", "-"]]  # stdout
    return argvs + [argv + ["--out", OUT] for argv in argvs
                    if argv[0] in OUT_COMMANDS and "--out" not in argv and "--help" not in argv]


def key(argv: list[str]) -> str:
    return " ".join(argv)


def run(argv: list[str], workdir: Path) -> dict[str, str | None]:
    """One call's exit code, stdout, stderr and ``--out`` file, each as a SHA-256.

    ``--out OUT`` writes to ``workdir/out``; an absent file has digest None.
    """
    out = workdir / "out"
    with contextlib.suppress(FileNotFoundError):
        out.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main([str(out) if arg == OUT else arg for arg in argv])
        except SystemExit as exc:  # argparse's usage errors and --help
            code = exc.code
    parts = (str(code).encode(), stdout.getvalue().encode(), stderr.getvalue().encode(),
             out.read_bytes() if out.exists() else None)
    return {part: None if data is None else hashlib.sha256(data).hexdigest()
            for part, data in zip(PARTS, parts)}


def main() -> None:
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as workdir:
        digests = {key(argv): run(argv, Path(workdir)) for argv in calls()}
    lines = (f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(digests.items()))
    DIGESTS.write_text("{\n" + ",\n".join(lines) + "\n}\n")  # one call a line
    print(f"{DIGESTS.name}: {len(digests)} calls", file=sys.stderr)


if __name__ == "__main__":
    main()
