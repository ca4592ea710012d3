"""Workload plans and output checks for the qminority benchmark.

A plan is the list of CLI argument vectors one pass runs, in order. The
seed changes the inputs only where the work stays the same size: it shuffles
the order of the sweep and compare calls, and draws the best-response
operating point strictly inside (0, 1), which keeps the Kraus operator
counts at 18 (amplitude damping) and 256 (depolarizing). It draws from a
fixed set of points whose outputs are recorded, so every seed is checked
against reference data. The default seed runs the calls in their canonical
order at the points named in ROADMAP.md.
"""

from __future__ import annotations

import json
import random

DEFAULT_SEED = 0

# Payoffs may move by this much and still match the reference outputs.
PAYOFF_TOL = 1e-12

WORKLOADS = {
    "figure-sweeps": "the 35 figure sweeps (3,535 points); dominated by channel "
                     "construction and the build_channel cache",
    "best-response-ad": "17^3 lattice on amplitude damping (18 operators, one channel "
                        "build); per-point game/linalg overhead",
    "best-response-dep": "9^3 lattice on depolarizing (256 operators); the only "
                         "workload dominated by the apply_kraus kernel",
    "validate-compare": "invariant suite plus closed-form comparison for all five "
                        "channels; the only user of formulas",
}

KINDS = ("amplitude_damping", "depolarizing", "bit_flip", "phase_flip",
         "bit_phase_flip")

# The seven parameterisations of the paper's figures, in the order and
# spelling the acceptance test passes them to the CLI.
SWEEPS = (
    ("p", (("mu", "0"), ("gamma", "pi/2"))),
    ("p", (("mu", "0.3"), ("gamma", "pi/2"))),
    ("p", (("mu", "0.7"), ("gamma", "pi/2"))),
    ("p", (("mu", "1"), ("gamma", "pi/2"))),
    ("mu", (("p", "0.3"), ("gamma", "pi/2"))),
    ("mu", (("p", "0.7"), ("gamma", "pi/2"))),
    ("gamma", (("p", "0.3"), ("mu", "0.3"))),
)

# Commands that write their main output to --out.
FILE_COMMANDS = ("sweep", "compare", "best-response")

SWEEP_HEADER = "channel,p,mu,gamma,player,payoff"
COMPARE_HEADER = "channel,p,mu,gamma,formula,simulated,difference"


# Best-response operating points a non-default seed draws from.
DRAWN_POINTS = 12


def _best_response(channel: str, p: str, mu: str) -> list[str]:
    argv = ["best-response", "--channel", channel, "--p", p, "--mu", mu,
            "--gamma", "pi/2"]
    return argv + ["--grid", "9"] if channel == "dep" else argv


def _drawn_points(channel: str) -> list[tuple[str, str]]:
    rng = random.Random(channel)
    return [tuple(f"{rng.uniform(0.05, 0.95):.6f}" for _ in range(2))
            for _ in range(DRAWN_POINTS)]


def reference_calls(workload: str) -> list[list[str]]:
    """Every call any seed's plan can make, for recording reference outputs."""
    calls = plan(workload, DEFAULT_SEED)
    if workload.startswith("best-response"):
        channel = calls[0][2]
        calls += [_best_response(channel, p, mu) for p, mu in _drawn_points(channel)]
    return calls


def plan(workload: str, seed: int) -> list[list[str]]:
    """CLI argument vectors of one pass, without --out."""
    rng = random.Random(seed)
    shuffle = seed != DEFAULT_SEED
    if workload == "figure-sweeps":
        ops = []
        for vary, fixed in SWEEPS:
            for kind in KINDS:
                argv = ["sweep", "--channel", kind, "--vary", vary]
                for flag, value in fixed:
                    argv += [f"--{flag}", value]
                ops.append(argv)
        if shuffle:
            rng.shuffle(ops)
        return ops
    if workload in ("best-response-ad", "best-response-dep"):
        channel, p, mu = ("ad", "0.4", "0.3") if workload.endswith("ad") else ("dep", "0.3", "0.3")
        if shuffle:
            p, mu = rng.choice(_drawn_points(channel))
        return [_best_response(channel, p, mu)]
    if workload == "validate-compare":
        compares = [["compare", "--channel", k] for k in ("ad", "dep", "bf", "pf", "bpf")]
        if shuffle:
            rng.shuffle(compares)
        return [["validate"]] + compares
    raise ValueError(f"unknown workload {workload!r}")


def key(argv: list[str]) -> str:
    """Reference-data key of one call: its arguments without --out."""
    return " ".join(argv)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= PAYOFF_TOL * max(1.0, abs(b))


def _compare_csv(got: str, ref: str, header: str) -> list[str]:
    got_lines, ref_lines = got.splitlines(), ref.splitlines()
    if not got_lines or got_lines[0] != header:
        return ["CSV header differs"]
    if len(got_lines) != len(ref_lines):
        return [f"{len(got_lines) - 1} rows, expected {len(ref_lines) - 1}"]
    for number, (line, ref_line) in enumerate(zip(got_lines[1:], ref_lines[1:]), 1):
        fields, ref_fields = line.split(","), ref_line.split(",")
        if len(fields) != len(ref_fields):
            return [f"row {number}: {len(fields)} fields"]
        for field, ref_field in zip(fields, ref_fields):
            try:
                ok = _close(float(field), float(ref_field))
            except ValueError:
                ok = field == ref_field
            if not ok:
                return [f"row {number}: {field!r}, expected {ref_field!r}"]
    return []


def _payoff_range(text: str) -> list[str]:
    for line in text.splitlines()[1:]:
        if not 0.0 <= float(line.rsplit(",", 1)[1]) <= 1.0:
            return [f"payoff outside [0, 1]: {line}"]
    return []


def _tokens(text: str) -> list[tuple[str, str]]:
    """(name, first word after the colon) of each 'name: TOKEN (detail)' line."""
    pairs = []
    for line in text.splitlines():
        name, _, rest = line.partition(": ")
        pairs.append((name, rest.split(" ", 1)[0]))
    return pairs


def _check_best_response(got: dict, ref: dict | None) -> list[str]:
    try:
        found = json.loads(got["out"] or "")
    except json.JSONDecodeError:
        return ["best-response output is not JSON"]
    fields = ("theta", "alpha", "beta", "payoff", "ne_payoff")
    if sorted(found) != sorted(fields):
        return [f"best-response keys {sorted(found)}"]
    problems = []
    for field in ("payoff", "ne_payoff"):
        if not 0.0 <= found[field] <= 1.0:
            problems.append(f"{field} {found[field]!r} outside [0, 1]")
    recheck = got.get("recheck_payoff")
    if recheck is None or not _close(found["payoff"], recheck):
        problems.append(f"payoff {found['payoff']!r} but run_game gives {recheck!r}")
    if ref is not None:
        expected = json.loads(ref["out"])
        for field in ("theta", "alpha", "beta"):
            if found[field] != expected[field]:
                problems.append(f"argmax {field} {found[field]!r}, expected "
                                f"{expected[field]!r}")
        for field in ("payoff", "ne_payoff"):
            if not _close(found[field], expected[field]):
                problems.append(f"{field} {found[field]!r}, expected {expected[field]!r}")
    return problems


def check(argv: list[str], got: dict, ref: dict | None) -> list[str]:
    """Problems with one call's outputs; an empty list means it passed.

    ``ref`` holds the seed outputs of the same call, or None where none were
    recorded, which leaves only the checks that hold for any input.
    """
    command = argv[0]
    if ref is None and command != "best-response":
        return ["no reference output recorded for this call"]
    expected_code = ref["code"] if ref is not None else 0
    if got["code"] != expected_code:
        tail = " | ".join(got["stderr"].strip().splitlines()[-3:])
        return [f"exit code {got['code']!r}, expected {expected_code!r}: {tail}"]
    if command == "best-response":
        return _check_best_response(got, ref)
    if command == "sweep":
        problems = _compare_csv(got["out"] or "", ref["out"], SWEEP_HEADER)
        return problems or _payoff_range(got["out"])
    if command == "compare":
        problems = _compare_csv(got["out"] or "", ref["out"], COMPARE_HEADER)
        if _tokens(got["stderr"]) != _tokens(ref["stderr"]):
            problems.append(f"verdict {got['stderr'].strip()!r}, expected "
                            f"{ref['stderr'].strip()!r}")
        return problems
    if command == "validate":
        if _tokens(got["stdout"]) != _tokens(ref["stdout"]):
            return [f"validate tokens {_tokens(got['stdout'])}, expected "
                    f"{_tokens(ref['stdout'])}"]
        return []
    raise ValueError(f"no check for command {command!r}")
