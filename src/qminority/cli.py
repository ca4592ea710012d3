"""Command line front end: sweeps, validation, comparison, best response.

All output is deterministic: the same argument vector produces byte-identical
stdout or files. Files are written to a temporary name in the target
directory and renamed into place, so a failed run never leaves a half-written file.
Exit codes: 0 success, 1 validation/consistency failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import channels, formulas, game, linalg

CSV_HEADER = "channel,p,mu,gamma,player,payoff"
COMPARE_HEADER = "channel,p,mu,gamma,formula,simulated,difference"

_CHANNEL_TOKENS = {
    "ad": "amplitude_damping",
    "dep": "depolarizing",
    "bf": "bit_flip",
    "pf": "phase_flip",
    "bpf": "bit_phase_flip",
}


def parse_channel(text: str) -> str:
    kind = _CHANNEL_TOKENS.get(text, text)
    if kind not in channels.KINDS:
        raise argparse.ArgumentTypeError(
            f"unknown channel {text!r} (use one of {', '.join(_CHANNEL_TOKENS)})")
    return kind


def parse_angle(text: str) -> float:
    """Radians, plain or as pi fractions: '1.57', 'pi', 'pi/2', '-pi/16'."""
    raw = text.strip()
    sign, body = 1.0, raw
    if body.startswith("-"):
        sign, body = -1.0, body[1:]
    if body == "pi":
        return sign * np.pi
    try:
        if body.startswith("pi/"):
            return sign * np.pi / float(body[3:])
        return float(raw)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad angle {text!r}") from None


def parse_triple(text: str) -> game.StrategyTriple:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"strategy must be 'theta,alpha,beta', got {text!r}")
    return game.StrategyTriple(*(parse_angle(part) for part in parts))


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_output(text: str, path: str | None) -> int:
    if path in (None, "-"):
        sys.stdout.write(text)
        return 0
    target = os.path.abspath(path)
    tmp_name = None
    try:
        with tempfile.NamedTemporaryFile("w", dir=os.path.dirname(target),
                                         suffix=".tmp", delete=False,
                                         encoding="utf-8", newline="\n") as tmp:
            tmp_name = tmp.name
            tmp.write(text)
        os.replace(tmp_name, target)
    except OSError as exc:
        if tmp_name and os.path.exists(tmp_name):
            os.unlink(tmp_name)
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_sweep(args) -> int:
    fixed = {}
    for axis in ("p", "mu", "gamma"):
        value = getattr(args, axis)
        if axis == args.vary:
            if value is not None:
                print(f"error: --{axis} conflicts with --vary {axis}", file=sys.stderr)
                return 2
        else:
            if value is None:
                print(f"error: --{axis} is required when varying {args.vary}",
                      file=sys.stderr)
                return 2
            fixed[axis] = value
    curve = game.payoff_curve(args.channel, args.vary, fixed, args.points)
    if args.format == "csv":
        lines = [CSV_HEADER]
        for pt in curve:
            prefix = f"{args.channel},{_fmt(pt.p)},{_fmt(pt.mu)},{_fmt(pt.gamma)}"
            lines += [f"{prefix},{k + 1},{_fmt(payoff)}" for k, payoff in enumerate(pt.payoffs)]
        text = "\n".join(lines) + "\n"
    else:
        rows = [{"channel": args.channel, "p": pt.p, "mu": pt.mu,
                 "gamma": pt.gamma, "player": k + 1, "payoff": pt.payoffs[k]}
                for pt in curve for k in range(4)]
        text = json.dumps(rows, indent=2) + "\n"
    return _write_output(text, args.out)


def _validate_checks(inject_broken: bool):
    grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    checks = []

    worst = 0.0
    tampered = inject_broken
    for kind in channels.KINDS:
        for p in grid:
            for mu in grid:
                ks = channels.build_channel(channels.ChannelSpec(kind, p, mu))
                if tampered:
                    # test hook: halve the first Kraus weight so the
                    # completeness check has a known failure to catch
                    stack = ks.stack.copy()
                    stack[0] *= np.sqrt(0.5)
                    ks = channels.KrausSet(stack)
                    tampered = False
                worst = max(worst, channels.verify_completeness(ks))
    checks.append(("channel completeness", worst <= linalg.COMPLETENESS_TOL,
                   f"max residual {worst:.3e}"))

    worst_trace, worst_eig = 0.0, 0.0
    lo, hi = 0.0, 1.0
    p, mu = np.repeat((0.0, 0.5, 1.0), 3), np.tile((0.0, 0.5, 1.0), 3)
    for kind in channels.KINDS:
        result = game.evaluate(kind, p, mu, np.pi / 2)
        worst_trace = max(worst_trace, result.trace_residual.max())
        worst_eig = min(worst_eig, result.min_eigenvalue.min())
        lo = min(lo, result.payoffs.min())
        hi = max(hi, result.payoffs.max())
    checks.append(("final-state trace", worst_trace <= 1e-10,
                   f"max residual {worst_trace:.3e}"))
    checks.append(("final-state positivity", worst_eig >= linalg.EIGENVALUE_FLOOR,
                   f"min eigenvalue {worst_eig:.3e}"))
    checks.append(("payoff bounds", lo >= 0.0 and hi <= 1.0,
                   f"range [{lo:.6f}, {hi:.6f}]"))

    noiseless = [game.evaluate(kind, [0.0], [0.0], np.pi / 2).payoffs[0, 0]
                 for kind in channels.KINDS]
    spread = max(abs(x - noiseless[0]) for x in noiseless[1:])
    checks.append(("noiseless channel equality", spread <= 1e-12,
                   f"max spread {spread:.3e}"))

    p, mu = np.tile(np.linspace(0.0, 1.0, 11), len(grid)), np.repeat(grid, 11)
    a = game.evaluate("phase_flip", p, mu, np.pi / 2).payoffs[:, 0]
    b = game.evaluate("phase_flip", 1.0 - p, mu, np.pi / 2).payoffs[:, 0]
    asym = np.max(np.abs(a - b))
    checks.append(("phase-flip symmetry", asym <= 1e-10,
                   f"max residual {asym:.3e}"))

    spec = channels.ChannelSpec("phase_flip", 0.0, 0.0)
    cfg = game.GameConfig(gamma=np.pi / 2, noise_pre=spec, noise_post=spec)
    _, best_payoff = game.best_response_search(cfg, player=1, grid_points=9)
    checks.append(("equilibrium deviation", best_payoff <= 0.25 + 1e-6,
                   f"best lattice payoff {best_payoff:.9f}"))
    return checks


def cmd_validate(args) -> int:
    checks = _validate_checks(args.inject_broken_channel)
    for name, ok, detail in checks:
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return 0 if all(ok for _, ok, _ in checks) else 1


def cmd_compare(args) -> int:
    report = formulas.compare(args.channel, (args.p_points, args.mu_points),
                              args.gamma)
    if args.format == "csv":
        lines = [COMPARE_HEADER]
        for pt in report.points:
            lines.append(f"{args.channel},{_fmt(pt.p)},{_fmt(pt.mu)},"
                         f"{_fmt(report.gamma)},{_fmt(pt.formula)},"
                         f"{_fmt(pt.simulated)},{_fmt(pt.difference)}")
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps({
            "channel": report.kind,
            "gamma": report.gamma,
            "tolerance": report.tolerance,
            "verdict": report.verdict,
            "max_difference": report.max_difference,
            "points": [pt._asdict() for pt in report.points],
        }, indent=2) + "\n"
    code = _write_output(text, args.out)
    if code != 0:
        return code
    print(f"{report.kind}: {report.verdict} "
          f"(max difference {report.max_difference:.6g})", file=sys.stderr)
    if report.kind == "phase_flip" and report.verdict == "inconsistent":
        return 1
    return 0


def cmd_best_response(args) -> int:
    profile = [args.others] * 4
    spec = channels.ChannelSpec(args.channel, args.p, args.mu)
    cfg = game.GameConfig(gamma=args.gamma, noise_pre=spec, noise_post=spec,
                          strategies=profile)
    best, payoff = game.best_response_search(cfg, args.player, args.grid)
    profile[args.player - 1] = game.ne_strategy()
    ne_cfg = game.GameConfig(gamma=args.gamma, noise_pre=spec, noise_post=spec,
                             strategies=profile)
    ne_payoff = game.run_game(ne_cfg).payoffs[args.player - 1]
    text = json.dumps({
        "theta": best.theta,
        "alpha": best.alpha,
        "beta": best.beta,
        "payoff": payoff,
        "ne_payoff": ne_payoff,
    }, indent=2) + "\n"
    return _write_output(text, args.out)


def cmd_payoff(args) -> int:
    strategies = args.strategy
    if strategies is not None and len(strategies) != 4:
        print(f"error: --strategy must be given 4 times, got {len(strategies)}",
              file=sys.stderr)
        return 2
    spec = channels.ChannelSpec(args.channel, args.p, args.mu)
    cfg = game.GameConfig(gamma=args.gamma, noise_pre=spec, noise_post=spec,
                          strategies=tuple(strategies) if strategies else None)
    payoffs = game.run_game(cfg).payoffs
    result = {"channel": args.channel, "p": args.p, "mu": args.mu,
              "gamma": args.gamma}
    for k in range(4):
        result[f"payoff_{k + 1}"] = payoffs[k]
    return _write_output(json.dumps(result, indent=2) + "\n", args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qminority",
        description="Four-player quantum Minority game under memoryful noise.")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="tabulate equilibrium payoffs along one axis")
    sweep.add_argument("--channel", type=parse_channel, required=True)
    sweep.add_argument("--vary", choices=("p", "mu", "gamma"), required=True)
    sweep.add_argument("--p", type=float, default=None)
    sweep.add_argument("--mu", type=float, default=None)
    sweep.add_argument("--gamma", type=parse_angle, default=None)
    sweep.add_argument("--points", type=int, default=101)
    sweep.add_argument("--out", default=None, help="output path (default stdout)")
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.set_defaults(func=cmd_sweep)

    validate = sub.add_parser("validate", help="run the invariant suite")
    validate.add_argument("--inject-broken-channel", action="store_true",
                          help=argparse.SUPPRESS)
    validate.set_defaults(func=cmd_validate)

    compare = sub.add_parser("compare", help="closed-form curves vs simulation")
    compare.add_argument("--channel", type=parse_channel, required=True)
    compare.add_argument("--p-points", type=int, default=11)
    compare.add_argument("--mu-points", type=int, default=5)
    compare.add_argument("--gamma", type=parse_angle, default=np.pi / 2)
    compare.add_argument("--out", default=None)
    compare.add_argument("--format", choices=("csv", "json"), default="csv")
    compare.set_defaults(func=cmd_compare)

    best = sub.add_parser("best-response", help="lattice search over one player's move")
    best.add_argument("--channel", type=parse_channel, required=True)
    best.add_argument("--p", type=float, required=True)
    best.add_argument("--mu", type=float, required=True)
    best.add_argument("--gamma", type=parse_angle, required=True)
    best.add_argument("--grid", type=int, default=17)
    best.add_argument("--player", type=int, default=1)
    best.add_argument("--others", type=parse_triple, default=game.ne_strategy(),
                      help="strategy triple of the non-searched players")
    best.add_argument("--out", default=None)
    best.set_defaults(func=cmd_best_response)

    payoff = sub.add_parser("payoff", help="single-point payoff evaluation")
    payoff.add_argument("--channel", type=parse_channel, required=True)
    payoff.add_argument("--p", type=float, required=True)
    payoff.add_argument("--mu", type=float, required=True)
    payoff.add_argument("--gamma", type=parse_angle, required=True)
    payoff.add_argument("--strategy", type=parse_triple, action="append",
                        default=None, help="repeat 4 times, 'theta,alpha,beta'")
    payoff.add_argument("--out", default=None)
    payoff.set_defaults(func=cmd_payoff)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # final-state validation failed
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
