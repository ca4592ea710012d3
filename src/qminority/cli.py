"""Command line front end: sweeps, validation, comparison, best response.

All output is deterministic: the same argument vector produces byte-identical
stdout or files. Commands and their writer raise; ``main`` alone turns a failure
into one ``error:`` line on stderr and an exit code: 0 success, 1 validation or
consistency failure, 2 usage error or failed write, and 1 with no message when
stdout's reader has gone. Output is all or nothing. ``--out`` writes a temporary
file in the target's directory and renames it into place, so unlike ``open(path,
"w")`` it needs a writable directory, leaves other hard links to the old file as
they were, and refuses a FIFO or device; symlinks and modes act as with ``open``.
"""

from __future__ import annotations

import argparse
import ctypes
import errno
import itertools
import json
import os
import shutil
import stat
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


def _write_output(pieces, path: str | None) -> None:
    """Write the text pieces to ``path``, or to stdout for None or '-', all or nothing.

    The one writer of every command's output. A file is written under a temporary
    name in its directory and renamed into place; stdout output is spooled to an
    anonymous temporary file and copied out at the end. So an exception while the
    pieces are produced leaves no output behind. A failed write raises ValueError
    naming stdout or the path, and a closed pipe on stdout raises BrokenPipeError.
    """
    if path in (None, "-"):
        stdout = sys.stdout
        try:
            with tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n") as spool:
                spool.writelines(pieces)
                spool.seek(0)
                if stdout is None:  # the interpreter started with descriptor 1 closed
                    raise OSError(errno.EBADF, os.strerror(errno.EBADF))
                try:
                    shutil.copyfileobj(spool, stdout)
                    stdout.flush()  # so a failed write is seen here, not at exit
                except OSError:
                    # what is left to flush at exit goes to devnull, so exit reports nothing
                    devnull = os.open(os.devnull, os.O_WRONLY)
                    os.dup2(devnull, stdout.fileno())
                    os.close(devnull)
                    raise
        except BrokenPipeError:  # the reader is gone: main exits 1 with no message
            raise
        except OSError as exc:
            # ENOENT comes only from looking for the spool's directory, and tempfile's
            # text for it lists every candidate, the working directory among them
            reason = "no usable temporary directory" if exc.errno == errno.ENOENT else exc.strerror
            raise ValueError(f"cannot write stdout: {reason}") from None
        return
    if not path:  # open('', 'w') fails so, where realpath would give the working directory
        raise ValueError(f"cannot write {path}: {os.strerror(errno.ENOENT)}")
    target = os.path.realpath(path)  # a symlink's target is what gets rewritten
    tmp_name = None
    try:
        try:
            mode = os.stat(target).st_mode
            if stat.S_ISDIR(mode):  # refused before a temporary file is made beside it
                raise OSError(errno.EISDIR, os.strerror(errno.EISDIR))
            if not stat.S_ISREG(mode):  # the rename would replace it
                raise OSError(errno.EINVAL, "not a regular file")
        except FileNotFoundError:  # a new file gets open()'s mode, 0o666 less the umask
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        with tempfile.NamedTemporaryFile("w", dir=os.path.dirname(target),
                                         suffix=".tmp", delete=False,
                                         encoding="utf-8", newline="\n") as tmp:
            tmp_name = tmp.name
            os.chmod(tmp_name, stat.S_IMODE(mode))
            tmp.writelines(pieces)
        os.replace(tmp_name, target)
    except OSError as exc:
        # strerror only: the exception text names the random temporary file
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None
    finally:
        if tmp_name and os.path.exists(tmp_name):
            os.unlink(tmp_name)


# Table output per format: the text before the rows, one row (str.format fields, and
# %s-fields for compare's columns), the separator between rows, the text after the rows
# and the %-format of a number. The JSON is json.dumps(rows or report, indent=2) + "\n".
_SWEEP_FORMATS = {
    "csv": (CSV_HEADER + "\n", "{channel},{p},{mu},{gamma},{player},{payoff}",
            "\n", "\n", "%.17g"),
    "json": ("[\n", '  {{\n    "channel": "{channel}",\n    "p": {p},\n    "mu": {mu},\n'
                    '    "gamma": {gamma},\n    "player": {player},\n    "payoff": {payoff}\n  }}',
             ",\n", "\n]\n", "%r"),
}
_COMPARE_FORMATS = {
    "csv": (COMPARE_HEADER + "\n", "{channel},%s,%s,{gamma},%s,%s,%s", "\n", "\n", "%.17g"),
    "json": ('{{\n  "channel": "{channel}",\n  "gamma": {gamma},\n  "tolerance": {tolerance},\n'
             '  "verdict": "{verdict}",\n  "max_difference": {max_difference},\n  "points": [\n',
             '    {{\n      "p": %s,\n      "mu": %s,\n      "formula": %s,\n'
             '      "simulated": %s,\n      "difference": %s\n    }}', ",\n", "\n  ]\n}\n", "%r"),
}


def _table_text(head: str, point: str, sep: str, tail: str, number: str, slices):
    """``head``, each slice's float values in the %s-fields of ``point`` once a row,
    ``tail``. Each distinct bit pattern of a slice is formatted by ``number`` once, so
    0.0 and -0.0 stay apart.

    ``point`` puts ``sep`` before each of its rows; the first gives way to ``head``. The
    first slice is formatted here, so bad arguments fail before any output is opened.
    """
    literals = point.split("%s")
    # the text between the fields of a row, and from its last field to the next row's first
    between = literals[1:-1] + [literals[-1] + literals[0]]

    def text(values):
        bits, index = np.unique(values.ravel().view(np.int64), return_inverse=True)
        cells = np.array([number % value for value in bits.view(float).tolist()], dtype=object)
        # one join allocates the text once: %-formatting these strings into the template
        # left the heap 5.9 MB larger after a 1,000,001-point sweep
        pieces = [literals[0]] * (2 * index.size + 1)
        pieces[1::2] = cells[index].tolist()
        pieces[2::2] = between * len(values)
        pieces[-1] = literals[-1]
        return "".join(pieces)

    texts = map(text, slices)
    first = next(texts)
    return itertools.chain((head, first[len(sep):]), texts, (tail,))


def _sweep_text(kind: str, vary: str, fixed: dict, points: int, fmt: str):
    """The sweep's text: the fixed values formatted once, the varied one once a point."""
    head, row, sep, tail, number = _SWEEP_FORMATS[fmt]
    cells = {axis: number % value for axis, value in fixed.items()}
    point = "".join(sep + row.format(channel=kind, player=k, payoff="%s", **cells,
                                     **{vary: "%s"}) for k in (1, 2, 3, 4))

    slices = (np.stack(np.broadcast_arrays(axis[:, None], payoffs), -1)
              for axis, payoffs in game._sweep(kind, vary, fixed, points))
    return _table_text(head, point, sep, tail, number, slices)


def cmd_sweep(args) -> int:
    fixed = {}
    for axis in ("p", "mu", "gamma"):
        value = getattr(args, axis)
        if axis == args.vary:
            if value is not None:
                raise ValueError(f"--{axis} conflicts with --vary {axis}")
        elif value is None:
            raise ValueError(f"--{axis} is required when varying {args.vary}")
        else:
            fixed[axis] = value
    _write_output(_sweep_text(args.channel, args.vary, fixed, args.points, args.format),
                  args.out)
    return 0


def _validate_checks(inject_broken: bool):
    grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    checks = []

    worst = 0.0
    tampered = inject_broken
    for kind in channels.KINDS:
        for stack in channels._kraus_sets(kind, np.repeat(grid, 5), np.tile(grid, 5)):
            if tampered:
                # test hook: halve the first Kraus weight so the
                # completeness check has a known failure to catch
                stack[0] *= np.sqrt(0.5)
                tampered = False
            worst = max(worst, linalg.completeness_residual(stack))
            del stack  # one dense stack alive while the batch builds the next
    checks.append(("channel completeness", worst <= linalg.COMPLETENESS_TOL,
                   f"max residual {worst:.3e}"))

    p, mu = np.repeat((0.0, 0.5, 1.0), 3), np.tile((0.0, 0.5, 1.0), 3)
    runs = [game.evaluate(kind, p, mu, np.pi / 2) for kind in channels.KINDS]
    payoffs, trace, eig = (np.concatenate(column) for column in zip(*runs))
    worst_trace, worst_eig = trace.max(), eig.min()
    lo, hi = payoffs.min(), payoffs.max()
    checks.append(("final-state trace", worst_trace <= 1e-10,
                   f"max residual {worst_trace:.3e}"))
    checks.append(("final-state positivity", worst_eig >= linalg.EIGENVALUE_FLOOR,
                   f"min eigenvalue {worst_eig:.3e}"))
    checks.append(("payoff bounds", lo >= 0.0 and hi <= 1.0,
                   f"range [{lo:.6f}, {hi:.6f}]"))

    noiseless = [run.payoffs[0, 0] for run in runs]  # each kind at p = mu = 0
    spread = max(abs(x - noiseless[0]) for x in noiseless[1:])
    checks.append(("noiseless channel equality", spread <= 1e-12,
                   f"max spread {spread:.3e}"))

    p, mu = np.tile(np.linspace(0.0, 1.0, 11), len(grid)), np.repeat(grid, 11)
    a = game.evaluate("phase_flip", p, mu, np.pi / 2, spectrum=False).payoffs[:, 0]
    b = game.evaluate("phase_flip", 1.0 - p, mu, np.pi / 2, spectrum=False).payoffs[:, 0]
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
    _write_output((f"{name}: {'PASS' if ok else 'FAIL'} ({detail})\n"
                   for name, ok, detail in checks), None)
    return 0 if all(ok for _, ok, _ in checks) else 1


def cmd_compare(args) -> int:
    report = formulas._compare(args.channel, (args.p_points, args.mu_points), args.gamma)
    head, row, sep, tail, number = _COMPARE_FORMATS[args.format]
    fields = {name: number % getattr(report, name)
              for name in ("gamma", "tolerance", "max_difference")}
    fields.update(channel=report.kind, verdict=report.verdict)
    _write_output(_table_text(head.format(**fields), sep + row.format(**fields), sep, tail,
                              number, report.points), args.out)
    print(f"{report.kind}: {report.verdict} "
          f"(max difference {report.max_difference:.6g})", file=sys.stderr)
    if report.kind == "phase_flip" and report.verdict == "inconsistent":
        return 1
    return 0


def cmd_best_response(args) -> int:
    spec = channels.ChannelSpec(args.channel, args.p, args.mu)
    cfg = game.GameConfig(gamma=args.gamma, noise_pre=spec, noise_post=spec,
                          strategies=(args.others,) * 4)
    best, payoff, play = game._best_response(cfg, args.player, args.grid)
    # the equilibrium move in the searched slot, on the search's own Kraus-path setup
    ne_payoff = play(game.strategy_unitary(game.ne_strategy())[None])[0].item()
    text = json.dumps({
        "theta": best.theta,
        "alpha": best.alpha,
        "beta": best.beta,
        "payoff": payoff,
        "ne_payoff": ne_payoff,
    }, indent=2) + "\n"
    _write_output((text,), args.out)
    return 0


def cmd_payoff(args) -> int:
    strategies = args.strategy
    if strategies is not None and len(strategies) != 4:
        raise ValueError(f"--strategy must be given 4 times, got {len(strategies)}")
    spec = channels.ChannelSpec(args.channel, args.p, args.mu)
    cfg = game.GameConfig(gamma=args.gamma, noise_pre=spec, noise_post=spec,
                          strategies=tuple(strategies) if strategies else None)
    payoffs = game.run_game(cfg).payoffs
    result = {"channel": args.channel, "p": args.p, "mu": args.mu,
              "gamma": args.gamma}
    for k in range(4):
        result[f"payoff_{k + 1}"] = payoffs[k]
    _write_output((json.dumps(result, indent=2) + "\n",), args.out)
    return 0


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

    validate = sub.add_parser("validate", help="run the invariant suite")
    validate.add_argument("--inject-broken-channel", action="store_true",
                          help=argparse.SUPPRESS)

    compare = sub.add_parser("compare", help="closed-form curves vs simulation")
    compare.add_argument("--channel", type=parse_channel, required=True)
    compare.add_argument("--p-points", type=int, default=11)
    compare.add_argument("--mu-points", type=int, default=5)
    compare.add_argument("--gamma", type=parse_angle, default=np.pi / 2)
    compare.add_argument("--out", default=None)
    compare.add_argument("--format", choices=("csv", "json"), default="csv")

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

    payoff = sub.add_parser("payoff", help="single-point payoff evaluation")
    payoff.add_argument("--channel", type=parse_channel, required=True)
    payoff.add_argument("--p", type=float, required=True)
    payoff.add_argument("--mu", type=float, required=True)
    payoff.add_argument("--gamma", type=parse_angle, required=True)
    payoff.add_argument("--strategy", type=parse_triple, action="append",
                        default=None, help="repeat 4 times, 'theta,alpha,beta'")
    payoff.add_argument("--out", default=None)
    return parser


# The grammar is a constant of the program, built once at import
_PARSER = build_parser()

# mallopt parameters of glibc's <malloc.h>
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_heap() -> None:
    """Have glibc keep freed memory for reuse, not hand it back to the kernel.

    At glibc's dynamic thresholds, under 1 MB here, each ``evaluate`` chunk's stacks
    go back to the kernel when the chunk ends, and the next chunk faults them in
    again. Fixing the mmap threshold at 32 MiB, glibc's 64-bit maximum, turns the
    dynamic rule off, so the trim threshold is fixed too, above it. Only ``main``
    does this: importing the package leaves the host's allocator alone.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
        mallopt = ctypes.pythonapi.mallopt  # the process's own symbols, libc's among them
    except (AttributeError, OSError, ValueError):  # no glibc confstr name, no mallopt
        return
    if libc.startswith("glibc "):
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None) -> int:
    _keep_freed_heap()
    args = _PARSER.parse_args(argv)
    # looked up per call, so a cmd_* function replaced after import is the one run
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # final-state validation failed
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # stdout's reader is gone: no message
        return 1


if __name__ == "__main__":
    sys.exit(main())
