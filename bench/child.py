"""One benchmark pass, run in a fresh interpreter by ``run.py``.

Reads a JSON plan on stdin: the package directory it must import from, the
CLI argument vectors to run in order, whether to trace, and where to write
spans. Runs every vector through ``qminority.cli.main`` with stdout and
stderr captured, and prints one JSON object with each call's exit code and
outputs, the pass's wall time and, when traced, the per-layer summary. An
untraced pass runs under ``probe.Sampler`` and also reports its wall time
in reference seconds; the probes' own time is taken out of both.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback

from probe import Sampler


def _run_op(cli, argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed operation, not a failed pass
            traceback.print_exc()
            code = "exception"
    return code, out.getvalue(), err.getvalue()


def _best_response_recheck(argv, out_text) -> float:
    """run_game's payoff at the triple a best-response call reported."""
    from qminority import channels, cli, game

    args = cli.build_parser().parse_args(argv)
    found = json.loads(out_text)
    triple = game.StrategyTriple(found["theta"], found["alpha"], found["beta"])
    strategies = tuple(triple if k == args.player - 1 else args.others for k in range(4))
    spec = channels.ChannelSpec(args.channel, args.p, args.mu)
    cfg = game.GameConfig(gamma=args.gamma, noise_pre=spec, noise_post=spec,
                          strategies=strategies)
    return game.run_game(cfg).payoffs[args.player - 1]


def main() -> int:
    plan = json.load(sys.stdin)
    import qminority
    from qminority import cli

    expected = os.path.join(plan["src"], "qminority", "__init__.py")
    if os.path.realpath(qminority.__file__) != os.path.realpath(expected):
        print(f"qminority imported from {qminority.__file__}, not {expected}",
              file=sys.stderr)
        return 3

    tracer = None
    if plan["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install(qminority)

    ops = []
    # Traced passes are not probed: probe time would land in the layers.
    sampler = contextlib.nullcontext() if tracer else Sampler()
    with sampler:
        start = time.perf_counter()
        for index, op in enumerate(plan["ops"]):
            if tracer:
                tracer.trace_id[0] = index
            t0 = time.perf_counter()
            code, stdout, stderr = _run_op(cli, op["argv"])
            ops.append({"code": code, "stdout": stdout, "stderr": stderr,
                        "seconds": time.perf_counter() - t0})
        run_s = time.perf_counter() - start

    if tracer:
        tracer.uninstall()

    output_bytes = 0
    for op, result in zip(plan["ops"], ops):
        result["out"] = None
        if op["out"] and os.path.exists(op["out"]):
            with open(op["out"], encoding="utf-8") as handle:
                result["out"] = handle.read()
            os.unlink(op["out"])
        output_bytes += len((result["stdout"] + (result["out"] or "")).encode())

    report = {"run_s": run_s, "ops": ops}
    if not tracer:
        run_s -= sampler.overhead_s()
        report.update(run_s=run_s, run_norm_s=run_s * sampler.scale(),
                      probe_s=sampler.samples)
    else:
        # before the rechecks below, which would add build_channel cache hits
        report["layers"] = tracer.summary(run_s, output_bytes)
        if plan["spans"]:
            tracer.write(plan["spans"])

    for op, result in zip(plan["ops"], ops):
        if op["argv"][0] == "best-response" and result["code"] == 0:
            try:
                result["recheck_payoff"] = _best_response_recheck(op["argv"],
                                                                  result["out"])
            except (ValueError, KeyError, TypeError):
                result["recheck_payoff"] = None  # malformed output; the check fails
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
