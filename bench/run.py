"""Benchmark of the qminority CLI, end to end and layer by layer.

    python3 bench/run.py --workload figure-sweeps --seed 0 --seconds 25 --trace 0

Runs from the root of a source checkout and imports the package from its
``src/`` directory, never from an installed copy. Load is a closed loop with
one client: one fresh child interpreter at a time, each running one whole
pass of the workload's CLI calls, with OPENBLAS_NUM_THREADS=1.

With ``--trace 0`` it reports the end-to-end metrics: ``setup_s`` (median
time from spawning an interpreter to ``import qminority`` plus
``cli.build_parser()`` done), ``run_norm_s`` (median wall time of a pass)
and ``peak_rss_mb`` (median peak RSS of a pass's child). Both times are
rescaled to a host of reference speed by ``probe.py``. It also prints the
raw median wall times as ``setup_raw_s`` and ``run_s``, which are not
gated: the host's speed drifts too much.
With ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of ``spans.py``, including ``trace_overhead_ratio``.
Every call's outputs are checked against the seed outputs in
``reference/``; failures are counted, printed as ``failed_ratio`` and make
``correct`` false. The last line of stdout is the JSON result; a fuller
record goes to ``out/``.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from spans import LAYER_UNITS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference"
BASELINE = BENCH / "baseline.json"

END_TO_END_UNITS = {"setup_s": "s", "run_norm_s": "s", "peak_rss_mb": "MB"}
SETUP_FIRST = 4
SETUP_MIN = 9
# A run stops starting passes so that it ends well inside the 180 s limit.
HARD_LIMIT_S = 170.0
POLL_S = 0.02

# After "ready" the child probes the host's speed, outside the timed part.
SETUP_SNIPPET = ("import qminority\nfrom qminority import cli\ncli.build_parser()\n"
                 "import sys\nsys.stdout.write('ready\\n')\nsys.stdout.flush()\n"
                 f"sys.path.insert(0, {str(BENCH)!r})\n"
                 "import probe\nprint(probe.scale_now())\n")
ENV_SNIPPET = """
import json, platform, numpy
blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}"}))
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def run_child(args: list[str], stdin: bytes, deadline: float):
    """Run one child to completion; returns (stdout, exit code, rusage).

    The child is reaped with os.wait4 so its own peak RSS is read:
    RUSAGE_CHILDREN would give the maximum over every child so far. Its
    stdout goes to a file, so waiting with a deadline needs no pipe reader.
    """
    out_path = OUT / "child.stdout"
    with open(out_path, "wb") as out:
        proc = subprocess.Popen([sys.executable, *args], stdin=subprocess.PIPE,
                                stdout=out, env=child_env(), cwd=ROOT)
    proc.stdin.write(stdin)
    proc.stdin.close()
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(POLL_S)
    proc.returncode = os.waitstatus_to_exitcode(status)
    data = out_path.read_bytes()
    out_path.unlink()
    return data, proc.returncode, usage


def measure_setup() -> tuple:
    """Seconds from spawn to ready, and the host-speed scale the child probed."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_SNIPPET],
                            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    scale = proc.stdout.read()
    proc.stdout.close()
    if proc.wait(timeout=60) != 0 or line != b"ready\n":
        raise BenchError(f"set-up child failed with exit code {proc.returncode}")
    return elapsed, float(scale)


def run_pass(ops: list[dict], trace: bool, spans_path, deadline: float) -> dict:
    plan = {"src": str(SRC), "ops": ops, "trace": trace,
            "spans": str(spans_path) if spans_path else None}
    data, code, usage = run_child([str(BENCH / "child.py")],
                                  json.dumps(plan).encode(), deadline)
    lines = data.decode(errors="replace").splitlines()
    if code != 0 or not lines:
        return {"crashed": f"pass child exited with {code}", "trace": trace}
    report = json.loads(lines[-1])
    report["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    report["trace"] = trace
    return report


def digest(result: dict) -> str:
    # a traceback names the tracing wrapper in traced passes, so it is left out
    crashed = result["code"] == "exception"
    fields = [result["code"], result["stdout"], None if crashed else result["stderr"],
              result["out"]]
    return hashlib.sha256(json.dumps(fields).encode()).hexdigest()


def with_out(argv: list[str], index: int) -> dict:
    if argv[0] not in workloads.FILE_COMMANDS:
        return {"argv": argv, "out": None}
    path = str(OUT / "work" / f"op{index}.out")
    return {"argv": argv + ["--out", path], "out": path}


class Checker:
    """Checks each call of each pass and keeps the failure count."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, argv, result, label) -> None:
        self.attempted += 1
        problems = workloads.check(argv, result, self.reference.get(workloads.key(argv)))
        seen = self.digests.setdefault(workloads.key(argv), digest(result))
        if seen != digest(result):
            problems.append("output differs from an earlier pass of the same code")
        if problems:
            self.failures.append(f"{label} {workloads.key(argv)}: {'; '.join(problems)}")

    def record_pass(self, report, argvs, label) -> None:
        if "crashed" in report:
            self.attempted += len(argvs)
            self.failures += [f"{label} {workloads.key(a)}: {report['crashed']}"
                              for a in argvs]
            return
        for argv, result in zip(argvs, report["ops"]):
            self.record(argv, result, label)


def load_reference(workload: str) -> dict:
    path = REFERENCE / f"{workload}.json.gz"
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        return json.load(handle)


def environment() -> dict:
    env = {"nproc": len(os.sched_getaffinity(0)), "platform": platform.platform()}
    data, code, _ = run_child(["-c", ENV_SNIPPET], b"", time.perf_counter() + 60)
    if code == 0:
        env.update(json.loads(data))
    head = ROOT / ".git" / "HEAD"
    env["git_commit"] = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        env["git_commit"] = ref
    # Metadata only: not a gated metric.
    env["src_lines"] = sum(len(p.read_text(encoding="utf-8").splitlines())
                           for p in sorted(SRC.rglob("*.py")))
    return env


def median_metrics(reports: list[dict]) -> dict:
    """Per-metric median over passes; counts stay whole numbers."""
    metrics = {}
    for name in reports[0]["layers"]:
        values = [r["layers"][name] for r in reports]
        whole = all(isinstance(v, int) for v in values)
        metrics[name] = (statistics.median_low if whole else statistics.median)(values)
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    deadline = started + HARD_LIMIT_S
    if not (SRC / "qminority" / "__init__.py").is_file():
        raise BenchError(f"no qminority package under {SRC}")
    (OUT / "work").mkdir(parents=True, exist_ok=True)

    argvs = workloads.plan(args.workload, args.seed)
    ops = [with_out(argv, i) for i, argv in enumerate(argvs)]
    checker = Checker(load_reference(args.workload))
    trace = bool(args.trace)

    # Set-up is sampled at the start, before every later pass and at the
    # end, so that its median spans the run rather than one moment of it.
    setup = []
    if not trace:
        measure_setup()  # warm the file cache and the package's bytecode cache
        setup = [measure_setup() for _ in range(SETUP_FIRST)]

    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    reports = []
    while True:
        traced = trace and len(reports) % 2 == 1
        if reports and not trace:
            setup.append(measure_setup())
        report = run_pass(ops, traced, spans_path if traced else None, deadline)
        checker.record_pass(report, argvs, f"pass {len(reports) + 1}")
        if "crashed" in report:
            break
        reports.append(report)
        elapsed = time.perf_counter() - started
        pass_s = statistics.median(r["run_s"] for r in reports)
        # two passes when they fit in the run, so there is a median to take
        wanted = 2 if trace or pass_s < args.seconds / 2 else 1
        if elapsed + pass_s > HARD_LIMIT_S or (
                len(reports) >= wanted and elapsed + pass_s > args.seconds):
            break
    while not trace and len(setup) < SETUP_MIN:
        setup.append(measure_setup())

    if len(reports) == 1:
        # One pass fits in the run: rerun one call in a fresh child so that
        # determinism is still checked between two executions.
        probe = next((i for i, a in enumerate(argvs)
                      if "depolarizing" not in a and "dep" not in a), 0)
        report = run_pass([ops[probe]], False, None, deadline)
        checker.record_pass(report, [argvs[probe]], "probe")

    plain = [r for r in reports if not r["trace"]]
    traced_reports = [r for r in reports if r["trace"]]
    metrics = {}
    if reports and not trace:
        metrics = {
            # scaled by the run's median probe: one child's probes are too few
            "setup_s": (statistics.median(s for s, _ in setup)
                        * statistics.median(k for _, k in setup)),
            "run_norm_s": statistics.median(r["run_norm_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        units = END_TO_END_UNITS
    elif plain and traced_reports:
        metrics = median_metrics(traced_reports)
        metrics["trace_overhead_ratio"] = (
            statistics.median(r["run_s"] for r in traced_reports)
            / statistics.median(r["run_s"] for r in plain))
        units = LAYER_UNITS
    if not metrics:
        raise BenchError("no pass completed: " + "; ".join(checker.failures[:3]))

    failed = len(checker.failures)
    result = {
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": args.workload, "why": workloads.WORKLOADS[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "argv": argvs, "environment": environment(),
        "seed_baseline": json.loads(BASELINE.read_text()) if BASELINE.is_file() else None,
        "setup_s_samples": [s for s, _ in setup],
        "setup_scales": [k for _, k in setup],
        "passes": [{"run_s": r["run_s"], "run_norm_s": r.get("run_norm_s"),
                    "probe_median_s": (statistics.median(r["probe_s"])
                                       if "probe_s" in r else None),
                    "peak_rss_mb": r["peak_rss_mb"], "traced": r["trace"],
                    "op_seconds": [op["seconds"] for op in r["ops"]]}
                   for r in reports],
        "failures": checker.failures,
        "result": result,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    if setup:
        print(f"setup_raw_s {statistics.median(s for s, _ in setup):.6g} s "
              "(raw wall time, not gated)")
    if plain:
        print(f"run_s {statistics.median(r['run_s'] for r in plain):.6g} s "
              "(raw wall time, not gated)")
    print(f"failed_ratio {failed / checker.attempted:.6g} "
          f"({failed} of {checker.attempted} operations)")
    for failure in checker.failures[:10]:
        print(f"FAILED {failure[:500]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
