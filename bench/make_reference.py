"""Record the outputs every benchmark call is checked against.

    python3 bench/make_reference.py [workload ...]

Runs every call any seed's plan can make, in one untraced pass per
workload, and stores each call's exit code, stdout, stderr and --out file in
reference/<workload>.json.gz, keyed by the call's arguments without --out.
Run it only on the code whose outputs are the reference; the benchmark then
holds every later version to them within workloads.PAYOFF_TOL.
"""

from __future__ import annotations

import gzip
import json
import sys
import time

import run
import workloads


def record(workload: str) -> None:
    argvs = workloads.reference_calls(workload)
    ops = [run.with_out(argv, i) for i, argv in enumerate(argvs)]
    report = run.run_pass(ops, False, None, time.perf_counter() + run.HARD_LIMIT_S)
    if "crashed" in report:
        raise SystemExit(f"{workload}: {report['crashed']}")
    reference = {workloads.key(argv): {k: result[k] for k in ("code", "stdout", "stderr", "out")}
                 for argv, result in zip(argvs, report["ops"])}
    path = run.REFERENCE / f"{workload}.json.gz"
    with gzip.GzipFile(path, "wb", mtime=0) as handle:
        handle.write((json.dumps(reference, indent=0, sort_keys=True) + "\n").encode())
    print(f"{path.name}: {len(reference)} calls, {report['run_s']:.2f} s")


def main(names) -> None:
    (run.OUT / "work").mkdir(parents=True, exist_ok=True)
    for workload in names or sorted(workloads.WORKLOADS):
        record(workload)


if __name__ == "__main__":
    main(sys.argv[1:])
