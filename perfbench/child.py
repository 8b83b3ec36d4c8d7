"""One cold benchmark process: set up, run every op of a workload once, report.

run.py starts this file in a fresh interpreter per repetition.  The process
checks that it starts cold (no MOCKFORMS_CACHE, empty Kloosterman cache and
phase rows), generates its inputs, loads the reference data, and prints one
JSON object as its last stdout line.  It lists the indices of the failed
ops, and among them those of the ops that reference.json lists as failing
when it was written.  `ready` is a time.monotonic() stamp, which run.py
compares with its own stamp taken before the start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--cpu", type=int, help="run on this CPU only")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import mockforms  # noqa: F401  (part of the measured set-up)
    from mockforms import rademacher

    if os.environ.get("MOCKFORMS_CACHE") is not None or len(rademacher.DEFAULT_CACHE) or rademacher._phase_rows:
        print("error: the process does not start cold", file=sys.stderr)
        return 3
    import workloads

    ref = json.loads((HERE / "reference.json").read_text())
    ops = workloads.generate(args.workload, args.seed, ref, args.tiny)
    tracer = None
    if args.trace:
        import layers

        tracer = layers.install()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    latencies, failed_ops, known_ops, failures, series_err = [], [], [], [], None
    cpu0 = _cpu_s()
    start = time.perf_counter()
    for index, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            ok, err = workloads.run_op(op, ref)
        except Exception:  # a failed op, reported, never a crash of the run
            ok, err = False, None
            traceback.print_exc(file=sys.stderr)
        latencies.append(time.perf_counter() - t0)
        if not ok:
            failed_ops.append(index)
            if workloads.known_failure(op, ref):
                known_ops.append(index)
            else:
                failures.append(repr(op)[:200])
        if err is not None:
            series_err = err if series_err is None else max(series_err, err)
    wall = time.perf_counter() - start
    cpu = _cpu_s() - cpu0

    result = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "op_s": latencies,
        "attempted": len(ops),
        "failed_ops": failed_ops,
        "known_ops": known_ops,
        "failures": failures[:10],
        "series_max_err": series_err,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
    }
    if tracer is not None:
        result["layers"] = tracer.report()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
