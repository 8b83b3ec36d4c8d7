"""Cold-process benchmark of mockforms.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition is a fresh child interpreter (child.py) that starts cold,
runs every op of the workload once and checks every output.  Repetitions
run one after another for about S seconds, at least MIN_CHILDREN of them;
then SETUP_PROBES set-up-only children make the set-up time a median of
many starts.  With --trace 1 the repetitions alternate untraced and
traced children, and the per-layer numbers come from the traced ones.

Human-readable lines come first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  Every child of a run
runs the same ops, so attempted counts the workload's ops once, and an op
counts as failed when it failed in any child.  Workloads, metrics
and the layer table are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

MIN_CHILDREN = 2  # untraced repetitions per run; a traced run has at least MIN_PAIRS pairs
MIN_PAIRS = 2
SETUP_PROBES = 10
RUN_LIMIT_S = 170.0  # no child starts, and none may run on, past this
P90_MIN_OPS = 100  # a p90 needs at least ten ops above it
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
             "peak_rss_mb": "MB", "fail_ratio": "1", "series_max_err": "1"}
# End-to-end metrics of the JSON line: the ones every workload has.  op_p90_ms
# needs >= 100 ops per child and series_max_err a series op, and fail_ratio
# is failed / attempted of the same line, so those three are printed above it.
E2E_JSON = ("setup_s", "wall_s", "op_p50_ms", "peak_rss_mb")


class ChildFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, trace: bool = False, tiny: bool = False,
          setup_only: bool = False, cpu: int | None = None, timeout: float = RUN_LIMIT_S) -> dict:
    """Run one cold child to completion, on `cpu` if given, and return its result."""
    cmd = [sys.executable, "-I", "-S", str(HERE / "child.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace"] * trace + ["--tiny"] * tiny + ["--setup-only"] * setup_only
    cmd += [] if cpu is None else ["--cpu", str(cpu)]
    env = {k: v for k, v in os.environ.items() if k != "MOCKFORMS_CACHE"}
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list, list, list]:
    """Untraced children, traced children (trace only) and set-up probes.

    A new repetition starts only if it should end within `seconds`, judged
    by the last one, so a run lasts about `seconds` however long a
    repetition takes; the minimum count runs regardless.

    Repetitions take turns on the CPUs this process may use, a traced
    child on the CPU of the untraced one before it.  A new process tends to
    start on the same CPU every time, and on a shared machine each CPU's
    speed drifts on its own for tens of seconds, so without turns a run
    would sample the drift of one CPU only.
    """
    start = time.monotonic()
    cpus = sorted(os.sched_getaffinity(0))

    def child(turn: int, **kwargs) -> dict:
        return spawn(workload, seed, cpu=cpus[turn % len(cpus)],
                     timeout=RUN_LIMIT_S - (time.monotonic() - start), **kwargs)

    plain, traced = [], []
    last = 0.0
    least = MIN_PAIRS if trace else MIN_CHILDREN
    while len(plain) < least or time.monotonic() - start + last <= seconds:
        began = time.monotonic()
        turn = len(plain)
        plain.append(child(turn))
        if trace:
            traced.append(child(turn, trace=True))
        last = time.monotonic() - began
    probes = [child(turn, setup_only=True) for turn in range(SETUP_PROBES)]
    return plain, traced, probes


def quantile(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def outcome(children: list) -> tuple[set, set]:
    """Indices of the ops that failed in any child, and of those of them
    that reference.json records as failing."""
    failed = set().union(*(c["failed_ops"] for c in children))
    known = set().union(*(c["known_ops"] for c in children))
    return failed, known


def end_to_end(plain: list, probes: list, fail_ratio: float) -> dict:
    """Every end-to-end number by name; None where a workload has none."""
    ops_ms = [s * 1e3 for child in plain for s in child["op_s"]]
    series_errs = [c["series_max_err"] for c in plain if c["series_max_err"] is not None]
    return {
        "setup_s": statistics.median(c["setup_s"] for c in plain + probes),
        "wall_s": statistics.median(c["wall_s"] for c in plain),
        "op_p50_ms": statistics.median(ops_ms),
        "op_p90_ms": quantile(ops_ms, 0.9) if plain[0]["attempted"] >= P90_MIN_OPS else None,
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in plain),
        "fail_ratio": fail_ratio,
        "series_max_err": max(series_errs) if series_errs else None,
    }


def child_layers(child: dict) -> dict:
    """One traced child's layer numbers, with module sums, shares and us per call."""
    out = dict(child["layers"])
    wall = child["wall_s"]
    for module in layers.MODULES:
        module_self = sum(v for k, v in child["layers"].items() if k.startswith(module + ".") and k.endswith(".self_s"))
        out[f"{module}.self_s"] = module_self
        out[f"{module}.self_share"] = module_self / wall
        for fn in layers.SHARE_OF[module]:
            out[f"{module}.{fn}.self_share"] = out[f"{module}.{fn}.self_s"] / wall
    for name in [k for k in child["layers"] if k.endswith(".calls")]:
        stem, calls = name[:-len("calls")], out[name]
        out[stem + "us_per_call"] = out[stem + "total_s"] / calls * 1e6 if calls else 0.0
    return out


def layer_numbers(plain: list, traced: list) -> dict:
    """Median of each layer number over the traced children, plus process numbers."""
    per_child = [child_layers(child) for child in traced]
    out = {}
    for name in per_child[0]:
        # counts repeat exactly, so a count stays a whole number
        pick = statistics.median_low if name.endswith((".calls", ".distinct_c", ".moduli")) else statistics.median
        out[name] = pick(numbers[name] for numbers in per_child)
    out["process.cpu_s"] = statistics.median(c["cpu_s"] for c in plain)
    out["process.trace_overhead"] = (statistics.median(c["wall_s"] for c in traced)
                                     / statistics.median(c["wall_s"] for c in plain))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "mockforms" / "__init__.py", HERE / "reference.json") if not p.is_file()]
    if missing:
        print(f"error: not a mockforms checkout, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    try:
        plain, traced, probes = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    first = plain[0]
    attempted = first["attempted"]
    # A pointwise op listed in reference.json as failing when the data was
    # written is a known program defect: it counts in failed and fail_ratio,
    # and only a failure of any other op makes the run incorrect.
    failed, known = outcome(plain + traced)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"python={first['python']} nproc={first['nproc']} children={len(plain)}+{len(traced)} traced "
          f"ops_per_child={first['attempted']}")
    for child in plain + traced:
        for failure in child["failures"]:
            print(f"FAILED {failure}")
    print(f"known_defect_failed {len(known)} of {len(failed)} failed ops")
    e2e = end_to_end(plain, probes, len(failed) / attempted)
    for name, value in e2e.items():
        print(f"{name:<16} {'n/a' if value is None else f'{value:.6g}'} {E2E_UNITS[name]}")

    if args.trace:
        numbers = layer_numbers(plain, traced)
        for name in sorted(numbers):
            print(f"layer {name:<58} {numbers[name]:.6g}")
        metrics = {name: {"value": numbers[name], "unit": unit} for name, unit in layers.JSON_METRICS}
    else:
        metrics = {name: {"value": e2e[name], "unit": E2E_UNITS[name]} for name in E2E_JSON}
    print(json.dumps({"correct": failed == known, "attempted": attempted, "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
