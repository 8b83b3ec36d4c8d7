"""Self-test of the benchmark at tiny sizes, from the repository root:

    python3 perfbench/selftest.py

It checks that
1. no op of any workload fails against the committed reference data,
   except the pointwise points it lists as known failures;
2. changing one digit of any reference entry a workload reads makes the
   workload fail;
3. traced and untraced cold children run the same ops with the same
   failures, and only ops that reference.json lists as known failures fail;
4. BENCHMARK.json names the metrics run.py prints, with the same units.
Exits 1 and names each broken check otherwise.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 1

# (workload, path of a reference entry its tiny ops read)
CORRUPTIONS = (
    ("tables", ("digests", None)),  # None: the key of the first request
    ("series_wide", ("k3", 2)),
    ("series_wide", ("noncompact", 3)),
    ("series_wide", ("p", 7)),
    ("series_deep", ("k3", 11)),
    ("series_deep", ("shadow", 1)),
    ("series_deep", ("shadow_pattern", 0)),
    ("pointwise", ("genus_k3_at_zero",)),
    ("pointwise", ("verify_last_line",)),
    ("pointwise", ("pointwise_known_failures", None)),  # None: a known failure the tiny run draws
)


def one_digit_changed(value):
    """Change one digit: the last of an int, the 7th decimal of a float,
    the first digit or hex digit of a string."""
    if isinstance(value, int):
        text = str(value)
        return int(text[:-1] + str((int(text[-1]) + 1) % 10))
    if isinstance(value, float):
        text = f"{value:.12f}"
        at = text.index(".") + 7
        return float(text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1:])
    at = next(i for i, ch in enumerate(value) if ch in "0123456789abcdef")
    return value[:at] + ("1" if value[at] == "0" else "0") + value[at + 1:]


def new_failures(ops: list, ref: dict) -> int:
    """Failed ops of a tiny run that `ref` does not list as known."""
    failed = 0
    for op in ops:
        try:
            ok, _ = workloads.run_op(op, ref)
        except Exception:
            ok = False
        failed += not ok and not workloads.known_failure(op, ref)
    return failed


def main() -> int:
    ref = json.loads((HERE / "reference.json").read_text())
    problems = []
    tiny_ops = {workload: workloads.generate(workload, SEED, ref, tiny=True) for workload in workloads.GENERATORS}
    for workload, ops in tiny_ops.items():
        if new_failures(ops, ref):
            problems.append(f"{workload}: fails against the committed reference")

    for workload, path in CORRUPTIONS:
        bad = copy.deepcopy(ref)
        holder = bad
        for key in path[:-1]:
            holder = holder[key]
        key = path[-1]
        ops = tiny_ops[workload]
        if key is None and workload == "tables":
            key = " ".join(ops[0][1])
        elif key is None:
            drawn = [op[1] for op in ops if workloads.known_failure(op, ref)]
            if not drawn:
                problems.append(f"{workload}: the tiny run draws no known failure")
                continue
            key = holder.index(drawn[0])
        holder[key] = one_digit_changed(holder[key])
        if not new_failures(ops, bad):
            problems.append(f"{workload}: still passes with one digit of {path} changed")

    for workload in workloads.GENERATORS:
        plain = run.spawn(workload, SEED, tiny=True)
        traced = run.spawn(workload, SEED, trace=True, tiny=True)
        counts = [(c["attempted"], c["failed_ops"], c["known_ops"]) for c in (plain, traced)]
        if counts[0] != counts[1] or plain["failed_ops"] != plain["known_ops"]:
            problems.append(f"{workload}: untraced (attempted, failed, known) {counts[0]}, traced {counts[1]}")
        if workload == "pointwise" and not plain["known_ops"]:
            problems.append("pointwise: a known failure was not counted as failed")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != {n: run.E2E_UNITS[n] for n in run.E2E_JSON}:
        problems.append("BENCHMARK.json end_to_end differs from run.E2E_JSON")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != dict(layers.JSON_METRICS):
        problems.append("BENCHMARK.json per_layer differs from layers.JSON_METRICS")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.GENERATORS):
        problems.append("BENCHMARK.json workloads differ from workloads.GENERATORS")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "OK" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
