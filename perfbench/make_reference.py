"""Write perfbench/reference.json from the library as it stands.

Run once from the repository root, at the commit whose outputs every later
commit must reproduce:

    python3 perfbench/make_reference.py

It records the sha256 of the stdout of every coeffs request the tables
workload can draw, the exact tables A_n and A_n circ for n <= 30, p(n) for
n <= 200 (cross-checked against tests/oracles.py), the shadow coefficients
at 800 moduli, the exact 24 eta(8 tau)^3 pattern (cross-checked against its
closed form) and the pointwise pool points that fail their checks.  Takes a
few minutes.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE), str(ROOT)]

import workloads  # noqa: E402
from mockforms import characters, shadow  # noqa: E402
from tests.oracles import partition_count  # noqa: E402

REF = {"genus_k3_at_zero": 24, "verify_last_line": "OK: 0 failed"}


def _pattern(exponent: int) -> int:
    # 24 eta(8 tau)^3 = 24 sum_m (-1)^m (2m+1) q^{(2m+1)^2}
    root = math.isqrt(exponent)
    return 24 * (-1) ** (root // 2) * root if root * root == exponent else 0


def _partitions(n_max: int) -> list[int]:
    """p(0..n_max) by Euler's pentagonal recurrence."""
    p = [1]
    for n in range(1, n_max + 1):
        total, k = 0, 1
        while k * (3 * k - 1) // 2 <= n:
            sign = 1 if k % 2 else -1
            for m in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if m <= n:
                    total += sign * p[n - m]
            k += 1
        p.append(total)
    return p


def _point_fails(z: complex, t: complex) -> bool:
    try:
        return max(workloads.point_residuals(z, t, REF)) > workloads.POINT_TOL
    except Exception:
        return True


def main() -> None:
    digests = {}
    for argv in workloads.table_request_space():
        code, text = workloads._cli(argv)
        if code != 0:
            raise SystemExit(f"coeffs request {argv} exited {code}")
        digests[" ".join(argv)] = hashlib.sha256(text.encode()).hexdigest()

    tables = {}
    for kind in ("k3", "noncompact"):
        values = characters.coeff_table(kind, workloads.SERIES_N_MAX).values
        tables[kind] = [None] + [values[n] for n in range(1, workloads.SERIES_N_MAX + 1)]

    p = _partitions(workloads.PARTITION_N_MAX)
    if p != [partition_count(n) for n in range(workloads.PARTITION_N_MAX + 1)]:
        raise SystemExit("the pentagonal recurrence disagrees with tests/oracles.py")

    n_values = range(workloads.SHADOW_N_MAX + 1)
    exact_shadow = shadow.shadow_reference_coefficients(8 * workloads.SHADOW_N_MAX + 1)
    pattern = [exact_shadow[8 * n + 1] for n in n_values]
    if pattern != [_pattern(8 * n + 1) for n in n_values]:
        raise SystemExit("shadow_reference_coefficients disagrees with the closed form")

    known = [i for i, (z, t) in enumerate(workloads.point_pool()) if _point_fails(z, t)]

    ref = {
        "digests": digests,
        "k3": tables["k3"],
        "noncompact": tables["noncompact"],
        "p": p,
        "shadow": [shadow.shadow_coefficient(n, workloads.SHADOW_C_MAX).value for n in n_values],
        "shadow_pattern": pattern,
        **REF,
        "pointwise_known_failures": known,
    }
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
