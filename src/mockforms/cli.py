"""Command-line front end.

Subcommands
-----------
coeffs      exact integer multiplicity tables (k3, noncompact, ale)
rademacher  truncated convergent series vs the exact value, with per-c terms
verify      named verification suites with per-check pass/fail lines
shadow      shadow-series coefficients against the exact 24 eta(8 tau)^3 pattern
pofn        partition-number calibration of the Rademacher machinery

Output is JSON (default) or RFC-4180 CSV; verify prints text lines and
takes no --format.  Reals are emitted with shortest round-trip repr in JSON
and 6 significant digits in CSV, so identical flags produce byte-identical
output.  Exit codes: 0 success, 1 verification or consistency failure, 2
usage error.

--c-max counts series terms: for the noncompact family (even moduli only)
the terms are c = 2, 4, ..., 2*N, so N terms reach modulus 2*N.  Only
rademacher takes a list of them.  verify --tolerance bounds the identities
and kloosterman checks; the other suites have fixed bounds.  A flag that
would be ignored is a usage error.

argparse does all parsing and range checking (counts, --c-max lists and
--tolerance, finite and >= 0, are `type=` callables) and picks the
handler (`set_defaults(handler=...)`); each handler reads the parsed
namespace.  `main` adds only the checks that span flags: --tolerance on a
fixed-bound suite, --format with verify and several --c-max values for
shadow or pofn.

Nothing is persisted between runs: each series computes its multiplier sums
in one pass over its moduli and keeps nothing after the call.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Optional

from . import characters, rademacher, shadow
from .errors import MockformsError
from .qseries import FracExp

__all__ = ["main"]


def _fmt6(x: float) -> str:
    # CSV uses 6 significant digits; JSON floats stay shortest round-trip.
    return format(x, ".6g")


def _emit_rows(args: argparse.Namespace, header: list[str], rows: list[dict], meta: dict, out) -> None:
    if args.fmt != "csv":
        json.dump({**meta, "rows": rows}, out)
        out.write("\n")
    else:
        writer = csv.writer(out)
        writer.writerow(header)
        for row in rows:
            writer.writerow([row[h] if not isinstance(row[h], float) else _fmt6(row[h]) for h in header])


# -- subcommands ---------------------------------------------------------


def cmd_coeffs(args: argparse.Namespace, out) -> int:
    table = characters.coeff_table(args.kind, args.n_max)
    rows: list[dict] = [{"n": n, "exact": str(table.values[n])} for n in range(1, args.n_max + 1)]
    header = ["n", "exact"]
    if args.entropy:
        # plot data: growth of log |A_n| against the Cardy-type exponent
        for row in rows:
            n = row["n"]
            row["log_exact"] = math.log(abs(table.values[n]))
            row["entropy"] = rademacher.cardy_entropy(n)
        header += ["log_exact", "entropy"]
    _emit_rows(args, header, rows, {"kind": args.kind}, out)
    return 0


def cmd_rademacher(args: argparse.Namespace, out) -> int:
    # N terms of the even-modulus noncompact family reach modulus 2N
    biggest = max(args.c_max) * (2 if args.kind == "noncompact" else 1)
    partial = rademacher.exact_coefficient(args.kind, args.n, biggest)
    exact = characters.coeff_table(args.kind, args.n).values[args.n]
    partials = {}
    for terms in args.c_max:
        partials[str(terms)] = math.fsum(t for _, t in partial.terms[:terms])
    payload = {
        "kind": args.kind,
        "n": args.n,
        "exact": str(exact),
        "leading": rademacher.leading_asymptotic(args.kind, args.n),
        "partial": partials,
    }
    if args.per_c:
        payload["per_c"] = [{"c": c, "term": t} for c, t in partial.terms]
    if args.fmt != "csv":
        json.dump(payload, out)
        out.write("\n")
    else:
        writer = csv.writer(out)
        writer.writerow(["kind", "n", "exact", "leading", "terms", "partial"])
        for terms in args.c_max:
            writer.writerow([args.kind, args.n, str(exact), _fmt6(payload["leading"]),
                             terms, _fmt6(partials[str(terms)])])
        if args.per_c:
            writer.writerow(["c", "term", "", "", "", ""])
            for c, t in partial.terms:
                writer.writerow([c, _fmt6(t), "", "", "", ""])
    return 0


def cmd_shadow(args: argparse.Namespace, out) -> int:
    c_max = args.c_max[0]
    reference = shadow.shadow_reference_coefficients(8 * args.n_max + 1)
    rows = []
    for n in range(0, args.n_max + 1):
        exponent = 8 * n + 1
        computed = shadow.shadow_coefficient(n, c_max).value
        rows.append({"exponent": exponent, "computed": computed,
                     "reference": reference[exponent]})
    _emit_rows(args, ["exponent", "computed", "reference"], rows, {"c_max": c_max}, out)
    return 0


def cmd_pofn(args: argparse.Namespace, out) -> int:
    from .qseries import partition_series
    value = rademacher.rademacher_partition(args.n, args.c_max[0])
    exact = int(partition_series(FracExp(24 * (args.n + 1))).coefficient(args.n))
    rounded = round(value)
    payload = {"n": args.n, "series": value, "rounded": rounded,
               "exact": str(exact), "match": rounded == exact}
    if args.fmt != "csv":
        json.dump(payload, out)
        out.write("\n")
    else:
        writer = csv.writer(out)
        writer.writerow(["n", "series", "rounded", "exact", "match"])
        writer.writerow([args.n, _fmt6(value), rounded, str(exact), rounded == exact])
    return 0 if rounded == exact else 1


# -- verification suites ---------------------------------------------------


def _suite_identities(tol: float) -> list[tuple[str, float, float]]:
    import cmath

    from .analytic import (CharSpec, _completion_direct, _scaled, _theta_direct, dedekind_eta, jacobi_theta,
                           lerch_completion, superconformal_character)
    from .rademacher import _dedekind_euclid
    from fractions import Fraction

    # One side of each modular law (mu_hat_*, completion_*, eta_gamma) is
    # summed directly at tau, the other reduced to the fundamental domain,
    # so the laws do not check the reduction against itself.
    checks: list[tuple[str, float, float]] = []
    zs = (0.23 + 0.11j, 0.41 - 0.07j, 0.13 + 0.05j)
    taus = (0.10 + 0.90j, -0.20 + 1.30j, 0.35 + 1.80j)
    gammas = ((1, 0, 1, 1), (0, -1, 1, 0), (2, 1, 3, 2))

    worst = {"theta_jacobi": 0.0, "half_period_sq": 0.0, "J_vanish": 0.0,
             "recursion": 0.0, "massless_forms": 0.0, "mu_hat_T": 0.0,
             "mu_hat_S": 0.0, "mu_hat_z1": 0.0, "mu_hat_ztau": 0.0,
             "completion_S": 0.0, "completion_T": 0.0, "completion_gamma": 0.0,
             "eta_gamma": 0.0, "genus_at_zero": 0.0}
    for t in taus:
        j = abs(jacobi_theta("00", 0, t) ** 4 - jacobi_theta("01", 0, t) ** 4
                - jacobi_theta("10", 0, t) ** 4)
        worst["theta_jacobi"] = max(worst["theta_jacobi"], j)
        worst["genus_at_zero"] = max(worst["genus_at_zero"],
                                     characters.identity_check("genus_at_zero", 0.0, t))
        shat = shadow._completion_sum(t)
        # eta = q^{1/24} theta_00((tau + 1)/2; 3 tau), summed at 3 tau itself
        eta = cmath.exp(1j * math.pi * t / 12.0) * _scaled(*_theta_direct("00", 0.5 * (t + 1.0), 3.0 * t))
        worst["completion_S"] = max(worst["completion_S"],
                                    abs(shadow.multiplicity_completion(-1 / t) + cmath.sqrt(t / 1j) * shat))
        worst["completion_T"] = max(worst["completion_T"],
                                    abs(shadow.multiplicity_completion(t + 1) - cmath.exp(-1j * math.pi / 4) * shat))
        for g in gammas:
            a, b, c, d = g
            gt = (a * t + b) / (c * t + d)
            worst["completion_gamma"] = max(worst["completion_gamma"], abs(
                shadow.multiplicity_completion(gt)
                - shadow.multiplier_system(g) * cmath.sqrt(c * t + d) * shat))
            s_dc = _dedekind_euclid(d % c, c) if c > 1 else Fraction(0)
            pre = cmath.exp(-0.25j * math.pi) * cmath.exp(1j * math.pi * float(Fraction(a + d, 12 * c) - s_dc))
            worst["eta_gamma"] = max(worst["eta_gamma"], abs(
                dedekind_eta(gt) - pre * cmath.sqrt(c * t + d) * eta))
        for z in zs:
            worst["half_period_sq"] = max(worst["half_period_sq"],
                                          characters.identity_check("half_period_sq", z, t))
            worst["J_vanish"] = max(worst["J_vanish"], characters.identity_check("J_vanish", z, t))
            worst["recursion"] = max(worst["recursion"], characters.identity_check("recursion", z, t))
            sum_form = superconformal_character(
                CharSpec("massless_sum_form", 1, Fraction(1, 4), 0), z, t)
            mu_form = superconformal_character(
                CharSpec("massless_mu_form", 1, Fraction(1, 4), 0), z, t)
            worst["massless_forms"] = max(worst["massless_forms"], abs(sum_form - mu_form))
            mh = _completion_direct(z, t)
            worst["mu_hat_T"] = max(worst["mu_hat_T"],
                                    abs(lerch_completion(z, t + 1) - cmath.exp(-0.25j * math.pi) * mh))
            worst["mu_hat_S"] = max(worst["mu_hat_S"],
                                    abs(mh + cmath.sqrt(1j / t) * lerch_completion(z / t, -1 / t)))
            worst["mu_hat_z1"] = max(worst["mu_hat_z1"], abs(lerch_completion(z + 1, t) - mh))
            worst["mu_hat_ztau"] = max(worst["mu_hat_ztau"], abs(lerch_completion(z + t, t) - mh))
    for name, residual in worst.items():
        checks.append((name, residual, tol))
    checks.append(("anomaly_equation", shadow.holomorphic_anomaly_residual(0.23, 0.1 + 1.2j), 1e-5))
    checks.append(("laplacian_equation", shadow.laplacian_residual(0.3, 0.05 + 1.1j), 1e-4))
    return checks


def _suite_dedekind() -> list[tuple[str, float, float]]:
    import random
    from fractions import Fraction

    rng = random.Random(20090406)
    worst_rec = 0.0
    for _ in range(500):
        while True:
            c = rng.randrange(1, 10 ** 6)
            d = rng.randrange(1, 10 ** 6)
            if math.gcd(c, d) == 1:
                break
        lhs = rademacher.dedekind_sum(d, c).value + rademacher.dedekind_sum(c, d).value
        rhs = Fraction(-1, 4) + (Fraction(d, c) + Fraction(c, d) + Fraction(1, c * d)) / 12
        worst_rec = max(worst_rec, abs(float(lhs - rhs)))
    worst_eq = 0.0
    for c in range(1, 61):
        for d in range(c) if c == 1 else range(1, c):
            if math.gcd(d, c) == 1:
                delta = rademacher.dedekind_sum(d, c, "direct").value \
                    - rademacher.dedekind_sum(d, c, "euclid").value
                worst_eq = max(worst_eq, abs(float(delta)))
    return [("reciprocity_500_pairs", worst_rec, 0.0), ("direct_vs_euclid", worst_eq, 0.0)]


def _suite_kloosterman(tol: float) -> list[tuple[str, float, float]]:
    import cmath

    # The series compute the multiplier sums in their quadratic form; check it
    # against the Dedekind-phase form sum_d e^{-3 pi i s(d,c) + 2 pi i d n / c}.
    def phase_sum(n: int, c: int) -> complex:
        terms = [phase * cmath.exp(2j * math.pi * ((d * n) % c) / c)
                 for d, phase in rademacher.multiplier_phases(c)]
        return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))

    worst_quad = 0.0
    worst_im = 0.0
    for c in range(1, 26):
        for n in range(0, 26):
            worst_quad = max(worst_quad, abs(rademacher.kloosterman_quadratic(n, c) - phase_sum(n, c)))
    for c in range(1, 61):
        for n in range(0, 26):
            worst_im = max(worst_im, abs(phase_sum(n, c).imag))
    return [("quadratic_identity", worst_quad, tol), ("realness", worst_im, tol)]


def _suite_shadow_light() -> list[tuple[str, float, float]]:
    # The J-Bessel series converges slowly and non-monotonically; 300 moduli
    # keep the light suite fast while the residual stays safely under 2.
    reference = shadow.shadow_reference_coefficients(9)
    checks = []
    for n in (0, 1):
        value = shadow.shadow_coefficient(n, 300).value
        checks.append((f"shadow_q{8 * n + 1}", abs(value - reference[8 * n + 1]), 2.0))
    return checks


def _suite_decomposition() -> list[tuple[str, float, float]]:
    r12 = characters.decomposition_residual(0.2, 1.5j, 12)
    r0 = characters.decomposition_residual(0.2, 1.5j, 0)
    dec = characters.decomposition_residual(0.2, 1.5j, 12, "decompactified")
    return [("k3_residual_n12", r12, 1e-6),
            ("k3_tail_decreases", 0.0 if r12 < r0 else 1.0, 0.5),
            ("decompactified_residual_n12", dec, 1e-6)]


# suite -> (runner, default --tolerance); None marks a suite whose bounds
# are fixed, so its runner takes no tolerance
_SUITES = {
    "identities": (_suite_identities, 1e-9),
    "dedekind": (_suite_dedekind, None),
    "kloosterman": (_suite_kloosterman, 1e-9),
    "shadow-light": (_suite_shadow_light, None),
    "decomposition": (_suite_decomposition, None),
}


def cmd_verify(args: argparse.Namespace, out) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    failed = 0
    for name in names:
        runner, default_tol = _SUITES[name]
        if default_tol is None:
            checks = runner()
        else:
            checks = runner(args.tolerance if args.tolerance is not None else default_tol)
        for check, residual, bound in checks:
            ok = residual <= bound
            failed += 0 if ok else 1
            out.write(f"{'PASS' if ok else 'FAIL'} {name}:{check} residual={_fmt6(residual)} tol={_fmt6(bound)}\n")
    out.write(f"{'OK' if not failed else 'FAILURES'}: {failed} failed\n")
    return 0 if not failed else 1


# -- entry point ---------------------------------------------------------------


def _at_least(minimum: int):
    """argparse type: an integer no smaller than minimum."""
    def integer(raw: str) -> int:
        value = int(raw)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return integer


def _tolerance(raw: str) -> float:
    """argparse type: a finite bound >= 0."""
    value = float(raw)
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {raw}")
    return value


def _parse_c_max(raw: str) -> list[int]:
    """argparse type: a comma-separated list of positive term counts."""
    try:
        values = [int(part) for part in raw.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid term count list {raw!r}") from None
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("term counts must be positive integers")
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mockforms",
                                     description="Exact and Rademacher-type multiplicity tables "
                                                 "for the K3 elliptic genus")
    parser.add_argument("--format", choices=("json", "csv"), default=None, dest="fmt")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="exact integer coefficient tables")
    p.add_argument("--kind", choices=("k3", "noncompact", "ale"), required=True)
    p.add_argument("--n-max", type=_at_least(1), required=True)
    p.add_argument("--entropy", action="store_true",
                   help="add log|A_n| and the Cardy-type exponent (plot data)")
    p.set_defaults(handler=cmd_coeffs)

    p = sub.add_parser("rademacher", help="truncated series vs exact value")
    p.add_argument("--kind", choices=("k3", "noncompact"), default="k3")
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("--c-max", type=_parse_c_max, default="20",
                   help="comma-separated term counts, e.g. 5,20")
    p.add_argument("--per-c", action="store_true")
    p.set_defaults(handler=cmd_rademacher)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=tuple(_SUITES) + ("all",), default="all")
    p.add_argument("--tolerance", type=_tolerance, default=None,
                   help="bound for the identities and kloosterman checks; "
                        "the other suites have fixed bounds")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("shadow", help="shadow coefficients vs exact pattern")
    p.add_argument("--c-max", type=_parse_c_max, default="800")
    p.add_argument("--n-max", type=_at_least(0), default=11)
    p.set_defaults(handler=cmd_shadow)

    p = sub.add_parser("pofn", help="partition-number calibration")
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("--c-max", type=_parse_c_max, default="20")
    p.set_defaults(handler=cmd_pofn)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    # the checks that span flags: a flag that would be ignored is a usage error
    error = None
    if args.command == "verify" and args.tolerance is not None and args.suite != "all" \
            and _SUITES[args.suite][1] is None:
        error = f"--tolerance does not apply to the {args.suite} suite"
    elif args.command == "verify" and args.fmt is not None:
        error = "--format does not apply to verify"
    elif args.command in ("shadow", "pofn") and len(args.c_max) > 1:
        error = f"{args.command} takes a single --c-max value"
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    buffer = io.StringIO()
    try:
        code = args.handler(args, buffer)
    except MockformsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(buffer.getvalue())
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
