"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines and timings.

Criterion 5 checks that the convergent coefficient series recovers the exact
table by rounding, at the depth the series supports.  The series is a
Poincare-Maass series of weight 1/2 and converges only conditionally, so 20
terms cannot suffice: the 20-term error reaches 1.21 at n = 11 and 13 of the
values A_1..A_30 round to a neighbouring integer (an independent quadratic-form
recomputation, tests/oracles.py, gives the same sums).  Over n <= 30 the largest
error is 1.21 at 20 moduli, 0.58 at 150, 0.50 at 200, 0.303 at 400 and 0.23 at
1000, roughly 6/sqrt(c_max); no n misses for any c_max from 299 to 1000.  The
test therefore asserts uniform rounding at 400 moduli.  At 20 terms it keeps
the A_45 gap bound and the rounding of the printed rows n = 2, 5, 20, 30, 40,
which all hold; A_45 itself is 1.64 off at 20 terms.
"""

import cmath
import math
import time
from fractions import Fraction

from mockforms.analytic import (
    CharSpec,
    dedekind_eta,
    lerch_completion,
    superconformal_character,
)
from mockforms.characters import coeff_table, identity_check
from mockforms.qseries import FracExp, partition_series
from mockforms.rademacher import (
    cardy_entropy,
    dedekind_sum,
    exact_coefficient,
    kloosterman_quadratic,
    leading_asymptotic,
    rademacher_partition,
)
from mockforms.shadow import (
    holomorphic_anomaly_residual,
    laplacian_residual,
    multiplicity_completion,
    multiplier_system,
    shadow_coefficient,
    shadow_reference_coefficients,
)

from oracles import dedekind_phase_sum

F = Fraction

A_TABLE_10 = [90, 462, 1540, 4554, 11592, 27830, 61686, 131100, 265650, 521136]
A_CIRC_TABLE_10 = [-6, 14, -28, 42, -56, 86, -138, 188, -238, 336]
A_EXTENDED = {20: 126894174, 30: 9104078592, 40: 342322413552, 45: 1778826191324}

ZS = (0.23 + 0.11j, 0.41 - 0.07j, 0.13 + 0.05j)
TAUS = (0.10 + 0.90j, -0.20 + 1.30j, 0.35 + 1.80j)
GAMMAS = ((1, 0, 1, 1), (0, -1, 1, 0), (2, 1, 3, 2))


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'} criterion {number}: {detail}")


def test_criterion_1_exact_tables():
    start = time.monotonic()
    compact = coeff_table("k3", 10)
    noncompact = coeff_table("noncompact", 10)
    elapsed = time.monotonic() - start
    ok = ([compact.values[n] for n in range(1, 11)] == A_TABLE_10
          and [noncompact.values[n] for n in range(1, 11)] == A_CIRC_TABLE_10
          and elapsed < 10.0)
    report(1, ok, f"exact tables to n = 10 in {elapsed:.2f}s (< 10s)")
    assert ok


def test_criterion_2_extended_exact_values():
    start = time.monotonic()
    table = coeff_table("k3", 45, truncation=FracExp(24 * 50))
    elapsed = time.monotonic() - start
    ok = all(table.values[n] == expected for n, expected in A_EXTENDED.items()) and elapsed < 60.0
    report(2, ok, f"A_20/A_30/A_40/A_45 exact at truncation 50 in {elapsed:.2f}s (< 60s)")
    assert ok


def test_criterion_3_compact_truncation_table():
    checks = [
        (exact_coefficient("k3", 2, 5).cumulative, 462.026, 0.005),
        (exact_coefficient("k3", 5, 5).cumulative, 11594.141, 0.005),
        (exact_coefficient("k3", 5, 20).cumulative, 11592.421, 0.005),
        (exact_coefficient("k3", 45, 20).cumulative, 1778826191322.367, 0.5),
        (leading_asymptotic("k3", 2), 453.018, 0.005),
        (leading_asymptotic("k3", 5), 11662.495, 0.005),
    ]
    ok = all(abs(got - want) <= tol for got, want, tol in checks)
    report(3, ok, "compact-series truncation table reproduced")
    assert ok, checks


def test_criterion_4_noncompact_truncation_table():
    checks = [
        (leading_asymptotic("noncompact", 5), -61.111, 0.005),
        (exact_coefficient("noncompact", 5, 10).cumulative, -56.544, 0.005),
        (exact_coefficient("noncompact", 5, 20).cumulative, -56.336, 0.005),
        (exact_coefficient("noncompact", 100, 20).cumulative, 438370421.862, 0.01),
    ]
    ok = all(abs(got - want) <= tol for got, want, tol in checks)
    report(4, ok, "noncompact-series truncation table reproduced")
    assert ok, checks


PRINTED_ROWS = (2, 5, 20, 30, 40)
UNIFORM_DEPTH = 400


def test_criterion_5_rounding_recovery():
    table = coeff_table("k3", 30)
    exact = {**table.values, **A_EXTENDED}
    a45_gap = abs(exact_coefficient("k3", 45, 20).cumulative - 1778826191324)
    printed_misses = [n for n in PRINTED_ROWS
                      if round(exact_coefficient("k3", n, 20).cumulative) != exact[n]]

    def errors(c_max):
        return {n: exact_coefficient("k3", n, c_max).cumulative - exact[n] for n in range(1, 31)}

    shallow, deep = errors(20), errors(UNIFORM_DEPTH)
    bad = [(n, round(err, 4)) for n, err in deep.items() if round(exact[n] + err) != exact[n]]
    ok = a45_gap <= 2.0 and not printed_misses and not bad
    detail = (f"A_45 20-term gap {a45_gap:.3f} (<= 2.0); printed rows {PRINTED_ROWS} round at 20 terms; "
              f"max |error| over n <= 30 is {max(map(abs, shallow.values())):.3f} at 20 terms, "
              f"{max(map(abs, deep.values())):.3f} at {UNIFORM_DEPTH} (< 0.5)")
    if printed_misses:
        detail += f"; printed rows missed at 20 terms: {printed_misses}"
    if bad:
        detail += f"; rounding misses at {UNIFORM_DEPTH} terms for n, error = {bad}"
    report(5, ok, detail)
    assert a45_gap <= 2.0
    assert not printed_misses, "a published 20-term row no longer rounds to its exact value"
    assert not bad, f"truncation error exceeds 1/2 at {UNIFORM_DEPTH} terms for these n"


def test_criterion_6_shadow_reproduction():
    reference = shadow_reference_coefficients(41)
    values = {n: shadow_coefficient(n, 800).value for n in range(6)}
    checks = [
        (abs(values[0] - 23.851), 0.01),
        (abs(values[1] - (-72.0946)), 0.01),
        (abs(values[3] - 119.083), 0.01),
        (abs(values[0] - reference[1]), 0.5),
        (abs(values[1] - reference[9]), 0.5),
    ]
    strays = [abs(values[n]) for n in (2, 4, 5)]
    ok = all(err <= tol for err, tol in checks) and all(s < 0.7 for s in strays)
    report(6, ok, f"shadow series at 800 moduli: q/q9/q25 matched, strays {[f'{s:.3f}' for s in strays]} < 0.7")
    assert ok, (values, strays)


def test_criterion_7_identity_suite():
    start = time.monotonic()
    worst: dict[str, float] = {}

    def track(name, value):
        worst[name] = max(worst.get(name, 0.0), value)

    for t in TAUS:
        shat = multiplicity_completion(t)
        track("completion_inversion", abs(multiplicity_completion(-1 / t) + cmath.sqrt(t / 1j) * shat))
        track("completion_translation", abs(multiplicity_completion(t + 1) - cmath.exp(-0.25j * math.pi) * shat))
        for gamma in GAMMAS:
            a, b, c, d = gamma
            gt = (a * t + b) / (c * t + d)
            track("completion_multiplier", abs(
                multiplicity_completion(gt) - multiplier_system(gamma) * cmath.sqrt(c * t + d) * shat))
            s_dc = dedekind_sum(d % c, c).value if c > 1 else F(0)
            pre = cmath.exp(-0.25j * math.pi) * cmath.exp(1j * math.pi * float(F(a + d, 12 * c) - s_dc))
            track("eta_multiplier", abs(dedekind_eta(gt) - pre * cmath.sqrt(c * t + d) * dedekind_eta(t)))
        for z in ZS:
            track("half_period_squares", identity_check("half_period_sq", z, t))
            track("kernel_diagonal", identity_check("J_vanish", z, t))
            track("massless_recursion", identity_check("recursion", z, t))
            sum_form = superconformal_character(CharSpec("massless_sum_form", 1, F(1, 4), 0), z, t)
            mu_form = superconformal_character(CharSpec("massless_mu_form", 1, F(1, 4), 0), z, t)
            track("massless_two_forms", abs(sum_form - mu_form))
            mh = lerch_completion(z, t)
            track("lerch_completion_translation",
                  abs(lerch_completion(z, t + 1) - cmath.exp(-0.25j * math.pi) * mh))
            track("lerch_completion_inversion",
                  abs(mh + cmath.sqrt(1j / t) * lerch_completion(z / t, -1 / t)))
            track("lerch_completion_z_shift", abs(lerch_completion(z + 1, t) - mh))
            track("lerch_completion_lattice_shift", abs(lerch_completion(z + t, t) - mh))
    grid_ok = all(value < 1e-9 for value in worst.values())
    anomaly = holomorphic_anomaly_residual(0.23, 0.1 + 1.2j, 1e-4)
    laplacian = laplacian_residual(0.3, 0.05 + 1.1j, 1e-3)
    elapsed = time.monotonic() - start
    ok = grid_ok and anomaly < 1e-5 and laplacian < 1e-4 and elapsed < 30.0
    report(7, ok, f"identity grid worst {max(worst.values()):.2e} (< 1e-9), "
                  f"anomaly {anomaly:.2e} (< 1e-5), laplacian {laplacian:.2e} (< 1e-4), "
                  f"{elapsed:.1f}s (< 30s)")
    assert ok, worst


def test_criterion_8_dedekind_kloosterman_suite():
    import random
    rng = random.Random(20090406)
    for _ in range(500):
        while True:
            c = rng.randrange(1, 10 ** 6)
            d = rng.randrange(1, 10 ** 6)
            if math.gcd(c, d) == 1:
                break
        lhs = dedekind_sum(d, c).value + dedekind_sum(c, d).value
        rhs = F(-1, 4) + (F(d, c) + F(c, d) + F(1, c * d)) / 12
        assert lhs == rhs
    for c in range(1, 201):
        for d in range(c) if c == 1 else range(1, c):
            if math.gcd(d, c) == 1:
                assert dedekind_sum(d, c, "direct").value == dedekind_sum(d, c, "euclid").value
    worst = 0.0
    for c in range(1, 26):
        for n in range(0, 26):
            worst = max(worst, abs(kloosterman_quadratic(n, c) - dedekind_phase_sum(n, c)))
    ok = worst < 1e-9
    report(8, ok, f"reciprocity (500 pairs), direct==euclid (c <= 200), "
                  f"quadratic form vs Dedekind phases worst {worst:.2e} (< 1e-9)")
    assert ok


def test_criterion_9_partition_calibration():
    start = time.monotonic()
    generating = partition_series(FracExp(24 * 101))
    mismatches = [n for n in range(1, 101)
                  if round(rademacher_partition(n, 20)) != generating.coefficient(n)]
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed < 30.0
    report(9, ok, f"p(n) recovered for 1 <= n <= 100 in {elapsed:.2f}s (< 30s)")
    assert ok, mismatches


def test_criterion_10_entropy_trend():
    points = (10, 20, 30, 40, 45)
    table = coeff_table("k3", 45, truncation=FracExp(24 * 50))
    ratios = [math.log(table.values[n]) / cardy_entropy(n) for n in points]
    in_band = all(0.90 <= r <= 1.00 for r in ratios)
    monotone = all(a < b for a, b in zip(ratios, ratios[1:]))
    ok = in_band and monotone
    report(10, ok, "log(A_n)/entropy ratios " + ", ".join(f"{r:.4f}" for r in ratios)
          + " in [0.90, 1.00] and increasing")
    assert ok, ratios
