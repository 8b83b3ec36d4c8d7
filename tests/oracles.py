"""Independent oracle implementations used to freeze expected test values.

Nothing here imports the code paths under test: partitions are counted by
direct enumeration, products are expanded with plain integer dictionaries,
integrals use Simpson's rule, and theta/Lerch reference values come from
fixed-range summations with no adaptive logic.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def partition_count(n: int, largest: int | None = None) -> int:
    """Number of partitions of n by brute-force recursion on the largest part."""
    if largest is None:
        largest = n
    if n == 0:
        return 1
    if n < 0 or largest == 0:
        return 0
    return partition_count(n - largest, min(largest, n - largest)) + partition_count(n, largest - 1)


def euler_product_coeffs(n_max: int) -> dict[int, int]:
    """Literal expansion of prod_{n<=n_max}(1 - q^n) to order n_max, integer dict."""
    coeffs = {0: 1}
    for n in range(1, n_max + 1):
        for e in sorted(coeffs, reverse=True):
            if e + n <= n_max:
                coeffs[e + n] = coeffs.get(e + n, 0) - coeffs[e]
        coeffs = {e: c for e, c in coeffs.items() if c}
    return coeffs


def triple_product_coeffs(n_max: int) -> dict[int, int]:
    """Coefficients of [prod (1 - q^n)]^3 by convolving the product with itself."""
    base = euler_product_coeffs(n_max)

    def convolve(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
        out: dict[int, int] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                if e1 + e2 <= n_max:
                    out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return out

    return convolve(convolve(base, base), base)


def pentagonal_coeffs(n_max: int) -> dict[int, int]:
    """Euler's pentagonal pattern for prod (1 - q^n): (-1)^k at k(3k -+ 1)/2."""
    out = {0: 1}
    k = 1
    while True:
        lo, hi = k * (3 * k - 1) // 2, k * (3 * k + 1) // 2
        if lo > n_max:
            break
        sign = -1 if k % 2 else 1
        if lo <= n_max:
            out[lo] = sign
        if hi <= n_max:
            out[hi] = sign
        k += 1
    return out


def theta_terms(label: str, z: complex, tau: complex, n_range: int = 60) -> list[complex]:
    """The terms of the Jacobi theta series over a fixed range, from the definitions."""
    z_eff = z + 0.5 if label in ("11", "01") else z
    if label in ("11", "10"):
        ks = [n + 0.5 for n in range(-n_range, n_range)]
    else:
        ks = list(range(-n_range, n_range + 1))
    return [cmath.exp(1j * math.pi * (tau * k * k + 2.0 * k * z_eff)) for k in ks]


def theta_sum(label: str, z: complex, tau: complex, n_range: int = 60) -> complex:
    """Fixed-range Jacobi theta summation straight from the definitions."""
    total = 0j
    for term in theta_terms(label, z, tau, n_range):
        total += term
    return total


def lerch_terms_fixed(z: complex, tau: complex, n_range: int = 400) -> list[complex]:
    """The terms of the Lerch numerator sum over |n| <= n_range.

    For n < 0 the term is rewritten to keep q^n out of the numerator, which
    is an exact algebraic identity, not an approximation.
    """
    terms = []
    for n in range(-n_range, n_range + 1):
        if n >= 0:
            den = 1.0 - cmath.exp(1j * math.pi * (2.0 * tau * n + 2.0 * z))
            terms.append((-1) ** n * cmath.exp(1j * math.pi * (tau * n * (n + 1) + 2.0 * n * z)) / den)
        else:
            den = cmath.exp(1j * math.pi * (-2.0 * tau * n - 2.0 * z)) - 1.0
            terms.append((-1) ** n * cmath.exp(
                1j * math.pi * (tau * n * (n + 1) - 2.0 * tau * n + 2.0 * (n - 1) * z)) / den)
    return terms


def lerch_sum_fixed(z: complex, tau: complex, n_range: int = 400) -> complex:
    """Lerch sum by direct summation over |n| <= n_range, no adaptivity."""
    th = theta_sum("11", z, tau)
    total = 0j
    for term in lerch_terms_fixed(z, tau, n_range):
        total += term
    return 1j * cmath.exp(1j * math.pi * z) / th * total


def lerch_rounding_scale(z: complex, tau: complex) -> float:
    """What rounding can move lerch_sum_fixed by.

    The oracle is i e^{i pi z} S / theta with S and theta summed term by
    term; each carries an error of about eps times the sum of its terms'
    moduli, so cancellation in either shows up relative to the value as that
    sum over the value.  At Im tau = 0.05 theta cancels to ~1e-7 of its terms.
    """
    lerch = lerch_terms_fixed(z, tau)
    th = theta_terms("11", z, tau)
    mu = abs(lerch_sum_fixed(z, tau))
    return mu * (math.fsum(map(abs, lerch)) / abs(sum(lerch)) + math.fsum(map(abs, th)) / abs(sum(th)))


def vartheta_sum(P: int, a: int, z: complex, tau: complex, n_range: int = 80) -> complex:
    """Level-P theta series by fixed-range summation."""
    total = 0j
    for n in range(-n_range, n_range + 1):
        m = 2 * P * n + a
        total += cmath.exp(2j * math.pi * (tau * m * m / (4.0 * P) + z * m))
    return total


def k3_series_truncation(n: int, c_max: int) -> float:
    """Sum of the first c_max terms of the exact series for A_n, from the definition.

    Term c is  4 pi / (8n - 1)^{1/4} / c * I_{1/2}(pi sqrt(8n - 1) / (2c)) * Re K(n, c)
    with the multiplier sum in its quadratic form,

        K(n, c) = -(i sqrt(c) / 2) sum_{k odd in [1, 4c], k^2 = 1 - 8n mod 8c} (-4/k) e^{pi i k/(2c)},

    so Re K(n, c) = (sqrt(c) / 2) sum (-4/k) sin(pi k / (2c)), and the closed
    form I_{1/2}(x) = sqrt(2 / (pi x)) sinh(x).  Plain floats, math.fsum, no
    Dedekind sums.
    """
    disc = 8 * n - 1
    terms = []
    for c in range(1, c_max + 1):
        target = (1 - 8 * n) % (8 * c)
        signed_sines = [(1 if k % 4 == 1 else -1) * math.sin(math.pi * k / (2 * c))
                        for k in range(1, 4 * c + 1, 2) if (k * k) % (8 * c) == target]
        re_kloosterman = 0.5 * math.sqrt(c) * math.fsum(signed_sines)
        x = math.pi * math.sqrt(disc) / (2 * c)
        bessel = math.sqrt(2.0 / (math.pi * x)) * math.sinh(x)
        terms.append(4.0 * math.pi / disc ** 0.25 / c * bessel * re_kloosterman)
    return math.fsum(terms)


@lru_cache(maxsize=None)
def _dedekind_phase_row(c: int) -> tuple[tuple[int, complex], ...]:
    # s(d, c) = sum_{k=1}^{c-1} ((k/c)) ((kd/c)) with ((r/c)) = (2r - c)/(2c) for
    # r != 0 mod c; the phase -3 s(d, c) is reduced mod 2 exactly.
    row = []
    for d in range(1, c + 1):
        if math.gcd(d, c) != 1:
            continue
        s = Fraction(sum((2 * k - c) * (2 * (k * d % c) - c) for k in range(1, c) if k * d % c), 4 * c * c)
        row.append((d, cmath.exp(1j * math.pi * float(-3 * s % 2))))
    return tuple(row)


def dedekind_phase_sum(n: int, c: int) -> complex:
    """sum_{d mod c, gcd(d, c) = 1} e^{-3 pi i s(d, c) + 2 pi i d n / c}, from the definitions.

    The Dedekind sum comes straight from its sawtooth definition in exact
    rationals; nothing is rewritten in quadratic form.
    """
    terms = [phase * cmath.exp(2j * math.pi * (d * n % c) / c) for d, phase in _dedekind_phase_row(c)]
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def correction_fixed(tau: complex) -> complex:
    """R(tau) = 2 sum_m (-1)^m erfc((m + 1/2) sqrt(2 pi v)) e^{-i pi tau (m + 1/2)^2}, fixed range.

    The range is every m whose erfc argument is below 26; past it erfc is
    below e^{-676} and a term below e^{-338}.
    """
    scale = math.sqrt(2.0 * math.pi * tau.imag)
    total = 0j
    for m in range(int(26.0 / scale + 0.5)):
        k = m + 0.5
        total += 2.0 * (-1) ** m * math.erfc(k * scale) * cmath.exp(-1j * math.pi * tau * k * k)
    return total


def completion_fixed(z: complex, tau: complex) -> complex:
    """mu(z; tau) - R(tau)/2 from the two fixed-range sums."""
    return lerch_sum_fixed(z, tau) - 0.5 * correction_fixed(tau)


def multiplicity_completion_fixed(tau: complex) -> complex:
    """8 sum over the half-periods 1/2, (1 + tau)/2, tau/2 of mu - R/2, fixed ranges."""
    return 8.0 * sum(completion_fixed(w, tau) for w in (0.5, 0.5 * (1.0 + tau), 0.5 * tau))


def eta_product_fixed(tau: complex, n_terms: int = 400) -> complex:
    """q^{1/24} prod_{n <= n_terms} (1 - q^n), factor by factor."""
    q = cmath.exp(2j * math.pi * tau)
    prod = cmath.exp(2j * math.pi * tau / 24.0)
    for n in range(1, n_terms + 1):
        prod *= 1.0 - q ** n
    return prod
