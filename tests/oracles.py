"""Independent oracle implementations used to freeze expected test values.

Nothing here imports the code paths under test: partitions are counted by
direct enumeration, products are expanded with plain integer dictionaries,
and theta/Lerch reference values come from fixed-range summations with no
adaptive logic.  The exact multiplicity tables come from the Lambert-type
quotients at the three half-periods, in integer long division.  The one
integral, R(tau) as a period integral of eta^3, takes eta^3 from Jacobi's
series over a fixed range of terms and is the only adaptive oracle: the
trapezoid rule in log t halves its step until two estimates agree to 1e-11
relative.
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


# -- exact (q, y) series for the character decomposition ---------------------
#
# A series is a dict {(e, k): int} for sum c q^{e/8} y^k, kept below
# q^{e_max/8}; every exponent e is >= 0, so a product needs no terms past
# the cut.


def qy_product(a: dict, b: dict, e_max: int) -> dict:
    """a * b below q^{e_max/8}."""
    by_e: dict[int, list[tuple[int, int]]] = {}
    for (e, k), c in b.items():
        by_e.setdefault(e, []).append((k, c))
    b_rows = sorted(by_e.items())
    out: dict[tuple[int, int], int] = {}
    for (e1, k1), c1 in a.items():
        for e2, row in b_rows:
            e = e1 + e2
            if e >= e_max:
                break
            for k2, c2 in row:
                key = (e, k1 + k2)
                out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


def qy_binomials(factors, e_max: int) -> dict:
    """prod (1 - q^{e/8} y^k) over the pairs (e, k) in factors, each e > 0, below q^{e_max/8}."""
    out = {(0, 0): 1}
    for e, k in factors:
        step = dict(out)
        for (e1, k1), c in out.items():
            if e1 + e < e_max:
                key = (e1 + e, k1 + k)
                step[key] = step.get(key, 0) - c
        out = {key: c for key, c in step.items() if c}
    return out


def qy_quotient(num: dict, den: dict[int, int], e_max: int) -> dict:
    """num / den below q^{e_max/8}, den a series in q alone ({e: c}), by one long division per y-power.

    den's lowest term c0 q^{e0/8} must divide exactly at every step (c0 = 1
    makes it monic), so num must be known below q^{(e_max + e0)/8}.
    """
    e0 = min(den)
    c0 = den[e0]
    rest = sorted((e - e0, c) for e, c in den.items() if e != e0)
    rows: dict[int, dict[int, int]] = {}
    for (e, k), c in num.items():
        rows.setdefault(k, {})[e] = c
    out = {}
    for k, row in rows.items():
        for e in range(min(row), e_max + e0):
            c = row.pop(e, 0)
            if not c:
                continue
            coeff, remainder = divmod(c, c0)
            if remainder:
                raise ValueError(f"inexact division at q^{e}/8 y^{k}")
            out[(e - e0, k)] = coeff
            for d, cd in rest:
                if e + d >= e_max + e0:
                    break
                row[e + d] = row.get(e + d, 0) - coeff * cd
    return out


def theta_square_qy(label: str, e_max: int) -> dict:
    """theta_label(z)^2 with y = e^{2 pi i z}, as the literal double sum over the theta lattice.

    Writing k = j/2 (j odd for "11" and "10", even for "00" and "01"), the
    term q^{k^2/2} y^k is q^{j^2/8} y^{j/2}, so a pair (j1, j2) gives
    q^{(j1^2 + j2^2)/8} y^{(j1 + j2)/2}, with sign (-1)^{k1 + k2} for "11"
    and "01".
    """
    odd = label in ("11", "10")
    signed = label in ("11", "01")
    bound = math.isqrt(e_max) + 1
    js = [j for j in range(-bound, bound + 1) if j % 2 == odd]
    out: dict[tuple[int, int], int] = {}
    for j1 in js:
        for j2 in js:
            e = j1 * j1 + j2 * j2
            if e < e_max:
                k = (j1 + j2) // 2
                out[(e, k)] = out.get((e, k), 0) + (-1 if signed and k % 2 else 1)
    return out


def theta_mu_qy(e_max: int) -> dict:
    """theta_11(z)^2 mu(z; tau) / q^{1/8}, in the annulus |q| < |y| < 1.

    theta_11^2 mu = q^{1/8} (1 - y) P sum_n (-1)^n y^n q^{n(n+1)/2} / (1 - y q^n)
    with P = prod_{n>=1} (1 - q^n)(1 - y q^n)(1 - q^n / y) from its binomials.
    The n = 0 term 1/(1 - y) enters as exactly 1 after the (1 - y) product;
    n >= 1 expands as sum_{j>=0} y^j q^{nj} and n <= -1 as
    -sum_{j>=1} y^{-j} q^{-nj}.
    """
    n_max = e_max // 8 + 1
    p = qy_binomials([(8 * n, k) for n in range(1, n_max + 1) for k in (0, 1, -1)], e_max)
    appell: dict[tuple[int, int], int] = {}
    for n in range(1, n_max + 1):
        for sign, m in ((1, n), (-1, -n)):  # the n >= 1 and n <= -1 terms
            e_n = 4 * m * (m + 1)  # q^{m(m+1)/2}
            j = 0 if m > 0 else 1
            while e_n + 8 * n * j < e_max:
                key = (e_n + 8 * n * j, m + sign * j)
                appell[key] = appell.get(key, 0) + sign * (-1 if m % 2 else 1)
                j += 1
    bracket = qy_product(appell, {(0, 0): 1, (0, 1): -1}, e_max)
    bracket[(0, 0)] = bracket.get((0, 0), 0) + 1
    return qy_product(p, bracket, e_max)


def decomposition_mismatches(variant: str, weights: dict[int, int], n_max: int) -> list[tuple[int, int]]:
    """The (e, k) below q^{n_max} where the two sides of the decomposition differ.

    variant "k3":              Z eta^3 = theta_11^2 (24 mu + q^{-1/8} sum_n weights[n] q^n)
    variant "decompactified":  Z eta^3 = theta_11^2 (16 mu + 16 q^{-1/8} sum_n weights[n] q^n)

    with Z = 8 sum theta_l(z)^2 / theta_l(0)^2 over l in {10, 00, 01} (k3)
    or {00, 01} (decompactified), eta^3 = q^{1/8} prod (1 - q^n)^3 from its
    binomials, and the common q^{1/8} divided out of both sides.
    """
    labels, c_mu, scale = {"k3": (("10", "00", "01"), 24, 1),
                           "decompactified": (("00", "01"), 16, 16)}[variant]
    e_max = 8 * n_max
    genus: dict[tuple[int, int], int] = {}
    for label in labels:
        # theta_10(0)^2 starts at q^{1/4}, so its quotient needs the numerator past the cut
        square = theta_square_qy(label, e_max + 8)
        at_zero: dict[int, int] = {}
        for (e, _), c in square.items():
            at_zero[e] = at_zero.get(e, 0) + c
        eight = {key: 8 * c for key, c in square.items()}
        for key, c in qy_quotient(eight, {e: c for e, c in at_zero.items() if c}, e_max).items():
            genus[key] = genus.get(key, 0) + c
    cubed = qy_binomials([(8 * n, 0) for n in range(1, n_max + 1) for _ in range(3)], e_max)
    lhs = qy_product(genus, cubed, e_max)

    rhs = {key: c_mu * c for key, c in theta_mu_qy(e_max).items()}
    theta_sq = {(e - 2, k): c for (e, k), c in theta_square_qy("11", e_max + 2).items()}  # / q^{1/4}
    weight_series = {(8 * n, 0): scale * w for n, w in weights.items() if w}
    for key, c in qy_product(theta_sq, weight_series, e_max).items():
        rhs[key] = rhs.get(key, 0) + c
    return sorted(key for key in lhs.keys() | rhs.keys() if lhs.get(key, 0) != rhs.get(key, 0))


# -- the tables by Lambert-type quotients ----------------------------------
#
# The multiplicity series Sigma = 8 eta (h_2 + h_3 + h_4) = q^{-1/8} (2 - sum A_n q^n)
# has h_label = N_label/(eta theta_label), with N_label a Lambert-type sum
# at one of the three half-periods, so Sigma = 8 sum N_label/theta_label.
# In x = q^{1/2} each quotient is q^{-1/8} times an integer series over a
# monic divisor: 4 N_2 over T = theta_10/(2 q^{1/8}) = sum_{m>=0} x^{m(m+1)},
# and 8 q^{1/8} N_l over theta_00, theta_01 (l = 3, 4).  Labels 2, 3, 4 give
# k3, label 2 alone the noncompact series and labels 3, 4 the ALE series
# Sigma - Sigma^circ = -16 q^{-1/8} sum ALE_n q^n.  This path never meets
# E_2, F_2^(2) or eta^3, and every invariant it relies on is checked here:
# the numerators stay on the half-step lattice, the odd powers of x cancel,
# the leading coefficient is 2 (0 for ALE) and the ALE sum divides by 16.
# A break raises ArithmeticError.

LAMBERT_LABELS = {"k3": (2, 3, 4), "noncompact": (2,), "ale": (3, 4)}


def lambert_numerator_terms(label: int, limit: int):
    """Terms (u, c) of 2 N_label = sum c q^{u/24}, u < limit (one u may occur more than once):

    label 2: sum_n q^{n(n+1)/2} / (1 + q^n)            (pairs n <-> -n, n=0 gives 1/2)
    label 3: sum_n q^{n^2/2 - 1/8} / (1 + q^{n-1/2})   (pairs n <-> 1-n)
    label 4: sum_n (-1)^n q^{n^2/2 - 1/8} / (1 - q^{n-1/2})
    """
    if label == 2:
        if limit > 0:
            yield 0, 1
        m = 1
        while 12 * m * (m + 1) < limit:  # exponent m(m+1)/2, geometric ratio q^m
            for j, u in enumerate(range(12 * m * (m + 1), limit, 24 * m)):
                yield u, 4 * (-1) ** j
            m += 1
    else:
        n = 1
        while 3 * (4 * n * n - 1) < limit:  # exponent n^2/2 - 1/8, geometric ratio q^{n - 1/2}
            outer = (-1) ** n if label == 4 else 1
            for j, u in enumerate(range(3 * (4 * n * n - 1), limit, 12 * (2 * n - 1))):
                yield u, 4 * outer * (1 if label == 4 else (-1) ** j)
            n += 1


def lambert_quotient(label: int, n_terms: int) -> tuple[int, ...]:
    """First n_terms coefficients in x = q^{1/2} of q^{1/8} 8 N_label/theta_label.

    Computed once per process for each label, n_terms and numerator
    enumeration: a test that replaces lambert_numerator_terms gets a fresh
    quotient from its replacement.
    """
    return _lambert_quotient(label, n_terms, lambert_numerator_terms)


@lru_cache(maxsize=None)
def _lambert_quotient(label: int, n_terms: int, numerator_terms) -> tuple[int, ...]:
    # 2 N_2 times 2 over T; 2 N_l times 4 q^{1/8} over theta_00 or theta_01
    shift, scale = (0, 2) if label == 2 else (3, 4)
    quot = [0] * n_terms
    for u, c in numerator_terms(label, 12 * n_terms - shift):
        k, off = divmod(u + shift, 12)
        if off:
            raise ArithmeticError(f"numerator term q^({Fraction(u, 24)}) of h_{label} is off the half-step lattice")
        quot[k] += scale * c
    if label == 2:  # T = sum_{m>=0} x^{m(m+1)}
        divisor = [(m * (m + 1), 1) for m in range(1, math.isqrt(n_terms) + 1)]
    else:  # theta_00, theta_01 = 1 + 2 sum_{n>=1} (+-1)^n x^{n^2}
        sign = -1 if label == 4 else 1
        divisor = [(n * n, 2 * sign ** n) for n in range(1, math.isqrt(n_terms) + 1)]
    for k in range(1, n_terms):  # monic long division in place
        acc = quot[k]
        for j, d in divisor:
            if j > k:
                break
            acc -= d * quot[k - j]
        quot[k] = acc
    return tuple(quot)


def lambert_sigma(kind: str, n_terms: int) -> list[int]:
    """s_0, ..., s_{n_terms-1} of Sigma = q^{-1/8} sum s_k x^k, with the odd s_k and s_0 checked."""
    sigma = [sum(column) for column in zip(*(lambert_quotient(label, n_terms) for label in LAMBERT_LABELS[kind]))]
    for k in range(1, n_terms, 2):
        if sigma[k]:
            raise ArithmeticError(f"unexpected exponent q^({Fraction(12 * k - 3, 24)}) escaped cancellation")
    leading = 2 if 2 in LAMBERT_LABELS[kind] else 0
    if sigma[0] != leading:
        raise ArithmeticError(f"coefficient {sigma[0]} at q^(-1/8) is not {leading}")
    return sigma


def lambert_table(kind: str, n_max: int) -> dict[int, int]:
    """A_n, A_n^circ or ALE_n = (A_n - A_n^circ)/16 for 1 <= n <= n_max, from lambert_sigma."""
    sigma = lambert_sigma(kind, 2 * n_max + 1)
    scale = 16 if kind == "ale" else 1
    values = {}
    for n in range(1, n_max + 1):
        values[n], rest = divmod(-sigma[2 * n], scale)
        if rest:
            raise ArithmeticError(f"ALE coefficient at n = {n} is not divisible by 16")
    return values


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


def _eta_cubed_jacobi(x: complex) -> complex:
    """eta(x)^3 = sum_{m>=0} (-1)^m (2m+1) q^{(2m+1)^2/8} (Jacobi's identity).

    The range is every m with pi Im x (2m+1)^2 / 4 < 80, the modulus of
    q^{(2m+1)^2/8} staying above e^{-80}.
    """
    total = 0j
    k = 1
    while math.pi * x.imag * k * k / 4.0 < 80.0:
        total += (-1) ** (k // 2) * k * cmath.exp(0.25j * math.pi * x * k * k)
        k += 2
    return total


def correction_period_integral(tau: complex) -> complex:
    """R(tau) = (1/sqrt(i)) int_{-conj(tau)}^{i inf} eta(x)^3 / sqrt(x + tau) dx.

    Along x = -conj(tau) + i t the square root simplifies and the integral
    becomes int_0^inf eta(-conj(tau) + i t)^3 / sqrt(2v + t) dt.  With
    t = e^s it is taken over s in [-42, 4.6] by the trapezoid rule, whose
    step halves (at most 16 times) until two estimates agree to
    1e-11 (1 + |estimate|).
    """
    v = tau.imag
    base = -tau.conjugate()

    def integrand(s: float) -> complex:
        u = math.exp(s)
        return _eta_cubed_jacobi(base + 1j * u) * u / math.sqrt(2.0 * v + u)

    lo, hi = -42.0, 4.6
    h = 0.5
    nodes = int((hi - lo) / h)
    vals = [integrand(lo + i * h) for i in range(nodes + 1)]
    estimate = h * (sum(vals) - 0.5 * (vals[0] + vals[-1]))
    for _ in range(16):
        mid = [integrand(lo + (i + 0.5) * h) for i in range(nodes)]
        refined = 0.5 * estimate + 0.5 * h * sum(mid)
        if abs(refined - estimate) < 1e-11 * (1.0 + abs(refined)):
            return refined
        estimate = refined
        h *= 0.5
        nodes *= 2
    raise RuntimeError("period integral refinement stalled")


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
