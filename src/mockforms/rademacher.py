"""Dedekind sums, Kloosterman-type multiplier sums and exact coefficient series.

The convergent series computed here have the shape

    prefactor(n) * sum_{c} (1/c) I_{1/2}(pi sqrt(8n-1) / (2c)) K(n, c),

where K(n, c) is a Kloosterman-type sum over residues d mod c, gcd(d, c) = 1,
with phase e^{-3 pi i s(d,c) + 2 pi i d n / c} built from the Dedekind sum
s(d, c).  The same sum has a quadratic (Salie-type) form over the odd k in
[1, 4c] with k^2 = 1 - 8n (mod 8c), and that is how every series here
computes it: the square roots are found per prime power of 8c (Tonelli-Shanks
and Hensel lifting) and joined by the Chinese remainder theorem, which costs
O(2^omega(c) log c) integer steps per modulus instead of phi(c) exact
Dedekind sums.  The sums are exactly real and returned as floats; the
coefficient series memoise them per (c, n mod c) in DEFAULT_CACHE, a plain
dict that lives as long as the process.  The partition-number and shadow
series use the same roots.

The Dedekind-phase form (multiplier_phases) is kept as the reference the
quadratic form is checked against.  Its phase is reduced modulo 2 in exact
rational arithmetic before any conversion to floating point: s(d, c) has
denominator up to 6c and a naive double conversion loses the phase already
for c around 1e5.

Summation over c is always in ascending order and totals use compensated
summation (math.fsum), so results are reproducible bit-for-bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

from .errors import BesselOverflow, NonPositiveArgument, NotCoprime

__all__ = [
    "DedekindSumValue",
    "RademacherPartial",
    "sawtooth",
    "dedekind_sum",
    "multiplier_phases",
    "kloosterman_sum",
    "kloosterman_quadratic",
    "bessel_i_half",
    "bessel_i_three_half",
    "exact_coefficient",
    "leading_asymptotic",
    "cardy_entropy",
    "rademacher_partition",
    "partition_multiplier_sum",
    "DEFAULT_CACHE",
]


@dataclass(frozen=True)
class DedekindSumValue:
    """Exact rational value of a Dedekind sum; the denominator divides 6c."""

    value: Fraction


def sawtooth(x: Union[Fraction, int]) -> Fraction:
    """((x)): 0 at integers, x - floor(x) - 1/2 otherwise."""
    x = Fraction(x)
    if x.denominator == 1:
        return Fraction(0)
    return x - math.floor(x) - Fraction(1, 2)


def _dedekind_direct(d: int, c: int) -> Fraction:
    # sum_{k mod c} ((k/c)) ((kd/c)); integer accumulation of 4c^2 * s(d, c).
    total = 0
    for k in range(1, c):
        r = (k * d) % c
        if r:
            total += (2 * k - c) * (2 * r - c)
    return Fraction(total, 4 * c * c)


def _dedekind_euclid(d: int, c: int) -> Fraction:
    # Reciprocity recursion: s(d,c) = -1/4 + (d^2+c^2+1)/(12dc) - s(c mod d, d).
    d %= c
    if math.gcd(d, c) != 1:
        raise NotCoprime(f"gcd({d}, {c}) != 1")
    num, den, sign = 0, 1, 1
    while c > 1:
        step_num = d * d + c * c + 1 - 3 * d * c
        step_den = 12 * d * c
        num = num * step_den + sign * step_num * den
        den *= step_den
        sign = -sign
        c, d = d, c % d
    return Fraction(num, den)


def dedekind_sum(d: int, c: int, method: str = "euclid") -> DedekindSumValue:
    """s(d, c) as an exact rational.

    method "direct" evaluates the defining sawtooth sum in O(c) and accepts
    any d; "euclid" runs the reciprocity recursion in O(log c) exact steps
    and requires gcd(d, c) = 1.
    """
    if c < 1:
        raise ValueError("modulus c must be positive")
    if method == "direct":
        return DedekindSumValue(_dedekind_direct(d, c))
    if method == "euclid":
        return DedekindSumValue(_dedekind_euclid(d, c))
    raise ValueError(f"unknown method {method!r}")


# -- multiplier phase tables ----------------------------------------------

# Per-modulus tables of (d, e^{-3 pi i s(d,c)}) for the Dedekind-phase
# reference form.  No series reads them; only verification fills them.
_phase_rows: dict[int, tuple[tuple[int, complex], ...]] = {}


def multiplier_phases(c: int) -> tuple[tuple[int, complex], ...]:
    """Unit phases e^{-3 pi i s(d, c)} for d in [0, c), gcd(d, c) = 1.

    The reference form of the multiplier sums:
    sum_d phase * e^{2 pi i d n / c} equals kloosterman_quadratic(n, c).
    """
    row = _phase_rows.get(c)
    if row is None:
        entries = []
        for d in range(c) if c == 1 else range(1, c):
            if math.gcd(d, c) != 1:
                continue
            angle = (-3 * _dedekind_euclid(d, c)) % 2
            entries.append((d, cmath.exp(1j * math.pi * float(angle))))
        row = tuple(entries)
        _phase_rows[c] = row
    return row


# -- Kloosterman sums -------------------------------------------------------

# Memo of the multiplier sums: (c, n mod c) -> K(n, c).  Only kloosterman_sum
# inserts, one entry per miss, so the k3 and noncompact series share entries.
DEFAULT_CACHE: dict[tuple[int, int], float] = {}


def kloosterman_sum(n: int, c: int) -> float:
    """sum_{d mod c, gcd(d,c)=1} e^{-3 pi i s(d,c) + 2 pi i d n / c}, memoised.

    Computed in its quadratic form, kloosterman_quadratic, so the value is
    exactly real; it depends on n only through n mod c.
    """
    if c < 1:
        raise ValueError("modulus c must be positive")
    key = (c, n % c)
    value = DEFAULT_CACHE.get(key)
    if value is None:
        value = DEFAULT_CACHE[key] = kloosterman_quadratic(key[1], c)
    return value


# -- square roots modulo m ----------------------------------------------------


def _factor(m: int) -> list[tuple[int, int]]:
    """(p, e) for each prime power p^e exactly dividing m >= 1, by trial division."""
    factors = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return factors


def _sqrt_mod_prime(a: int, p: int) -> int:
    """A root of x^2 = a (mod p) for an odd prime p and a quadratic residue a (Tonelli-Shanks)."""
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _unit_roots(a: int, p: int, e: int) -> list[int]:
    """The roots of x^2 = a (mod p^e) for a unit a: none, or 2 (p odd), or 1, 2 or 4 (p = 2)."""
    q = p ** e
    if p == 2:
        if e == 1:
            return [1]
        if a % (4 if e == 2 else 8) != 1:
            return []
        if e == 2:
            return [1, 3]
        r = 1  # a root mod 8, lifted one bit at a time: r or r + 2^{j-1} works mod 2^{j+1}
        for j in range(3, e):
            if (r * r - a) % (1 << (j + 1)):
                r += 1 << (j - 1)
        return [r, q - r, (r + q // 2) % q, (q // 2 - r) % q]
    if pow(a, (p - 1) // 2, p) != 1:
        return []
    r = _sqrt_mod_prime(a % p, p)
    for _ in range(e.bit_length()):  # Newton (Hensel) steps double the precision
        r = (r - (r * r - a) * pow(2 * r, -1, q)) % q
    return [r, q - r]


def _prime_power_roots(a: int, p: int, e: int) -> list[int]:
    """Every x mod p^e with x^2 = a (mod p^e)."""
    q = p ** e
    a %= q
    if a == 0:
        return list(range(0, q, p ** ((e + 1) // 2)))
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    if v % 2:
        return []
    # x = p^{v/2} y with y^2 = a / p^v (mod p^{e-v}); y is free mod p^{e-v/2}
    h, k = v // 2, e - v
    return [p ** h * (y + t * p ** k) % q for y in _unit_roots(a, p, k) for t in range(p ** h)]


def _square_roots(a: int, m: int) -> list[int]:
    """Every x in [0, m) with x^2 = a (mod m), ascending: prime-power roots joined by CRT."""
    roots, modulus = [0], 1
    for p, e in _factor(m):
        q = p ** e
        local = _prime_power_roots(a, p, e)
        inverse = pow(modulus, -1, q)
        roots = [r + modulus * ((s - r) * inverse % q) for r in roots for s in local]
        modulus *= q
    return sorted(roots)


def kloosterman_quadratic(n: int, c: int) -> float:
    """kloosterman_sum(n, c) in its quadratic form:

        -(i sqrt(c) / 2) sum_{k odd in [1, 4c], k^2 = 1 - 8n mod 8c} (-4/k) e^{pi i k/(2c)}

    with (-4/k) = +1 for k = 1 mod 4 and -1 for k = 3 mod 4.  The pairing
    k <-> 4c - k cancels the cosines, so the value is exactly real:
    (sqrt(c) / 2) sum (-4/k) sin(pi k / (2c)), summed over ascending k.
    """
    if c < 1:
        raise ValueError("modulus c must be positive")
    sines = [(1 if k % 4 == 1 else -1) * math.sin(math.pi * k / (2 * c))
             for k in _square_roots(1 - 8 * n, 8 * c) if k < 4 * c]
    return math.sqrt(c) / 2 * math.fsum(sines)


# -- Bessel closed forms -----------------------------------------------------


def bessel_i_half(x: float) -> float:
    """I_{1/2}(x) = sqrt(2/(pi x)) sinh(x), x > 0."""
    if x <= 0:
        raise NonPositiveArgument("bessel argument must be positive")
    try:
        return math.sqrt(2.0 / (math.pi * x)) * math.sinh(x)
    except OverflowError:
        raise BesselOverflow(f"I_1/2({x}) exceeds the range of a double") from None


def bessel_i_three_half(x: float) -> float:
    """I_{3/2}(x) = sqrt(2/(pi x)) (cosh(x) - sinh(x)/x), x > 0."""
    if x <= 0:
        raise NonPositiveArgument("bessel argument must be positive")
    try:
        return math.sqrt(2.0 / (math.pi * x)) * (math.cosh(x) - math.sinh(x) / x)
    except OverflowError:
        raise BesselOverflow(f"I_3/2({x}) exceeds the range of a double") from None


# -- exact coefficient series -----------------------------------------------


@dataclass
class RademacherPartial:
    """Truncated exact series: per-modulus terms in ascending c and the total."""

    n: int
    kind: str
    terms: list[tuple[int, float]] = field(default_factory=list)
    cumulative: float = 0.0


def _moduli(kind: str, c_max: int) -> range:
    if kind == "k3":
        return range(1, c_max + 1)
    if kind == "noncompact":
        return range(2, c_max + 1, 2)
    raise ValueError(f"unknown kind {kind!r}")


def exact_coefficient(kind: str, n: int, c_max: int) -> RademacherPartial:
    """Truncated convergent series for the multiplicity coefficient.

    kind "k3" sums over every modulus c <= c_max; kind "noncompact" over even
    moduli only.  Each recorded term already includes the global prefactor
    4 pi / (8n - 1)^{1/4}, so cumulative is the plain (compensated) sum of
    the terms.
    """
    if n < 1 or c_max < 1:
        raise ValueError("n and c_max must be positive")
    pref = 4.0 * math.pi / (8.0 * n - 1.0) ** 0.25
    root = math.pi * math.sqrt(8.0 * n - 1.0)
    partial = RademacherPartial(n=n, kind=kind)
    for c in _moduli(kind, c_max):
        term = pref / c * bessel_i_half(root / (2.0 * c)) * kloosterman_sum(n, c)
        partial.terms.append((c, term))
    partial.cumulative = math.fsum(t for _, t in partial.terms)
    return partial


def leading_asymptotic(kind: str, n: int) -> float:
    """Dominant single-modulus term of the exact series (c=1, resp. c=2)."""
    if n < 1:
        raise ValueError("n must be positive")
    root = math.pi * math.sqrt(8.0 * n - 1.0)
    if kind == "k3":
        return 4.0 * math.pi / (8.0 * n - 1.0) ** 0.25 * bessel_i_half(root / 2.0)
    if kind == "noncompact":
        sign = -1.0 if n % 2 else 1.0
        return sign * 2.0 * math.pi / (8.0 * n - 1.0) ** 0.25 * bessel_i_half(root / 4.0)
    raise ValueError(f"unknown kind {kind!r}")


def cardy_entropy(n: int) -> float:
    """Cardy-type growth exponent 2 pi sqrt(n/2) of the multiplicities."""
    if n < 1:
        raise ValueError("n must be positive")
    return 2.0 * math.pi * math.sqrt(n / 2.0)


# -- partition-number calibration --------------------------------------------


def _kronecker12(d: int) -> int:
    r = d % 12
    if r in (1, 11):
        return 1
    if r in (5, 7):
        return -1
    return 0


def partition_multiplier_sum(n: int, c: int) -> float:
    """sum over d mod 24c with d^2 = 1 - 24n (mod 24c) of (12/d) e^{d pi i/(6c)}.

    The roots d come from the same square-root enumeration as
    kloosterman_quadratic.  The pairing d <-> 24c - d cancels the sines, so
    the value is exactly real: sum (12/d) cos(pi d / (6c)) over ascending d.
    """
    if c < 1:
        raise ValueError("modulus c must be positive")
    cosines = [_kronecker12(d) * math.cos(math.pi * d / (6 * c)) for d in _square_roots(1 - 24 * n, 24 * c)]
    return math.fsum(cosines)


def rademacher_partition(n: int, c_max: int = 20) -> float:
    """Truncated exact series for the partition number p(n).

    This classical expansion calibrates the whole machinery: rounding the
    c_max = 20 truncation recovers p(n) exactly for n up to at least 100.
    """
    if n < 1 or c_max < 1:
        raise ValueError("n and c_max must be positive")
    pref = math.pi / (24.0 * n - 1.0) ** 0.75
    root = math.pi * math.sqrt(24.0 * n - 1.0)
    terms = []
    for c in range(1, c_max + 1):
        dsum = partition_multiplier_sum(n, c)
        terms.append(pref / math.sqrt(12.0 * c) * bessel_i_three_half(root / (6.0 * c)) * dsum)
    return math.fsum(terms)
