"""Dedekind sums, Kloosterman-type multiplier sums and exact coefficient series.

The convergent series computed here have the shape

    prefactor(n) * sum_{c} (1/c) I_{1/2}(pi sqrt(8n-1) / (2c)) K(n, c),

where K(n, c) is a Kloosterman-type sum over residues d mod c, gcd(d, c) = 1,
with phase e^{-3 pi i s(d,c) + 2 pi i d n / c} built from the Dedekind sum
s(d, c).  The phase is reduced modulo 2 in exact rational arithmetic before
any conversion to floating point: s(d, c) has denominator up to 6c and a
naive double conversion loses the phase already for c around 1e5.

Summation over c is always in ascending order and totals use compensated
summation (math.fsum), so results are reproducible bit-for-bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

from .errors import BesselOverflow, CacheCorrupt, NonPositiveArgument, NotCoprime, ParityViolation

__all__ = [
    "DedekindSumValue",
    "KloostermanKey",
    "KloostermanCache",
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

FAMILIES = ("full_gamma1", "gamma0_2")


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

# Per-modulus tables of (d, e^{-3 pi i s(d,c)}); every Kloosterman-type sum
# at modulus c reuses them, so the Dedekind sums are computed once per c.
_phase_rows: dict[int, tuple[tuple[int, complex], ...]] = {}


def multiplier_phases(c: int) -> tuple[tuple[int, complex], ...]:
    """Unit phases e^{-3 pi i s(d, c)} for d in [0, c), gcd(d, c) = 1."""
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


@dataclass(frozen=True)
class KloostermanKey:
    """Normalised cache key: the sum only depends on n mod c."""

    family: str
    c: int
    n_mod_c: int

    @classmethod
    def make(cls, family: str, c: int, n: int) -> "KloostermanKey":
        return cls(family, c, n % c)


class KloostermanCache:
    """In-memory map from KloostermanKey to the complex sum value.

    Reads and inserts of distinct keys are safe under concurrent use (plain
    dict operations); duplicate inserts always carry identical values, so
    last-writer-wins is harmless.
    """

    def __init__(self) -> None:
        self._data: dict[KloostermanKey, complex] = {}

    def lookup(self, key: KloostermanKey) -> Optional[complex]:
        return self._data.get(key)

    def insert(self, key: KloostermanKey, value: complex) -> None:
        self._data[key] = value

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        self._data.clear()

    # one record per line: family,c,n_mod_c,re,im (shortest round-trip floats)

    def dump(self, path: Union[str, Path]) -> None:
        lines = []
        for key in sorted(self._data, key=lambda k: (k.family, k.c, k.n_mod_c)):
            v = self._data[key]
            lines.append(f"{key.family},{key.c},{key.n_mod_c},{v.real!r},{v.imag!r}")
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))

    def load(self, path: Union[str, Path]) -> int:
        count = 0
        for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
            if not line.strip():
                continue
            parts = line.split(",")
            if len(parts) != 5:
                raise CacheCorrupt(f"{path}:{lineno}: expected 5 fields, got {len(parts)}")
            family, c_s, n_s, re_s, im_s = parts
            if family not in FAMILIES:
                raise CacheCorrupt(f"{path}:{lineno}: unknown family {family!r}")
            try:
                c, n_mod = int(c_s), int(n_s)
                value = complex(float(re_s), float(im_s))
            except ValueError as exc:
                raise CacheCorrupt(f"{path}:{lineno}: {exc}") from None
            if c < 1 or not 0 <= n_mod < c:
                raise CacheCorrupt(f"{path}:{lineno}: invalid key ({c}, {n_mod})")
            self._data[KloostermanKey(family, c, n_mod)] = value
            count += 1
        return count


DEFAULT_CACHE = KloostermanCache()


def kloosterman_sum(family: str, n: int, c: int,
                    cache: Optional[KloostermanCache] = DEFAULT_CACHE) -> complex:
    """sum_{d mod c, gcd(d,c)=1} e^{-3 pi i s(d,c) + 2 pi i d n / c}.

    The pairing d <-> c - d (under which s flips sign) makes the sum real;
    the imaginary part only carries rounding noise below 1e-9.  For the
    "gamma0_2" family the modulus must be even; the inner sum is the same.
    """
    if c < 1:
        raise ValueError("modulus c must be positive")
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if family == "gamma0_2" and c % 2:
        raise ParityViolation(f"family gamma0_2 needs an even modulus, got c={c}")
    key = KloostermanKey.make(family, c, n)
    if cache is not None:
        hit = cache.lookup(key)
        if hit is not None:
            return hit
    re_parts, im_parts = [], []
    for d, phase in multiplier_phases(c):
        term = phase * cmath.exp(2j * math.pi * ((d * key.n_mod_c) % c) / c)
        re_parts.append(term.real)
        im_parts.append(term.imag)
    value = complex(math.fsum(re_parts), math.fsum(im_parts))
    if cache is not None:
        cache.insert(key, value)
    return value


def kloosterman_quadratic(n: int, c: int) -> complex:
    """Quadratic-form rewriting of kloosterman_sum("full_gamma1", n, c):

        -(i sqrt(c) / 2) sum_{k odd in [1, 4c], k^2 = 1 - 8n mod 8c} (-4/k) e^{pi i k/(2c)}

    with (-4/k) = +1 for k = 1 mod 4 and -1 for k = 3 mod 4.
    """
    if c < 1:
        raise ValueError("modulus c must be positive")
    target = (1 - 8 * n) % (8 * c)
    total = 0j
    for k in range(1, 4 * c + 1, 2):
        if (k * k) % (8 * c) == target:
            sign = 1 if k % 4 == 1 else -1
            total += sign * cmath.exp(1j * math.pi * k / (2 * c))
    return -0.5j * math.sqrt(c) * total


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


def exact_coefficient(kind: str, n: int, c_max: int,
                      cache: Optional[KloostermanCache] = DEFAULT_CACHE) -> RademacherPartial:
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
        kloo = kloosterman_sum("full_gamma1" if kind == "k3" else "gamma0_2", n, c, cache)
        term = pref / c * bessel_i_half(root / (2.0 * c)) * kloo.real
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


def partition_multiplier_sum(n: int, c: int) -> complex:
    """sum over d mod 24c with d^2 = 1 - 24n (mod 24c) of (12/d) e^{d pi i/(6c)}.

    Real by the pairing d <-> 24c - d; residues are normalised to [1, 24c]
    before the symbol is evaluated.
    """
    target = (1 - 24 * n) % (24 * c)
    total = 0j
    for d in range(1, 24 * c + 1):
        if (d * d) % (24 * c) == target:
            total += _kronecker12(d) * cmath.exp(1j * math.pi * d / (6 * c))
    return total


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
        terms.append(pref / math.sqrt(12.0 * c) * bessel_i_three_half(root / (6.0 * c)) * dsum.real)
    return math.fsum(terms)
