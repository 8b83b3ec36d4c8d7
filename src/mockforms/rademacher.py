"""Dedekind sums, Kloosterman-type multiplier sums and exact coefficient series.

One driver, _series, forms every term of the convergent series computed
here, pref / w(c) B(root / (k c)) K(n, c) over the moduli c: the k3 and
noncompact coefficients (B = I_{1/2}), the partition numbers (I_{3/2}) and
the shadow (J_{1/2}, shadow.shadow_coefficient); those Bessel closed forms
live here too.  K(n, c) is a Kloosterman-type sum over the d mod c prime to c,
with phase e^{-3 pi i s(d,c) + 2 pi i d n / c} built from the Dedekind sum
s(d, c).  The same sum has a quadratic (Salie-type) form over the odd k in
[1, 4c] with k^2 = 1 - 8n (mod 8c), and that is how every series here
computes it.  One kernel, _multiplier_products, walks all the moduli of a
series for its fixed n.  By the Chinese remainder theorem e(k/4c) is a
product of one phase per prime power of 4c, so each sum is a product of
one sum per prime power (D. H. Lehmer, Trans. AMS 43, 1938, for the
partition sums): one sine of a 2-adic root of 1 - 8n, lifted once per
series, for the 2-part, which carries (-4/k), and for each odd p^e a
cosine sum over the roots of 1 - 8n mod p^e, one 2 cos when p does not
divide 1 - 8n.  Those roots depend on p^e alone, so each is found once per
series and kept in a memo that lives only for the call: one int, the root
below p^e / 2, when p does not divide 1 - 8n, else the list of them.  A c
with a rootless prime power, K = 0, costs no sine (61 % of the sums for
n <= 30 at 400 and 800 moduli).  A root mod p is one power, checked by
squaring it, and the check also tells whether there is a root:
a^{(p+1)/4} for p = 3 (mod 4), Atkin's formula for p = 5 (mod 8); only
p = 1 (mod 8) takes Euler's criterion and then Tonelli-Shanks.  Newton
(Hensel) steps lift it to p^e.  The partition sums' 3-part, which carries
(d/3), is a sine like the 2-part: 1 - 24n = 1 (mod 3), so its 3-adic root
is lifted once per series, one Newton step per power of 3, as the 2-adic
one is, and no power of 3 is rooted.  What does not depend on n, the
factorisation of mc = 4c (12c for partitions) and one modular inverse
per prime power, is found on a modulus's first use in the process and
kept in _crt_frames, keyed by mc, for as long as the process lives:
about 310 bytes per modulus (tracemalloc), 370 KB for the 1200 moduli of
a k3 series at c_max = 1200.  4 (3c) = 12c, so the partition series and
the others share keys.  Per modulus and series that leaves one sine or
cosine per prime power when no prime of c divides 1 - 8n, instead of
phi(c) exact Dedekind sums.  The sums are exactly real, returned as
floats, and agree with a sum over the roots within rounding, not bit for
bit.  _series reads the kernel's P(c) in one pass per series and forms
each term there, the Bessel closed form included; an empty sum takes no
Bessel factor.  kloosterman_quadratic and partition_multiplier_sum call
the kernel on their one modulus, and kloosterman_sum memoises
kloosterman_quadratic per (c, n mod c) in DEFAULT_CACHE, a plain dict
that lives as long as the process.

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
from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction

from .errors import BesselOverflow, NonPositiveArgument, NotCoprime

__all__ = [
    "DedekindSumValue",
    "RademacherPartial",
    "dedekind_sum",
    "multiplier_phases",
    "kloosterman_sum",
    "kloosterman_quadratic",
    "bessel_i_half",
    "bessel_i_three_half",
    "bessel_j_half",
    "exact_coefficient",
    "leading_asymptotic",
    "cardy_entropy",
    "rademacher_partition",
    "partition_multiplier_sum",
    "DEFAULT_CACHE",
]


class DedekindSumValue(namedtuple("DedekindSumValue", "value")):
    """Exact rational value of a Dedekind sum; the denominator divides 6c."""

    __slots__ = ()


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

    method "direct" evaluates the defining sum over k mod c in O(c) and accepts
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

# Memo of kloosterman_sum: (c, n mod c) -> K(n, c), one entry per miss.  The
# series do not read it: their one pass over the moduli costs less than it.
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


def _sqrt_mod_prime(a: int, p: int, e: int = 1) -> int | None:
    """A root y of y^2 = a (mod p^e) for an odd prime p not dividing a; None if a is not a square mod p.

    The root mod p is one power for p = 3 (mod 4) and Atkin's formula for
    p = 5 (mod 8), each checked by squaring it: the check also tells
    whether a is a square.  Only p = 1 (mod 8) takes Euler's criterion and
    then Tonelli-Shanks, with its search for a non-residue.  Newton
    (Hensel) steps, each of which doubles the precision, lift the root to
    p^e; the other root is p^e - y.
    """
    u = a % p
    if p & 3 == 3:
        y = pow(u, (p + 1) >> 2, p)
    elif p & 7 == 5:
        b = pow(2 * u, (p - 5) >> 3, p)
        y = u * b * (2 * u * b * b - 1) % p
    elif pow(u, (p - 1) >> 1, p) != 1:
        return None
    else:
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 3  # 2 is a square for p = 1 (mod 8), so the least non-residue is an odd prime
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 2
        c, t, y = pow(z, q, p), pow(u, q, p), pow(u, (q + 1) // 2, p)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (s - i - 1), p)
            s, c = i, b * b % p
            t, y = t * c % p, y * b % p
    if y * y % p != u:
        return None
    if e > 1:
        q = p ** e
        for _ in range((e - 1).bit_length()):
            y = (y - (y * y - a) * pow(2 * y, -1, q)) % q
    return y


def _prime_power_roots(a: int, p: int, e: int) -> list[int] | None:
    """Every x mod p^e with x^2 = a (mod p^e), p an odd prime, in no set order; None if there is none.

    With a = p^{2h} u (mod p^e), u a unit, the roots are x = p^h y with
    y^2 = u (mod p^{e-2h}), y and p^{e-2h} - y from _sqrt_mod_prime.
    u = 0 when p^e divides a.
    """
    pe = p ** e
    a %= pe
    if a == 0:
        return list(range(0, pe, p ** ((e + 1) // 2)))
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    h, k = v // 2, e - v  # x = p^h y with y^2 = a (mod p^k), two roots y
    y = None if v % 2 else _sqrt_mod_prime(a, p, k)
    if y is None:
        return None
    q = p ** k
    if h == 0:
        return [y, q - y]
    # y is free mod p^{k+h} = p^{e-h}
    ph = p ** h
    return [ph * (z + t * q) % pe for z in (y, q - y) for t in range(ph)]


def _half_roots(a: int, p: int, e: int) -> int | list[int] | None:
    """The roots y < p^e / 2 of y^2 = a (mod p^e), p an odd prime, as _multiplier_products keeps them.

    One int when p does not divide a, its pair being p^e - y; otherwise the
    list of them from _prime_power_roots, in its order.  None if there is
    no root.
    """
    q = p ** e
    if a % p:
        y = _sqrt_mod_prime(a, p, e)
        return y if y is None or 2 * y < q else q - y
    roots = _prime_power_roots(a, p, e)
    return None if roots is None else [y for y in roots if 2 * y < q]


# The n-independent part of the kernel, mc -> (q2, (mc/q2)^{-1} mod q2,
# ((q, p, e, (mc/q)^{-1} mod q) for each odd prime power q = p^e of mc, p
# ascending)), with q2 the 2-part of mc.  Empty at import and filled by
# _crt_frame on a modulus's first use.
_crt_frames: dict[int, tuple[int, int, tuple[tuple[int, int, int, int], ...]]] = {}


def _crt_frame(mc: int) -> tuple[int, int, tuple[tuple[int, int, int, int], ...]]:
    """Factor mc by trial division up to each least prime, store its frame in _crt_frames and return it."""
    q2 = mc & -mc
    rest, p, parts = mc // q2, 3, []
    while rest > 1:
        while rest % p and p * p <= rest:
            p += 2
        if rest % p:
            p = rest
        q, e, rest = p, 1, rest // p
        while rest % p == 0:
            q, e, rest = q * p, e + 1, rest // p
        parts.append((q, p, e, pow(mc // q, -1, q)))
    frame = _crt_frames[mc] = (q2, pow(mc // q2, -1, q2), tuple(parts))
    return frame


def _multiplier_products(a: int, moduli: Iterable[int], m: int) -> list[float]:
    """P(c) for each c of moduli, in order: sum_{x mod mc, x^2 = a (mod 2mc)} chi(x) e(x/mc) = i^s P(c).

    a = 1 (mod 8), and m = 4 with chi = (-4/.) and s = 1, or m = 12 with
    chi = (12/.) = (-4/.)(./3), a = 1 (mod 3) and s = 2.  By the Chinese
    remainder theorem e(x/mc) = prod_q e(x w / q) over the prime-power
    parts q of mc, w = (mc/q)^{-1} mod q, so the sum is a product of one
    sum per part:
    - 2^v, v >= 2, with the roots +-r of a 2-adic root r lifted once per
      call, gives 2i (-4/r) sin(2 pi r w / 2^v);
    - for m = 12, 3^f with the roots +-t of a 3-adic root t = 1 (mod 3),
      lifted once per call like r, gives 2i (t/3) sin(2 pi t w / 3^f);
    - any other p^e gives sum_y cos(2 pi y w / p^e) over its roots y, one
      2 cos per pair +-y.
    Each angle is reduced to [-pi, pi], so a factor does not depend on
    which root of a pair +-y stands for it.  The parts and their w come
    from _crt_frames.  One memo per call, q -> the roots y < q / 2 (one int
    when p does not divide a, see _half_roots) or None, serves every c; a
    c with a rootless part gives 0.0 before any sine is taken.
    """
    sin, cos, tau = math.sin, math.cos, 2 * math.pi
    r, bound = 1, 8  # r^2 = a (mod bound), lifted a bit at a time as the moduli need
    t, power = 1, 3  # t^2 = a (mod power) for m = 12, lifted a power of 3 at a time
    three = 3 if m == 12 else 0  # the prime whose part is lifted, not rooted
    memo: dict[int, int | list[int] | None] = {}
    frames = _crt_frames
    products = []
    for c in moduli:
        mc = m * c
        q2, w2, parts = frames.get(mc) or _crt_frame(mc)
        for q, p, e, _ in parts:
            try:
                roots = memo[q]
            except KeyError:
                if p == three:
                    while power < q:  # one Newton step; 1 / (2t) = 2t (mod 3)
                        t += (a - t * t) // power * 2 * t % 3 * power
                        power *= 3
                    y = t % q
                    roots = memo[q] = y if 2 * y < q else q - y
                else:
                    roots = memo[q] = _half_roots(a, p, e)
            if roots is None:
                products.append(0.0)
                break
        else:
            while bound <= q2:  # r or r + bound/2 is a root mod 2 bound
                if (r * r - a) & (2 * bound - 1):
                    r += bound >> 1
                bound <<= 1
            k = r * w2 % q2
            value = (2.0 if r & 3 == 1 else -2.0) * sin(tau * (k if 2 * k < q2 else k - q2) / q2)
            for q, p, _, w in parts:
                roots = memo[q]
                if type(roots) is int:
                    k = roots * w % q
                    angle = tau * (k if 2 * k < q else k - q) / q
                    if p == three:
                        value *= (2.0 if roots % 3 == 1 else -2.0) * sin(angle)
                    else:
                        value *= 2.0 * cos(angle)
                    continue
                factor = 0.0
                for y in roots:
                    k = y * w % q
                    factor += 2.0 * cos(tau * (k if 2 * k < q else k - q) / q) if y else 1.0
                value *= factor
            products.append(value)
    return products


def kloosterman_quadratic(n: int, c: int) -> float:
    """kloosterman_sum(n, c) in its quadratic form:

        -(i sqrt(c) / 2) sum_{k odd in [1, 4c], k^2 = 1 - 8n mod 8c} (-4/k) e^{pi i k/(2c)}

    with (-4/k) = +1 for k = 1 mod 4 and -1 for k = 3 mod 4.  The pairing
    k <-> 4c - k cancels the cosines, so the value is exactly real:
    (sqrt(c) / 2) sum (-4/k) sin(pi k / (2c)).  It is formed as a product
    over the prime powers of 4c, one sine or cosine sum each, so it agrees
    with the sum over the roots k within rounding.
    """
    if c < 1:
        raise ValueError("modulus c must be positive")
    # sum (-4/k) sin(2 pi k / 4c) = Im(i P(c)) = P(c)
    return math.sqrt(c) / 2 * _multiplier_products(1 - 8 * n, (c,), 4)[0]


def partition_multiplier_sum(n: int, c: int) -> float:
    """sum over d mod 24c with d^2 = 1 - 24n (mod 24c) of (12/d) e^{d pi i/(6c)}.

    The pairing d <-> 24c - d cancels the sines, so the value is exactly
    real: sum (12/d) cos(pi d / (6c)).  Every root has d^2 = 1 (mod 24), so
    (12/d) = (-4/d)(d/3) is +1 for d = +-1 (mod 12) and -1 for d = +-5
    (mod 12), never 0.  The kernel of kloosterman_quadratic forms it as a
    product over the prime powers of 12c, with (d/3) on the 3-part, so it
    agrees with the sum over the roots d within rounding.
    """
    if c < 1:
        raise ValueError("modulus c must be positive")
    # the roots mod 24c are x and x + 12c for the roots x mod 12c: 2 Re(i^2 P(c))
    return -2.0 * _multiplier_products(1 - 24 * n, (c,), 12)[0]


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


def bessel_j_half(x: float) -> float:
    """J_{1/2}(x) = sqrt(2/(pi x)) sin(x), x > 0; bounded, so it never overflows."""
    if x <= 0:
        raise NonPositiveArgument("bessel argument must be positive")
    return math.sqrt(2.0 / (math.pi * x)) * math.sin(x)


# -- exact coefficient series -----------------------------------------------


class RademacherPartial(namedtuple("RademacherPartial", "n kind terms cumulative")):
    """Truncated exact series: per-modulus terms (c, term) in ascending c and their compensated sum."""

    __slots__ = ()


def _series(kind: str, n: int, c_max: int) -> tuple[range, list[float]]:
    """(moduli, terms) of kind's series: its moduli c <= c_max, ascending, and the term of each.

    The one place that forms a series term, pref / w(c) * B(root / (k c)) * K(n, c), in one
    pass over the kernel's P(c): K = sqrt(c)/2 P(c) = kloosterman_quadratic(+-n, c), or
    K = -2 P(c) = partition_multiplier_sum(n, c), and B's closed form is evaluated in the pass:

        kind             moduli     K at  pref               w(c)       B        root            k
        k3, noncompact   all, even  n     4 pi / (8n-1)^1/4  c          I_{1/2}  pi sqrt(8n-1)   2
        shadow           all        -n    4 pi               c          J_{1/2}  pi sqrt(8n+1)   2
        partition        all        n     pi / (24n-1)^3/4   sqrt(12c)  I_{3/2}  pi sqrt(24n-1)  6

    An empty sum, K = +-0.0, is its own term and takes no Bessel factor.  A B
    past the range of a double raises BesselOverflow as bessel_i_half and
    bessel_i_three_half do.  The callers check n, c_max and kind.
    """
    partition, shadow, step = kind == "partition", kind == "shadow", 2 if kind == "noncompact" else 1
    moduli = range(step, c_max + 1, step)
    if partition:
        x, a, m = 24.0 * n - 1.0, 1 - 24 * n, 12
        pref, k = math.pi / x ** 0.75, 6.0
    elif shadow:
        x, a, m = 8.0 * n + 1.0, 1 + 8 * n, 4
        pref, k = 4.0 * math.pi, 2.0
    else:
        x, a, m = 8.0 * n - 1.0, 1 - 8 * n, 4
        pref, k = 4.0 * math.pi / x ** 0.25, 2.0
    root = math.pi * math.sqrt(x)
    sqrt, sin, sinh, cosh, pi = math.sqrt, math.sin, math.sinh, math.cosh, math.pi
    terms = []
    try:
        for c, product in zip(moduli, _multiplier_products(a, moduli, m)):
            s = -2.0 * product if partition else sqrt(c) / 2 * product
            if s:
                y = root / (k * c)
                if partition:
                    s = pref / sqrt(12.0 * c) * (sqrt(2.0 / (pi * y)) * (cosh(y) - sinh(y) / y)) * s
                else:
                    s = pref / c * (sqrt(2.0 / (pi * y)) * (sin(y) if shadow else sinh(y))) * s
            terms.append(s)
    except OverflowError:
        raise BesselOverflow(f"{'I_3/2' if partition else 'I_1/2'}({y}) exceeds the range of a double") from None
    return moduli, terms


def exact_coefficient(kind: str, n: int, c_max: int) -> RademacherPartial:
    """Truncated convergent series for the multiplicity coefficient.

    kind "k3" sums over every modulus c <= c_max; kind "noncompact" over even
    moduli only.  Each recorded term already includes the global prefactor
    4 pi / (8n - 1)^{1/4}, so cumulative is the plain (compensated) sum of
    the terms.
    """
    if n < 1 or c_max < 1:
        raise ValueError("n and c_max must be positive")
    if kind not in ("k3", "noncompact"):
        raise ValueError(f"unknown kind {kind!r}")
    moduli, terms = _series(kind, n, c_max)
    return RademacherPartial(n, kind, list(zip(moduli, terms)), math.fsum(terms))


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


def rademacher_partition(n: int, c_max: int = 20) -> float:
    """Truncated exact series for the partition number p(n), summed from _series.

    This classical expansion calibrates the whole machinery: rounding the
    c_max = 20 truncation recovers every p(n) with n < 236.  From there on
    the terms' rounding in doubles, not truncation, can miss p(n) whatever
    c_max is: 0.66 off at n = 236; 146 of the n < 400 miss at 20 and 100 moduli.
    """
    if n < 1 or c_max < 1:
        raise ValueError("n and c_max must be positive")
    return math.fsum(_series("partition", n, c_max)[1])
