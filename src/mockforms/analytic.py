"""Double-precision complex evaluation of the analytic objects.

theta_00, eta and the completion mu_hat are evaluated at the SL2(Z)-reduced
point: _reduce walks tau into |Re tau| <= 1/2, |tau| >= 1, the transformation
laws carry the value there (for mu_hat: Zwegers, Mock Theta Functions,
arXiv:0807.4834, Prop. 1.4, Prop. 1.5 and Thm. 1.11), z goes into the period
parallelogram, and the direct sums run where a few terms converge, so the
cost does not depend on Im tau.  Each tau is walked once (see below).  Jacobi thetas, and the
level-1 massive character q^{h-3/8} theta_10(z)^2 / eta^3 built on them,
are theta_00 at shifted arguments; eta follows its own law along the word
(e^{i pi n/12} per translation by n, 1/sqrt(-i s) per inversion s -> -1/s)
to the pentagonal series at the reduced point.  Large or small factors
travel as (log, value) pairs, whose rounding grows as Im tau falls
(theta_00 is good to ~4e-14 relative at Im tau = 1e-3, ~2e-11 at 1e-5); a
value past a double raises ValueOverflow.  Only the massless sum forms'
q-series and R are still summed at tau.  The half-integer Bessel closed
forms live in rademacher, next to the series driver that uses them.

One record per tau: the first call at tau builds its record (_record),
which holds the word of _reduce and what depends on tau alone: mu_hat's
multiplier along the word, eta, the theta logs along the word, and the
term counts at the reduced point tau', all built with the record.  Every
later call at tau reads it instead of walking again.  A record also keeps
the evaluations made at tau in two tables of its own: theta_label(z) as a
(log, value) pair by label and exact z, and R(tau') and mu_hat(z'; tau')
by exact z'.  The module keeps the _RECORDS = 4 most recently used records
and at most _VALUES = 16 entries per table, in memory only.  The table is
empty at import, its keys tell -0.0 from 0.0, and _kept, the one function
that reads or writes a table, takes the lock.  A kept value is exactly
what the evaluation computes, so no result depends on what the table
holds; a call that raises may leave entries behind, each of them exactly
what the evaluation computes.

Every kernel forms each term from the one before it by a running ratio,
one complex multiply instead of one exp: the theta_00 sum, the Lerch sum,
R's phase and the massless sum forms' q-series.  The Lerch sum
mu = q^{-1/8} A / S sums the Appell series A and S = sum_n t_n, which is
theta_11(z) up to the factor i q^{1/8} y^{1/2}, in one loop over one chain
of t_n, so it needs no theta_11 of its own.

Truncation policy: every kernel sums a term count taken from a bound on
its tail, which puts the whole tail below TAIL_EPS = 1e-18 of the sum's
scale; the docstrings derive each bound.  theta_00, the Lerch sum and R
count from Im tau alone (_theta_count, _lerch_count, _correction_count),
the massless sum forms per direction from Im tau and Im z
(_massless_count, in units of their largest Gaussian factor), so results
are deterministic and no term is compared with the sum it joins.  A count
past MAX_TERMS raises QuadratureNonConvergence, never a truncated sum, and
a massless sum form whose terms pass a double raises ValueOverflow.  A z
that is not finite raises ValueError, like a tau off the upper half-plane.
Every pole guard is relative and raises PoleAtArgument: a theta_11 (the
massless sum forms' denominator theta_11(2z) too) below 1e-10 of its
largest term at the reduced point, or a denominator within 1e-10 of zero
relative to its larger part.

Branch convention: every square root (sqrt(c tau + d), sqrt(i/tau), ...) is
the principal branch, argument in (-pi, pi].
"""

from __future__ import annotations

import _thread
import cmath
import math
from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction

from .errors import (
    PoleAtArgument,
    QuadratureNonConvergence,
    UnknownName,
    UnsupportedSpec,
    ValueOverflow,
)

__all__ = [
    "CharSpec",
    "jacobi_theta",
    "dedekind_eta",
    "lerch_sum",
    "nonholomorphic_correction",
    "lerch_completion",
    "superconformal_character",
    "elliptic_genus",
    "lerch_difference",
    "SECTORS",
]

TAIL_EPS = 1e-18
POLE_EPS = 1e-10
MAX_TERMS = 100_000
_TAIL_LOG = -math.log(TAIL_EPS)  # e^{-x} < TAIL_EPS past x = _TAIL_LOG

SECTORS = ("R", "Rtilde", "NS", "NStilde")


def _tau(value) -> complex:
    t = complex(value)
    if not (t.imag > 0 and cmath.isfinite(t)):
        raise ValueError(f"tau = {t} is not in the upper half-plane")
    return t


def _z(value, name: str = "z") -> complex:
    w = complex(value)
    if not cmath.isfinite(w):
        raise ValueError(f"{name} = {w} is not finite")
    return w


# -- reduction to the fundamental domain ------------------------------------


def _reduce(t: complex) -> list[tuple[int, complex]]:
    """The SL2(Z) word that carries tau into |Re tau| <= 1/2, |tau| >= 1.

    Each step (n, s) translates the current point by -n to s; every step but
    the last then inverts, tau -> -1/s.  The last s is the reduced point,
    where Im s >= sqrt(3)/2.  The 1e-9 slack on |tau| >= 1 stops the walk
    cycling at the corners.

    After an inversion the next s is -1/s - n = -(1 + n s)/s, with
    1 + n Re s formed in exact integers and rounded once: near a cusp
    -1/s - n cancels to far below -1/s, and a rounded -1/s would leave s
    with an absolute error of eps |1/s|, which every transformation law
    along the word would carry.
    """
    n = math.floor(t.real + 0.5)
    t -= n  # exact: t.real and n are within 1/2 of each other
    steps = [(n, t)]
    while abs(t) < 1.0 - 1e-9:
        n = math.floor((-1.0 / t).real + 0.5)
        num, den = t.real.as_integer_ratio()
        t = -complex((den + n * num) / den, n * t.imag) / t
        steps.append((n, t))
    return steps


def _lattice_point(w: complex, t: complex) -> tuple[complex, int]:
    """(w0, b) with w0 = w - a - b tau for integers a, b, |Im w0| <= Im tau / 2 and |Re w0| <= 1/2.

    For |b| > 1 (Im w well above Im tau) Re w0 is formed in exact rationals,
    so a large b costs no digits; the float branch keeps the common case cheap.
    A b past a double raises ValueOverflow.
    """
    try:
        b = round(w.imag / t.imag)
    except OverflowError:
        raise ValueOverflow(f"the lattice index Im w / Im tau is past a double at w = {w}, tau = {t}") from None
    if abs(b) <= 1:
        w -= b * t
        return w - round(w.real), b
    re = Fraction(w.real) - b * Fraction(t.real)
    return complex(float(re - round(re)), w.imag - b * t.imag), b


def _theta_lattice(w: complex, t: complex) -> tuple[complex, complex]:
    """(w0, log) with theta_00(w; tau) = exp(log) theta_00(w0; tau), w0 from _lattice_point.

    theta_00(w0 + a + b tau) = e^{-i pi b (b tau + 2 w0)} theta_00(w0).  For
    |b| > 1 the phase is taken mod 2 pi in exact rationals: with the exact
    Re w0 = Re w - a - b Re tau, b (b Re tau + 2 Re w0) = b (2 Re w - b Re tau) - 2ab,
    which is b (2 Re w - b Re tau) mod 2, so the phase needs neither a nor w0.
    """
    w0, b = _lattice_point(w, t)
    if abs(b) <= 1:
        return w0, -1j * math.pi * b * (b * t + 2.0 * w0)
    phase = b * (2 * Fraction(w.real) - b * Fraction(t.real)) % 2
    return w0, math.pi * (b * (b * t.imag + 2.0 * w0.imag) - 1j * float(phase))


def _scaled(log: complex, value: complex) -> complex:
    """exp(log) * value, raising ValueOverflow instead of overflowing or returning a non-finite value."""
    if value == 0:
        return 0j
    exponent = log + cmath.log(value)
    try:
        result = cmath.exp(exponent)  # raises only for a finite exponent
    except OverflowError:
        result = math.inf
    if not cmath.isfinite(result):
        raise ValueOverflow(f"|value| = exp({exponent.real:.6g}) exceeds the range of a double")
    return result


def _budget(floor: int, needed: float, what: str, v: float) -> int:
    """max(floor, ceil(needed)) terms, raising QuadratureNonConvergence past MAX_TERMS."""
    budget = max(floor, math.ceil(needed))
    if budget > MAX_TERMS:
        raise QuadratureNonConvergence(f"{what} needs {budget} terms at Im tau = {v:.3g}")
    return budget


# -- one record per tau ------------------------------------------------------

# Records kept: the tau, tau + 1 and -1/tau of one modular check, and one more.
_RECORDS = 4
# Entries kept per table of a record: a decomposition check at one (z, tau) needs 10.
_VALUES = 16

_records: dict = {}  # _exact(tau) -> _Record, least recently used first
_lock = _thread.RLock()  # held by _kept; reentrant, because a build may call _kept again


def _exact(w: complex):
    """A key equal only for bit-identical finite w: == alone does not tell -0.0 from 0.0."""
    if w.real and w.imag:
        return w
    return w, math.copysign(1.0, w.real), math.copysign(1.0, w.imag)


class _Record(namedtuple("_Record", "tau steps factor lerch_count thetas reduced theta_logs theta_count eta")):
    """What the evaluations at tau need that depends on tau alone, built once by _record.

    steps is _reduce(tau), factor mu_hat's multiplier along the word
    (_walk_factor) and lerch_count _lerch_count at the reduced point tau'.
    The theta parts are built with the record: theta_logs holds
    0.5 log(i/s) for each inverted step s (theta's law, _theta_parts),
    theta_count is _theta_count at tau' and eta is eta(tau) as a
    (log, value) pair.

    Two tables of the record's own keep the _VALUES most recently used
    evaluations each: thetas holds theta_label(z; tau) as (log, value)
    pairs by label and exact z (_theta), reduced holds R(tau') and
    mu_hat(z'; tau') by exact z' (_mu_hat).
    """

    __slots__ = ()


def _kept(table: dict, key, bound: int, build, *args):
    """table[key], built by build(*args) on a miss; table keeps the bound most recently used keys, under _lock."""
    with _lock:
        value = table.pop(key, None)
        if value is None:
            value = build(*args)
            if len(table) >= bound:
                del table[next(iter(table))]
        table[key] = value
        return value


def _build_record(t: complex) -> _Record:
    steps = _reduce(t)
    t_red = steps[-1][1]
    return _Record(t, steps, _walk_factor(steps), _lerch_count(t_red.imag), {}, {},
                   [0.5 * cmath.log(1j / s) for _, s in steps[:-1]], _theta_count(t_red.imag), _eta_parts(steps))


def _record(t: complex) -> _Record:
    """The record of tau, built on first use."""
    return _kept(_records, _exact(t), _RECORDS, _build_record, t)


# -- theta functions -----------------------------------------------------


def _theta_count(v: float) -> int:
    """N such that the theta_00 sum over |n| < N leaves a tail below TAIL_EPS.

    For |Im z| <= Im tau / 2 = v / 2, term n of theta_00(z; tau) has modulus
    e^{-pi v n^2 - 2 pi n Im z} <= e^{-pi v (n^2 - |n|)}.  Past N the bound
    falls by a factor e^{-2 pi v n} <= e^{-2 pi v} per step, so both tails
    together are below 2 e^{-pi v (N^2 - N)} / (1 - e^{-2 pi v}), which is
    at most TAIL_EPS once pi v (N^2 - N) >= _TAIL_LOG + log(2 / (1 - e^{-2 pi v})).
    At the reduced point (v >= sqrt(3)/2) that is N = 5.
    """
    need = (_TAIL_LOG + math.log(-2.0 / math.expm1(-2.0 * math.pi * v))) / (math.pi * v)
    return math.ceil(0.5 + math.sqrt(0.25 + need))


def _theta00_sum(z: complex, t: complex, count: int) -> complex:
    """sum_{|n| < N} exp(i pi (tau n^2 + 2 n z)) for |Im z| <= Im tau / 2, N = count = _theta_count(Im tau).

    No term is larger than the n = 0 term, 1, so the sum is in units of its
    largest term.  Each term is the one before it times a running ratio:
    with q = e^{2 pi i tau}, term n + 1 is term n times
    e^{i pi (tau + 2z)} q^n (and with -z for -n), and the ratio itself
    gains a factor q per step.  Every factor is at most 1 in modulus, so a
    product can underflow to 0, where the true term is negligible, but never
    overflow.
    """
    q = cmath.exp(2j * math.pi * t)
    a = cmath.exp(1j * math.pi * (t + 2.0 * z))
    b = cmath.exp(1j * math.pi * (t - 2.0 * z))
    ratio_a, ratio_b = a * q, b * q
    total = 1.0 + 0j
    for _ in range(count - 1):
        total += a + b
        a *= ratio_a
        b *= ratio_b
        ratio_a *= q
        ratio_b *= q
    return total


def _theta00_argument(label: str, z: complex, t: complex) -> tuple[complex, complex]:
    """(log, w) with theta_label(z; tau) = exp(log) theta_00(w; tau).

    theta_01(z) = theta_00(z + 1/2), theta_10(z) = e^{i pi (tau/4 + z)} theta_00(z + tau/2)
    and theta_11(z) = e^{i pi (tau/4 + z + 1/2)} theta_00(z + 1/2 + tau/2).
    """
    if label not in ("11", "10", "00", "01"):
        raise UnknownName(f"no theta function labelled {label!r}")
    if label in ("11", "01"):
        z = z + 0.5
    if label in ("11", "10"):
        return 1j * math.pi * (0.25 * t + z), z + 0.5 * t
    return 0j, z


def _theta_direct(z: complex, t: complex, count: int) -> tuple[complex, complex]:
    """(log, value) with theta_00(z; tau) = exp(log) * value, summed at tau itself; count = _theta_count(Im tau).

    z is first moved into the period parallelogram by
    theta_00(z0 + a + b tau) = e^{-i pi b (b tau + 2 z0)} theta_00(z0), which
    only re-indexes the series, so value is the sum in units of its largest
    term.
    """
    w, log = _theta_lattice(z, t)
    return log, _theta00_sum(w, t, count)


def _theta_parts(label: str, z: complex, rec: _Record) -> tuple[complex, complex]:
    """(log, value) with theta_label(z; tau) = exp(log) * value, summed at the reduced tau.

    rec is the record of tau.  Along its word: theta_00(z; tau + n) = theta_00(z + n/2; tau),
    and, with z first reduced mod the lattice of tau,
    theta_00(z; tau) = sqrt(i/tau) e^{-i pi z^2/tau} theta_00(z/tau; -1/tau).
    """
    log, w = _theta00_argument(label, z, rec.tau)
    steps = rec.steps
    for (n, s), half_log in zip(steps, rec.theta_logs):  # the inverted steps
        w, more = _theta_lattice(w + 0.5 * (n % 2), s)
        log += more + half_log - 1j * math.pi * w * w / s
        w = w / s
    n, t_red = steps[-1]
    more, value = _theta_direct(w + 0.5 * (n % 2), t_red, rec.theta_count)
    return log + more, value


def _theta(rec: _Record, label: str, z: complex) -> tuple[complex, complex]:
    """_theta_parts(label, z, rec), kept in the record by label and exact z."""
    return _kept(rec.thetas, (label, _exact(z)), _VALUES, _theta_parts, label, z, rec)


def jacobi_theta(label: str, z, tau) -> complex:
    """Jacobi theta function theta_label(z; tau), label in {"11","10","00","01"}.

    Summation index k runs over half-integers for "11"/"10" and integers for
    "00"/"01"; labels "11" and "01" shift z by 1/2.  Each term is
    exp(i pi (tau k^2 + 2 k z_eff)).  Evaluated as theta_00 at the reduced
    point (see _theta_parts); raises ValueOverflow when |theta| exceeds the
    range of a double.
    """
    t = _tau(tau)
    z = _z(z)
    return _scaled(*_theta(_record(t), label, z))


def _eta_parts(steps: list) -> tuple[complex, complex]:
    """(log, value) of eta(tau) = exp(log) * value, with steps = _reduce(tau).

    Along the word: eta(tau + n) = e^{i pi n/12} eta(tau) and
    eta(-1/s) = sqrt(-i s) eta(s).  At the reduced point tau',
    eta = q'^{1/24} sum_k (-1)^k q'^{k(3k-1)/2} (Euler's pentagonal series)
    = q'^{1/24} (1 - q' - q'^2 + q'^5 + q'^7 - ...); |q'| <= e^{-pi sqrt 3},
    so the next term, q'^12, is below e^{-12 pi sqrt 3} ~ 4e-29.
    """
    log, shift = 0j, 0
    for n, s in steps[:-1]:
        shift += n
        log -= 0.5 * cmath.log(-1j * s)
    n, t_red = steps[-1]
    q = cmath.exp(2j * math.pi * t_red)
    q2 = q * q
    q5 = q2 * q2 * q
    value = 1.0 - q - q2 + q5 + q5 * q2
    # the translations' phases as one integer mod 24, in [-12, 12), so the
    # log's imaginary part stays small and rounds once
    shift = (shift + n + 12) % 24 - 12
    return log + 1j * math.pi * (shift + t_red) / 12.0, value


def dedekind_eta(tau) -> complex:
    """eta(tau) = q^{1/24} prod_{n>=1} (1 - q^n), by its modular law from the reduced point."""
    return _scaled(*_record(_tau(tau)).eta)


def _eta_cubed(t: complex) -> complex:
    log, value = _record(t).eta
    return _scaled(3.0 * log, value * value * value)


def _eta_cubed_terms(limit: int) -> Iterator[tuple[int, int]]:
    """Terms (m(m+1)/2, (-1)^m (2m+1)) below q^limit of Jacobi's eta^3 = q^{1/8} sum_m (-1)^m (2m+1) q^{m(m+1)/2}."""
    m = 0
    while m * (m + 1) < 2 * limit:
        yield m * (m + 1) // 2, (2 * m + 1) * (-1) ** m
        m += 1


# -- the non-holomorphic correction -----------------------------------------


def _correction_count(v: float) -> int:
    """The number of terms R is summed over at Im tau = v.

    With scale = sqrt(2 pi v), term m has modulus b_m = 2 erfc(x) e^{x^2/2}
    at x = x_m = (m + 1/2) scale, and erfc(x) <= e^{-x^2} / (x sqrt(pi))
    gives b_m <= 2 e^{-x^2/2} / sqrt(pi) for x >= 1.  From one bound to the
    next the factor is at most e^{-scale^2 (m + 1)} <= e^{-scale}, so the
    terms past m = M add up to at most b_M / (1 - e^{-scale}).  That is
    below TAIL_EPS once x_M reaches x* with
    x*^2 / 2 = _TAIL_LOG + log(2 / (sqrt(pi) (1 - e^{-scale}))), x* ~ 9.1,
    i.e. for M >= x* / scale - 1/2.  At least the first term is summed: it
    dominates where R is tiny (large Im tau).  At the reduced point
    (v >= sqrt(3)/2) the count is 4; it grows like x* / scale, and past
    MAX_TERMS (v below ~1.6e-9) raises QuadratureNonConvergence.
    """
    scale = math.sqrt(2.0 * math.pi * v)
    cut = math.sqrt(2.0 * (_TAIL_LOG + math.log(-2.0 / (math.sqrt(math.pi) * math.expm1(-scale)))))
    return _budget(1, cut / scale - 0.5, "non-holomorphic correction sum", v)


def nonholomorphic_correction(tau) -> complex:
    """The non-holomorphic partner R of the Lerch sum.

    Its defining series over half-integers, after pairing n with -n-1, reads

        2 sum_{m>=0} (-1)^m erfc((m+1/2) sqrt(2 pi v)) e^{-i pi tau (m+1/2)^2},

    real on the imaginary axis.  It is summed over _correction_count(v)
    terms, and the phase of term m is the one before it times
    e^{-2 pi i tau m}.  The tests check R against the period integral
    (1/sqrt(i)) int_{-conj(tau)}^{i inf} eta(x)^3 / sqrt(x + tau) dx
    (tests/oracles.py, correction_period_integral).
    """
    t = _tau(tau)
    scale = math.sqrt(2.0 * math.pi * t.imag)
    count = _correction_count(t.imag)
    amp = math.erfc(0.5 * scale)
    if not amp:
        # an erfc that underflowed to 0 leaves every term below e^{-351}
        return 0j
    phase = cmath.exp(-0.25j * math.pi * t)
    total = 2.0 * amp * phase
    if count > 1:  # then Im tau < 6, and no power of the ratio overflows
        ratio = step = cmath.exp(-2j * math.pi * t)
        sign = 2.0
        for m in range(1, count):
            phase *= ratio
            ratio *= step
            sign = -sign
            total += sign * math.erfc((m + 0.5) * scale) * phase
    return total


# -- Lerch sum and its completion -------------------------------------------


def _lerch_count(v: float) -> int:
    """K such that K steps of each chain of _lerch_direct leave tails below TAIL_EPS.

    With 0 <= Im z <= v / 2 = Im tau / 2, step k of the n >= 0 chain has
    |u| = |t_k| <= e^{-pi v k (k+1)} and, past k = 0, a denominator
    |1 - q^k y| >= 1 - e^{-2 pi v}; step k of the n < 0 chain has
    |u| = |t_{-k-2}| <= e^{-pi v k (k+2)} and |1 - q^{k+1} / y| >= 1 - e^{-pi v}.
    So no denominator vanishes past n = 0, every term past K - 1 is below
    e^{-pi v k (k+1)} / (1 - e^{-pi v}), the bounds fall by at least
    e^{-2 pi v} per step, and the four tails (A and S, two chains) stay
    below TAIL_EPS once pi v K (K+1) >= _TAIL_LOG + log(2 / ((1 - e^{-pi v}) (1 - e^{-2 pi v}))).
    At the reduced point (v >= sqrt(3)/2) that is K = 4.
    """
    pv = math.pi * v
    need = (_TAIL_LOG + math.log(2.0 / (math.expm1(-pv) * math.expm1(-2.0 * pv)))) / pv
    return math.ceil(math.sqrt(0.25 + need) - 0.5)


def _lerch_direct(z: complex, t: complex, count: int) -> tuple[complex, complex]:
    """(log, value) with mu(z; tau) = exp(log) * value, summed at tau itself.

    With q = e^{2 pi i tau}, y = e^{2 pi i z} and t_n = (-1)^n q^{n(n+1)/2} y^n,
    theta_11(z) = i q^{1/8} y^{1/2} S with S = sum_n t_n, so
    mu(z; tau) = q^{-1/8} A / S with A = sum_n t_n / (1 - q^n y).  One loop
    per direction sums both over one chain of terms.  mu is even and
    elliptic in z, so z is first moved into the period parallelogram with
    0 <= Im z <= Im tau / 2.  There no Appell numerator exceeds t_0 = 1 and
    no t_n exceeds t_{-1} = -1/y in modulus, so A is summed in units of 1
    and S in units of 1/y.  The chain u runs over the Appell numerators,
    with a ratio r = q^n y or q^{-n} / y (|r| <= 1):

        n >= 0:  u = t_n,      term u / (1 - r),  r = q^n y;
        n < 0:   u = t_{n-1},  term u / (1 - r),  r = q^{-n} / y,

    since t_n / (1 - q^n y) = t_{n-1} / (1 - q^{-n} / y).  The chains start
    at t_0 = 1 and t_{-2} = q/y^2, and each step multiplies u by -r after r
    gains a factor q; each runs count = _lerch_count(Im tau) steps.  Together they
    run over every t_n but t_{-1}, so S = -1/y + C with C the sum of the
    chain, and mu = q^{-1/8} y A / (y C - 1): y stays in the log, so a y
    that underflows costs neither A nor the result's scale.  The starting
    values y, q/y and q/y^2 are one exp each.  Raises PoleAtArgument where
    the one denominator that can vanish, 1 - y at n = 0, is within POLE_EPS
    of zero, or |S| is below POLE_EPS of its largest term.
    """
    z = _lattice_point(z, t)[0]
    if z.imag < 0:
        z = -z
    q = cmath.exp(2j * math.pi * t)
    y = cmath.exp(2j * math.pi * z)
    if abs(1.0 - y) < POLE_EPS:
        raise PoleAtArgument(f"Lerch denominator vanishes at n = 0, z = {z}")
    steps = range(count)
    appell, chain = 0j, 0j
    for u, r in ((1.0 + 0j, y), (cmath.exp(2j * math.pi * (t - 2.0 * z)), cmath.exp(2j * math.pi * (t - z)))):
        for _ in steps:
            appell += u / (1.0 - r)
            chain += u
            r *= q
            u *= -r
    theta = y * chain - 1.0  # y S
    if abs(theta) < POLE_EPS:
        raise PoleAtArgument(f"theta_11 vanishes at z = {z}")
    return 2j * math.pi * (z - 0.125 * t), appell / theta


_EIGHTHS = tuple(cmath.exp(-0.25j * math.pi * k) for k in range(8))  # e^{-i pi k/4}


def _walk_factor(steps: list) -> complex:
    """The factor with mu_hat(z; tau) = factor * mu_hat(z'; tau') along steps = _reduce(tau).

    mu_hat(z; tau + n) = e^{-i pi n/4} mu_hat(z; tau), mu_hat is invariant
    under z -> z + 1 and z -> z + tau, and
    mu_hat(z; tau) = -sqrt(i/tau) mu_hat(z/tau; -1/tau)
    (Zwegers, Mock Theta Functions, Thm. 1.11, at u = v); z' is _walk(z, steps).
    """
    factor = 1.0 + 0j
    for n, s in steps[:-1]:
        factor *= -_EIGHTHS[n % 8] * cmath.sqrt(1j / s)
    return factor * _EIGHTHS[steps[-1][0] % 8]


def _walk(z: complex, steps: list) -> complex:
    """z' of _walk_factor: z reduced mod the lattice of each inverted step s, then divided by s."""
    for _, s in steps[:-1]:
        z = _lattice_point(z, s)[0] / s
    return z


def _correction(rec: _Record) -> complex:
    """R(tau') at the reduced point of rec, kept in the record."""
    return _kept(rec.reduced, "R", _VALUES, nonholomorphic_correction, rec.steps[-1][1])


def _completion_reduced(z: complex, rec: _Record) -> complex:
    """mu_hat(z; tau') = mu(z; tau') - R(tau')/2 by the direct sums at the reduced point tau' of rec."""
    return _scaled(*_lerch_direct(z, rec.steps[-1][1], rec.lerch_count)) - 0.5 * _correction(rec)


def _mu_hat(rec: _Record, z: complex) -> complex:
    """mu_hat(z'; tau') for z' = _walk(z, rec.steps), by the direct sums, kept in the record by exact z'."""
    z = _walk(z, rec.steps)
    return _kept(rec.reduced, _exact(z), _VALUES, _completion_reduced, z, rec)


def _lerch(z: complex, rec: _Record) -> tuple[complex, complex]:
    """(log, value) with mu(z; tau) = exp(log) * value, rec the record of tau, log 0j after a walk: see lerch_sum."""
    t = rec.tau
    if rec.steps == [(0, t)]:  # tau is reduced already
        return _lerch_direct(z, t, rec.lerch_count)
    return 0j, rec.factor * _mu_hat(rec, z) + 0.5 * nonholomorphic_correction(t)


def lerch_sum(z, tau) -> complex:
    """The Appell/Lerch sum

        mu(z; tau) = (i e^{pi i z} / theta_11(z; tau))
                     * sum_n (-1)^n q^{n(n+1)/2} e^{2 pi i n z} / (1 - q^n e^{2 pi i z}).

    Even and elliptic in z.  Summed directly when tau is in the fundamental
    domain, else computed as lerch_completion + R(tau)/2.  Raises
    PoleAtArgument when z sits on the period lattice.
    """
    t = _tau(tau)
    log, value = _lerch(_z(z), _record(t))
    return _scaled(log, value) if log else value  # exp(log(v)) would round a walked value v


def lerch_completion(z, tau) -> complex:
    """mu(z; tau) - R(tau)/2, the modular completion of the Lerch sum.

    Evaluated by the direct sums at the reduced point (see _walk_factor).
    """
    z = _z(z)
    rec = _record(_tau(tau))
    return rec.factor * _mu_hat(rec, z)


# -- superconformal characters -------------------------------------------------


# z-offsets (const, tau_coeff) of the sectors under spectral flow, NS
# unshifted: NS~ adds 1/2, R adds tau/2, R~ adds (1 + tau)/2
_FLOW = {"NS": (0.0, 0.0), "NStilde": (0.5, 0.0), "R": (0.0, 0.5), "Rtilde": (0.5, 0.5)}


class CharSpec(namedtuple("CharSpec", "kind k h ell sector")):
    """Parameters of a level-1 N=4 character: kind, level, weight, isospin, sector.

    The K3 elliptic genus decomposes into level-1 characters only, so k must
    be 1.  Massless (BPS) then needs h = 1/4 and ell in {0, 1/2}; massive
    (non-BPS) needs h > 1/4 and ell = 1/2.  Violations raise UnsupportedSpec.
    The constructor stores h and ell as Fractions.
    """

    __slots__ = ()

    def __new__(cls, kind: str, k: int, h: Fraction, ell: Fraction, sector: str = "Rtilde"):
        if type(h) is not Fraction:
            h = Fraction(h)
        if type(ell) is not Fraction:
            ell = Fraction(ell)
        if kind not in ("massless_sum_form", "massless_mu_form", "massive"):
            raise UnsupportedSpec(f"unknown character kind {kind!r}")
        if sector not in SECTORS:
            raise UnsupportedSpec(f"unknown sector {sector!r}")
        if k != 1:
            raise UnsupportedSpec(f"only level k = 1 is supported, not {k}")
        # Fractions are in lowest terms with a positive denominator, so each
        # comparison with 1/4, 1/2 or 0 is one of numerator and denominator
        half = ell.numerator == 1 and ell.denominator == 2
        if kind == "massive":
            if not 4 * h.numerator > h.denominator:
                raise UnsupportedSpec("massive representations need h > 1/4")
            if not half:
                raise UnsupportedSpec("massive isospin must be 1/2")
        else:
            if not (h.numerator == 1 and h.denominator == 4):
                raise UnsupportedSpec("massless representations need h = 1/4")
            if not (half or ell.numerator == 0):
                raise UnsupportedSpec("massless isospin must be 0 or 1/2")
        return super().__new__(cls, kind, k, h, ell, sector)


def _theta_sq_over_eta3(label: str, z: complex, rec: _Record) -> tuple[complex, complex]:
    """(log, value) with theta_label(z)^2 / eta^3 = exp(log) * value, rec the record of tau."""
    th_log, th = _theta(rec, label, z)
    eta_log, eta = rec.eta
    return 2.0 * th_log - 3.0 * eta_log, th * th / (eta * eta * eta)


def _massless_count(v: float, s: float, half: bool) -> int:
    """N such that a massless sum form's terms k = 1, ..., N in one direction leave a tail below TAIL_EPS.

    v = Im tau; s is Im z for the compact form's m = k and -Im z for its
    m = -k; the half form's two eps chains have s = +-Im w.  With
    x_k = v k + s, term k's Gaussian factor has modulus
    e^{(4 pi / v)(s^2 - x_k^2) + c x_k}: c = 0 for the compact form
    (q^{2k^2} y^{4k}), and c = 2 pi bounds the half form's e^{2 pi x_k}
    (m = -k) and e^{-6 pi x_k} (m = k) once x_k >= 0.  The denominators'
    variable part has |u_k| = e^{-2 pi x_k} <= r = e^{-2 pi x0} once
    x_k >= x0 > 0, so their factor is at most D = (1 + r)/(1 - r) (compact)
    or 1/(1 - r)^2 (half), and the Gaussian bound falls by
    e^{-4 pi (2 x_k + v) + c v} <= rho = e^{-(4 pi - c) v} per step.  The
    terms past N add up to at most D/(1 - rho) times the bound at N + 1.

    The scale is the sum's largest Gaussian factor at an integer m, not the
    peak e^{4 pi s^2 / v} over real m, which can pass every term by up to
    e^{pi v} (at Im z = +-Im tau / 2 the term next to the centre is as
    large as the centre term).  Some x_k lies within v/2 of the peak (of
    x = 0 for the compact form, of x = v/4 once c = 2 pi), so that factor
    is at least e^{4 pi s^2 / v - pi v}, and the tail is below TAIL_EPS of
    it once x = x_{N+1} has (4 pi / v) x^2 - c x >= L = _TAIL_LOG + pi v
    + log(D / (1 - rho)), i.e. x >= x* = (c v + sqrt(c^2 v^2 + 16 pi L v)) / (8 pi),
    which is at least x0 = sqrt(_TAIL_LOG v / (4 pi)).  So
    N = ceil((x* - s) / v) - 1, at least 0: 2 terms at Im tau = sqrt(3)/2
    and s = 0, 61 (62 for the half form) at Im tau = 1e-3, and about
    |s| / v more where s < 0.  Past MAX_TERMS (Im tau below ~5.5e-10 at
    s = 0) it raises QuadratureNonConvergence.  Terms past a double are
    left to the caller, which raises ValueOverflow.
    """
    c = 2.0 * math.pi if half else 0.0
    gap = -math.expm1(-2.0 * math.pi * math.sqrt(_TAIL_LOG * v / (4.0 * math.pi)))  # 1 - r
    log_den = -2.0 * math.log(gap) if half else math.log((2.0 - gap) / gap)
    loss = _TAIL_LOG + math.pi * v + log_den - math.log(-math.expm1(-(4.0 * math.pi - c) * v))
    x = (c * v + math.sqrt(c * c * v * v + 16.0 * math.pi * loss * v)) / (8.0 * math.pi)
    return _budget(0, (x - s) / v - 1.0, "massless character sum", v)


def _massless_compact_sum(z: complex, t: complex) -> complex:
    """sum_m q^{2m^2} y^{4m} (1 + y q^m)/(1 - y q^m), y = e^{2 pi i z}: the isospin-0 sum form's q-series.

    The m-th term's Gaussian factor q^{2m^2} y^{4m} gains q^2 y^4 q^{4m}
    from m to m + 1 (y^{-4} for the step from -m to -m - 1).  The terms
    m < 0 are written with u = y^{-1} q^{-m}, as -(1 + u)/(1 - u), so that
    u shrinks along the chain.  The centre term comes first, then
    m = 1, 2, ... and m = -1, -2, ..., _massless_count(Im tau, +-Im z) of
    each.  Each chain's pole guard runs before its sum and stops at the
    first |u| < 1 - 2 POLE_EPS: u shrinks by |q| < 1 per term, so from there
    on |1 - u| > 2 POLE_EPS and no later denominator can vanish.
    """
    i_pi = 1j * math.pi
    q = cmath.exp(2.0 * i_pi * t)
    q4 = cmath.exp(8.0 * i_pi * t)
    try:
        y = cmath.exp(2.0 * i_pi * z)
    except OverflowError:  # Im z < -113, where (1 + y)/(1 - y) is -1 to a double's precision
        total = complex(-1.0)
    else:
        den = 1.0 - y
        if abs(den) < POLE_EPS * max(1.0, abs(y)):
            raise PoleAtArgument(f"massless denominator vanishes at m = 0, z = {z}")
        total = (1.0 + y) / den
    for sign in (1.0, -1.0):
        z_dir = sign * z
        g = cmath.exp(i_pi * (4.0 * t + 8.0 * z_dir))
        ratio = cmath.exp(i_pi * (12.0 * t + 8.0 * z_dir))
        u = cmath.exp(i_pi * (2.0 * t + 2.0 * z_dir))
        count = _massless_count(t.imag, z_dir.imag, False)
        v = u
        for _ in range(count):
            if abs(v) < 1.0 - 2.0 * POLE_EPS:
                break
            if abs(1.0 - v) < POLE_EPS * max(1.0, abs(v)):
                raise PoleAtArgument(f"massless denominator vanishes at z = {z}")
            v *= q
        for _ in range(count):
            total += sign * g * (1.0 + u) / (1.0 - u)
            g *= ratio
            ratio *= q4
            u *= q
    return total


def _massless_half_sum(w: complex, t: complex) -> complex:
    """The isospin-1/2 sum form's q-series at argument w:

        sum_{eps=+-1} sum_m eps e^{4 pi i eps w (2m + 1/2)} q^{2m^2 + m} / (1 + e^{-2 pi i eps w} q^{-m})^2.

    With Y = e^{2 pi i eps w}, term m = -k <= 0 is
    eps Y^{1-4k} q^{2k^2-k} / (1 + Y^{-1} q^k)^2, and term m = k > 0 is
    rewritten to keep q^{-k} out of the denominator:
    eps Y^{4k+3} q^{2k^2+3k} / (1 + Y q^k)^2.  Along k both numerators gain
    a ratio that gains q^4 per step, and the denominators' variable parts a
    factor q.  The centre terms come first, then k = 1, 2, ... for m = k and
    for m = -k, each the sum of its two eps terms;
    _massless_count(Im tau, -|Im w|) of each, the larger of the two chains'
    counts.  The pole guard runs on each of the four chains of u before the
    sum, up to its first |u| < 1 - 2 POLE_EPS, past which |1 + u| > 2 POLE_EPS
    (see _massless_compact_sum).
    """
    i_pi = 1j * math.pi
    q = cmath.exp(2.0 * i_pi * t)
    q4 = cmath.exp(8.0 * i_pi * t)
    total = 0j
    starts = []
    for eps in (1.0, -1.0):
        den = 1.0 + cmath.exp(-2.0 * i_pi * eps * w)
        if abs(den) < POLE_EPS:
            raise PoleAtArgument(f"massless denominator vanishes at m = 0, w = {w}")
        total += eps * cmath.exp(2.0 * i_pi * eps * w) / (den * den)
        x = 2.0 * eps * w  # Y = e^{i pi x}
        starts.append(((eps * cmath.exp(i_pi * (10.0 * t + 7.0 * x)), cmath.exp(i_pi * (18.0 * t + 4.0 * x)),
                        cmath.exp(i_pi * (2.0 * t + x))),
                       (eps * cmath.exp(i_pi * (2.0 * t - 3.0 * x)), cmath.exp(i_pi * (10.0 * t - 4.0 * x)),
                        cmath.exp(i_pi * (2.0 * t - x)))))
    count = _massless_count(t.imag, -abs(w.imag), True)
    for _, _, u in (*starts[0], *starts[1]):
        for _ in range(count):
            if abs(u) < 1.0 - 2.0 * POLE_EPS:
                break
            if abs(1.0 + u) < POLE_EPS:
                raise PoleAtArgument(f"massless denominator vanishes at w = {w}")
            u *= q
    for (num_a, ratio_a, u_a), (num_b, ratio_b, u_b) in zip(*starts):  # m = k, then m = -k
        for _ in range(count):
            den_a, den_b = 1.0 + u_a, 1.0 + u_b
            total += num_a / (den_a * den_a) + num_b / (den_b * den_b)
            num_a, ratio_a, u_a = num_a * ratio_a, ratio_a * q4, u_a * q
            num_b, ratio_b, u_b = num_b * ratio_b, ratio_b * q4, u_b * q
    return total


def superconformal_character(spec: CharSpec, z, tau) -> complex:
    """Evaluate a level-1 N=4 character.

    The massive character is q^{h - 3/8} theta_10(w)^2 / eta^3 and the
    isospin-1/2 massless sum form a literal sum, both written in the Ramond
    sector; the isospin-0 compact sum and the Lerch form are written in the
    tilded-Ramond sector.  Other sectors are evaluated by shifting z by the
    difference of the sectors' spectral-flow offsets (_FLOW).
    """
    z = _z(z)
    t = _tau(tau)
    rec = _record(t)

    def shifted(base: str) -> complex:
        try:
            const, tau_coeff = _FLOW[spec.sector]
        except KeyError:
            raise UnknownName(f"no sector {spec.sector!r}") from None
        base_const, base_tau_coeff = _FLOW[base]
        return z + ((const - base_const) + (tau_coeff - base_tau_coeff) * t)

    if spec.kind == "massless_mu_form":
        if spec.ell != 0:
            raise UnsupportedSpec("the Lerch form is the isospin-0 massless character")
        w = shifted("Rtilde")
        log, value = _theta_sq_over_eta3("11", w, rec)
        mu_log, mu = _lerch(w, rec)  # mu alone may leave the range of a double where the product does not
        return _scaled(log + mu_log, value * mu)

    if spec.kind == "massless_sum_form":
        # i theta_label(w)^2 / (theta_11(2w) eta^3) times the form's q-series
        if spec.ell == 0:
            w, label, series = shifted("Rtilde"), "11", _massless_compact_sum
        else:
            w, label, series = shifted("R"), "10", _massless_half_sum
        try:
            total = series(w, t)
        except OverflowError:  # a starting value's cmath.exp
            total = complex(math.inf)
        if not cmath.isfinite(total):
            raise ValueOverflow(f"massless character sum exceeds the range of a double at Im tau = {t.imag:.3g}")
        th2_log, th2 = _theta(rec, "11", 2.0 * w)
        if abs(th2) < POLE_EPS:  # in units of its largest term
            raise PoleAtArgument(f"theta_11(2z) vanishes at z = {w}")
        log, value = _theta_sq_over_eta3(label, w, rec)
        return _scaled(log - th2_log, 1j * value / th2 * total)

    # massive
    w = shifted("R")
    log, value = _theta_sq_over_eta3("10", w, rec)
    h = spec.h
    # h - 3/8 as one correctly rounded int / int division, no Fraction arithmetic
    return _scaled(log + 2j * math.pi * t * ((8 * h.numerator - 3 * h.denominator) / (8 * h.denominator)), value)


# -- elliptic genera and the two-argument kernel ------------------------------


def _theta_quotient_sq(label: str, z: complex, rec: _Record) -> complex:
    num_log, num = _theta(rec, label, z)
    den_log, den = _theta(rec, label, 0j)
    return _scaled(2.0 * (num_log - den_log), (num / den) ** 2)


def elliptic_genus(variant: str, z, tau) -> complex:
    """Elliptic genus as a sum of squared theta quotients.

    variant "k3": 8 [ (th10(z)/th10(0))^2 + (th00(z)/th00(0))^2 + (th01(z)/th01(0))^2 ]
    variant "decompactified": the last two terms only, coefficient 8
    """
    z = _z(z)
    t = _tau(tau)
    rec = _record(t)
    pair = _theta_quotient_sq("00", z, rec) + _theta_quotient_sq("01", z, rec)
    if variant == "k3":
        return 8.0 * (_theta_quotient_sq("10", z, rec) + pair)
    if variant == "decompactified":
        return 8.0 * pair
    raise UnknownName(f"no elliptic genus variant {variant!r}")


def _difference(first: tuple[complex, complex], second: tuple[complex, complex]) -> tuple[complex, complex]:
    """(log, value) of the difference of two (log, value) pairs, in units of the larger exponent."""
    (log1, v1), (log2, v2) = first, second
    if log1.real >= log2.real:
        return log1, v1 - cmath.exp(log2 - log1) * v2
    return log2, cmath.exp(log1 - log2) * v1 - v2


def lerch_difference(z, w, tau) -> complex:
    """theta_11(z)^2 / eta^3 * (mu(z; tau) - mu(w; tau)).

    Vanishes at w = z; at w equal to a half-period it collapses to a squared
    theta quotient.  R depends only on tau, so mu(z) - mu(w) is
    mu_hat(z) - mu_hat(w), which is the walk's factor times mu(z') - mu(w')
    at the reduced point (see _walk_factor): no R is summed at all.
    """
    z, w = _z(z), _z(w, "w")
    rec = _record(_tau(tau))
    log, value = _theta_sq_over_eta3("11", z, rec)
    steps, count = rec.steps, rec.lerch_count
    t_red = steps[-1][1]
    mu_log, mu = _difference(_lerch_direct(_walk(z, steps), t_red, count), _lerch_direct(_walk(w, steps), t_red, count))
    return _scaled(log + mu_log, value * rec.factor * mu)
