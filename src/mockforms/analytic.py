"""Double-precision complex evaluation of the analytic objects.

theta_00 and the completion mu_hat are evaluated at the SL2(Z)-reduced
point: _reduce walks tau into |Re tau| <= 1/2, |tau| >= 1, the transformation
laws carry the value there (for mu_hat: Zwegers, Mock Theta Functions,
arXiv:0807.4834, Prop. 1.4, Prop. 1.5 and Thm. 1.11), z goes into the period
parallelogram, and the direct sums run where a few terms converge, so the
cost does not depend on Im tau.  Jacobi thetas, the level-1 massive
character q^{h-3/8} theta_10(z)^2 / eta^3 built on them, and eta
(q^{1/24} theta_00((tau+1)/2; 3 tau), Jacobi's triple product) are theta_00
at shifted arguments.  Large or small factors travel as (log, value) pairs,
whose rounding grows as Im tau falls (theta_00 is good to ~1e-13 relative
at Im tau = 1e-3, ~1e-9 at 1e-5); a value past a double raises
ValueOverflow.  Only the massless sum forms' q-series and R are still summed
at tau.  The half-integer Bessel closed forms live in rademacher, next to
the series that use them.

The two kernels every evaluation ends in run at the reduced point, where a
few terms settle, and form each term from the one before it by a running
ratio, one complex multiply instead of one exp: the theta_00 sum and the
Lerch sum.  The Lerch sum mu = q^{-1/8} A / S sums the Appell series A and
S = sum_n t_n, which is theta_11(z) up to the factor i q^{1/8} y^{1/2}, in
one loop over one chain of t_n, so it needs no theta_11 of its own.  The
massless sum forms' q-series and R, which run at tau itself with tens to
thousands of terms, keep one exp per term: recurrence rounding grows with
the term index.

Truncation policy: a series stops once two consecutive terms fall below 1e-18
of the running sum (_settle, or the same test inline in R's loop; the
theta_00 kernel tests a pair of terms at a time, the Lerch kernel the Appell
term and t_n together), so results are deterministic.  A series whose term
budget runs out raises QuadratureNonConvergence, never a truncated sum.
Every pole guard is relative and raises PoleAtArgument: a theta_11 (the
massless sum forms' denominator theta_11(2z) too) below 1e-10 of its largest
term at the reduced point, or a denominator within 1e-10 of zero relative to
its larger part.

Branch convention: every square root (sqrt(c tau + d), sqrt(i/tau), ...) is
the principal branch, argument in (-pi, pi].
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from collections.abc import Iterable, Iterator
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
_GAUSS_CUT = -2.0 * math.log(TAIL_EPS)  # e^{-x} < TAIL_EPS^2 past x = _GAUSS_CUT

SECTORS = ("R", "Rtilde", "NS", "NStilde")


def _tau(value) -> complex:
    t = complex(value)
    if not (t.imag > 0 and cmath.isfinite(t)):
        raise ValueError(f"tau = {t} is not in the upper half-plane")
    return t


# -- reduction to the fundamental domain ------------------------------------


def _reduce(t: complex) -> list[tuple[int, complex]]:
    """The SL2(Z) word that carries tau into |Re tau| <= 1/2, |tau| >= 1.

    Each step (n, s) translates the current point by -n to s; every step but
    the last then inverts, tau -> -1/s.  The last s is the reduced point.
    The 1e-9 slack on |tau| >= 1 stops the walk cycling at the corners.
    """
    steps = []
    while True:
        n = math.floor(t.real + 0.5)
        t -= n
        steps.append((n, t))
        if abs(t) >= 1.0 - 1e-9:
            return steps
        t = -1.0 / t


def _lattice_point(w: complex, t: complex) -> tuple[complex, int]:
    """(w0, b) with w0 = w - a - b tau for integers a, b, |Im w0| <= Im tau / 2 and |Re w0| <= 1/2.

    For |b| > 1 (Im w well above Im tau) Re w0 is formed in exact rationals,
    so a large b costs no digits; the float branch keeps the common case cheap.
    """
    b = round(w.imag / t.imag)
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
    """exp(log) * value, raising ValueOverflow instead of overflowing."""
    if value == 0:
        return 0j
    exponent = log + cmath.log(value)
    try:
        return cmath.exp(exponent)
    except OverflowError:
        raise ValueOverflow(f"|value| = exp({exponent.real:.6g}) exceeds the range of a double") from None


def _settle(total: complex, terms: Iterable[complex], what: str) -> complex:
    """total plus terms, stopped once two in a row fall below TAIL_EPS (1 + |total|).

    Raises QuadratureNonConvergence when the terms run out first, so no
    caller ever returns a truncated sum.
    """
    small_streak, eps = 0, TAIL_EPS
    for term in terms:
        total += term
        if abs(term) <= eps * (1.0 + abs(total)):
            small_streak += 1
            if small_streak >= 2:
                return total
        else:
            small_streak = 0
    raise QuadratureNonConvergence(f"{what} did not settle")


def _budget(floor: int, needed: float, what: str, v: float) -> int:
    """max(floor, ceil(needed)) terms, raising QuadratureNonConvergence past MAX_TERMS."""
    budget = max(floor, math.ceil(needed))
    if budget > MAX_TERMS:
        raise QuadratureNonConvergence(f"{what} needs {budget} terms at Im tau = {v:.3g}")
    return budget


def _outward(summand, rate: float, v: float, what: str) -> complex:
    """summand(0) plus the terms m = +-1, +-2, ..., settled in each direction.

    Each direction gets the terms it takes the Gaussian factor e^{-rate m^2}
    to fall below TAIL_EPS^2, at least 200; the square leaves room for
    denominators, which lift a term by up to 1/(2 pi Im tau)^2.
    """
    budget = _budget(200, math.sqrt(_GAUSS_CUT / rate), what, v)
    total = summand(0)
    for direction in (1, -1):
        total = _settle(total, map(summand, range(direction, (budget + 1) * direction, direction)), what)
    return total


# -- theta functions -----------------------------------------------------


def _theta00_sum(z: complex, t: complex) -> complex:
    """sum_n exp(i pi (tau n^2 + 2 n z)), summed outward from n = 0.

    For |Im z| <= Im tau / 2 no term is larger than the n = 0 term, 1, so
    the terms only shrink from there on.  Each term is the one before it
    times a running ratio: with q = e^{2 pi i tau}, term n + 1 is term n
    times e^{i pi (tau + 2z)} q^n (and with -z for -n), and the ratio itself
    gains a factor q per step.  Every factor is at most 1 in modulus, so a
    product can underflow to 0, where the true term is negligible, but never
    overflow.
    """
    q = cmath.exp(2j * math.pi * t)
    a = cmath.exp(1j * math.pi * (t + 2.0 * z))
    b = cmath.exp(1j * math.pi * (t - 2.0 * z))
    ratio_a, ratio_b = a * q, b * q
    total = 1.0 + 0j
    small_streak = 0
    for _ in range(10_000):  # unreachable for finite arguments
        total += a + b
        if abs(a) + abs(b) <= TAIL_EPS * (1.0 + abs(total)):
            small_streak += 1
            if small_streak >= 2:
                return total
        else:
            small_streak = 0
        a *= ratio_a
        b *= ratio_b
        ratio_a *= q
        ratio_b *= q
    raise QuadratureNonConvergence("theta series did not settle")


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


def _theta_direct(z: complex, t: complex) -> tuple[complex, complex]:
    """(log, value) with theta_00(z; tau) = exp(log) * value, summed at tau itself.

    z is first moved into the period parallelogram by
    theta_00(z0 + a + b tau) = e^{-i pi b (b tau + 2 z0)} theta_00(z0), which
    only re-indexes the series, so value is the sum in units of its largest
    term.
    """
    w, log = _theta_lattice(z, t)
    return log, _theta00_sum(w, t)


def _theta_parts(label: str, z: complex, t: complex) -> tuple[complex, complex]:
    """(log, value) with theta_label(z; tau) = exp(log) * value, summed at the reduced tau.

    Along the word of _reduce: theta_00(z; tau + n) = theta_00(z + n/2; tau),
    and, with z first reduced mod the lattice of tau,
    theta_00(z; tau) = sqrt(i/tau) e^{-i pi z^2/tau} theta_00(z/tau; -1/tau).
    """
    log, w = _theta00_argument(label, z, t)
    steps = _reduce(t)
    for n, s in steps[:-1]:
        w, more = _theta_lattice(w + 0.5 * (n % 2), s)
        log += more + 0.5 * cmath.log(1j / s) - 1j * math.pi * w * w / s
        w = w / s
    n, t_red = steps[-1]
    more, value = _theta_direct(w + 0.5 * (n % 2), t_red)
    return log + more, value


def jacobi_theta(label: str, z, tau) -> complex:
    """Jacobi theta function theta_label(z; tau), label in {"11","10","00","01"}.

    Summation index k runs over half-integers for "11"/"10" and integers for
    "00"/"01"; labels "11" and "01" shift z by 1/2.  Each term is
    exp(i pi (tau k^2 + 2 k z_eff)).  Evaluated as theta_00 at the reduced
    point (see _theta_parts); raises ValueOverflow when |theta| exceeds the
    range of a double.
    """
    return _scaled(*_theta_parts(label, complex(z), _tau(tau)))


def _theta11_of_2z(z: complex, t: complex) -> tuple[complex, complex]:
    """theta_11(2z) as (log, value), the denominator of the massless sum forms.

    Raises PoleAtArgument where value, in units of its largest term, is tiny.
    """
    log, value = _theta_parts("11", 2.0 * z, t)
    if abs(value) < POLE_EPS:
        raise PoleAtArgument(f"theta_11(2z) vanishes at z = {z}")
    return log, value


def _eta_parts(t: complex) -> tuple[complex, complex]:
    """(log, value) of eta(tau) = sum_n (-1)^n q^{(6n+1)^2/24} = q^{1/24} theta_00((tau + 1)/2; 3 tau)."""
    log, value = _theta_parts("00", 0.5 * (t + 1.0), 3.0 * t)
    return log + 1j * math.pi * t / 12.0, value


def dedekind_eta(tau) -> complex:
    """eta(tau) = q^{1/24} prod_{n>=1} (1 - q^n), evaluated as theta_00 at the reduced point."""
    return _scaled(*_eta_parts(_tau(tau)))


def _eta_cubed(t: complex) -> complex:
    log, value = _eta_parts(t)
    return _scaled(3.0 * log, value * value * value)


def _eta_cubed_terms(limit: int) -> Iterator[tuple[int, int]]:
    """Terms (m(m+1)/2, (-1)^m (2m+1)) below q^limit of Jacobi's eta^3 = q^{1/8} sum_m (-1)^m (2m+1) q^{m(m+1)/2}."""
    m = 0
    while m * (m + 1) < 2 * limit:
        yield m * (m + 1) // 2, (2 * m + 1) * (-1) ** m
        m += 1


# -- the non-holomorphic correction -----------------------------------------


def nonholomorphic_correction(tau) -> complex:
    """The non-holomorphic partner R of the Lerch sum.

    Its defining series over half-integers, after pairing n with -n-1, reads

        2 sum_{m>=0} (-1)^m erfc((m+1/2) sqrt(2 pi v)) e^{-i pi tau (m+1/2)^2},

    real on the imaginary axis.  Term m has modulus 2 erfc(x) e^{x^2/2} with
    x = (m + 1/2) sqrt(2 pi v), below 1e-18 by x ~ 9, so the sum gets
    max(400, 10 / sqrt(2 pi v)) terms; past 100 000 (Im tau below ~1.6e-9)
    it raises QuadratureNonConvergence instead of summing.  The tests check
    it against the period integral
    (1/sqrt(i)) int_{-conj(tau)}^{i inf} eta(x)^3 / sqrt(x + tau) dx
    (tests/oracles.py, correction_period_integral).
    """
    t = _tau(tau)
    v = t.imag
    what = "non-holomorphic correction sum"
    scale = math.sqrt(2.0 * math.pi * v)
    budget = _budget(400, 10.0 / scale, what, v)
    total, sign, phase = 0j, 2.0, -1j * math.pi * t
    small_streak = 0
    for m in range(budget):
        k = m + 0.5
        amp = math.erfc(k * scale)
        # an erfc that underflowed to 0 leaves a term below e^{-351}
        term = sign * amp * cmath.exp(phase * k * k) if amp else 0j
        total += term
        if abs(term) <= TAIL_EPS * (1.0 + abs(total)):
            small_streak += 1
            if small_streak >= 2:
                return total
        else:
            small_streak = 0
        sign = -sign
    raise QuadratureNonConvergence(f"{what} did not settle")


# -- Lerch sum and its completion -------------------------------------------


def _lerch_direct(z: complex, t: complex) -> tuple[complex, complex]:
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
    gains a factor q.  Together they run over every t_n but t_{-1}, so
    S = -1/y + C with C the sum of the chain, and
    mu = q^{-1/8} y A / (y C - 1): y stays in the log, so a y that
    underflows costs neither A nor the result's scale.  The starting values
    y, q/y and q/y^2 are one exp each.  Raises PoleAtArgument where a
    denominator 1 - r is within POLE_EPS of zero, or |S| is below POLE_EPS
    of its largest term.
    """
    z = _lattice_point(z, t)[0]
    if z.imag < 0:
        z = -z
    budget = _budget(200, math.sqrt(_GAUSS_CUT / (math.pi * t.imag)), "Lerch sum", t.imag)
    q = cmath.exp(2j * math.pi * t)
    y = cmath.exp(2j * math.pi * z)
    appell, chain = 0j, 0j
    for n0, step, u, r in ((0, 1, 1.0 + 0j, y),
                           (-1, -1, cmath.exp(2j * math.pi * (t - 2.0 * z)), cmath.exp(2j * math.pi * (t - z)))):
        small_streak, eps = 0, TAIL_EPS
        for k in range(budget):
            den = 1.0 - r
            if abs(den) < POLE_EPS:
                raise PoleAtArgument(f"Lerch denominator vanishes at n = {n0 + step * k}, z = {z}")
            term = u / den
            appell += term
            chain += u
            if abs(term) <= eps * (1.0 + abs(appell)) and abs(u) <= eps * (1.0 + abs(chain)):
                small_streak += 1
                if small_streak >= 2:
                    break
            else:
                small_streak = 0
            r *= q
            u *= -r
        else:
            raise QuadratureNonConvergence("Lerch sum did not settle")
    theta = y * chain - 1.0  # y S
    if abs(theta) < POLE_EPS:
        raise PoleAtArgument(f"theta_11 vanishes at z = {z}")
    return 2j * math.pi * (z - 0.125 * t), appell / theta


def _completion_walk(z: complex, t: complex) -> tuple[complex, complex, complex]:
    """(factor, z', tau') with mu_hat(z; tau) = factor * mu_hat(z'; tau') and tau' reduced.

    mu_hat(z; tau + n) = e^{-i pi n/4} mu_hat(z; tau), mu_hat is invariant
    under z -> z + 1 and z -> z + tau, and
    mu_hat(z; tau) = -sqrt(i/tau) mu_hat(z/tau; -1/tau)
    (Zwegers, Mock Theta Functions, Thm. 1.11, at u = v).
    """
    factor = 1.0 + 0j
    steps = _reduce(t)
    for n, s in steps[:-1]:
        factor *= -cmath.exp(-0.25j * math.pi * (n % 8)) * cmath.sqrt(1j / s)
        z = _lattice_point(z, s)[0] / s
    n, t_red = steps[-1]
    return factor * cmath.exp(-0.25j * math.pi * (n % 8)), z, t_red


def _completion_direct(z: complex, t: complex) -> complex:
    """mu(z; tau) - R(tau)/2 by the direct sums at tau itself."""
    return _scaled(*_lerch_direct(z, t)) - 0.5 * nonholomorphic_correction(t)


def lerch_sum(z, tau) -> complex:
    """The Appell/Lerch sum

        mu(z; tau) = (i e^{pi i z} / theta_11(z; tau))
                     * sum_n (-1)^n q^{n(n+1)/2} e^{2 pi i n z} / (1 - q^n e^{2 pi i z}).

    Even and elliptic in z.  Summed directly when tau is in the fundamental
    domain, else computed as lerch_completion + R(tau)/2.  Raises
    PoleAtArgument when z sits on the period lattice.
    """
    z = complex(z)
    t = _tau(tau)
    if _reduce(t) != [(0, t)]:
        return lerch_completion(z, t) + 0.5 * nonholomorphic_correction(t)
    return _scaled(*_lerch_direct(z, t))


def lerch_completion(z, tau) -> complex:
    """mu(z; tau) - R(tau)/2, the modular completion of the Lerch sum.

    Evaluated by the direct sums at the reduced point (see _completion_walk).
    """
    factor, z, t = _completion_walk(complex(z), _tau(tau))
    return factor * _completion_direct(z, t)


# -- superconformal characters -------------------------------------------------


# z-offsets (const, tau_coeff) of the sectors under spectral flow, NS
# unshifted: NS~ adds 1/2, R adds tau/2, R~ adds (1 + tau)/2
_FLOW = {"NS": (0.0, 0.0), "NStilde": (0.5, 0.0), "R": (0.0, 0.5), "Rtilde": (0.5, 0.5)}

_QUARTER, _HALF = Fraction(1, 4), Fraction(1, 2)


class CharSpec(namedtuple("CharSpec", "kind k h ell sector")):
    """Parameters of a level-1 N=4 character: kind, level, weight, isospin, sector.

    The K3 elliptic genus decomposes into level-1 characters only, so k must
    be 1.  Massless (BPS) then needs h = 1/4 and ell in {0, 1/2}; massive
    (non-BPS) needs h > 1/4 and ell = 1/2.  Violations raise UnsupportedSpec.
    The constructor stores h and ell as Fractions.
    """

    __slots__ = ()

    def __new__(cls, kind: str, k: int, h: Fraction, ell: Fraction, sector: str = "Rtilde"):
        h, ell = Fraction(h), Fraction(ell)
        if kind not in ("massless_sum_form", "massless_mu_form", "massive"):
            raise UnsupportedSpec(f"unknown character kind {kind!r}")
        if sector not in SECTORS:
            raise UnsupportedSpec(f"unknown sector {sector!r}")
        if k != 1:
            raise UnsupportedSpec(f"only level k = 1 is supported, not {k}")
        if kind == "massive":
            if not h > _QUARTER:
                raise UnsupportedSpec("massive representations need h > 1/4")
            if ell != _HALF:
                raise UnsupportedSpec("massive isospin must be 1/2")
        else:
            if h != _QUARTER:
                raise UnsupportedSpec("massless representations need h = 1/4")
            if ell not in (0, _HALF):
                raise UnsupportedSpec("massless isospin must be 0 or 1/2")
        return super().__new__(cls, kind, k, h, ell, sector)


def _theta_sq_over_eta3(label: str, z: complex, t: complex) -> tuple[complex, complex]:
    """(log, value) with theta_label(z)^2 / eta^3 = exp(log) * value."""
    th_log, th = _theta_parts(label, z, t)
    eta_log, eta = _eta_parts(t)
    return 2.0 * th_log - 3.0 * eta_log, th * th / (eta * eta * eta)


def _massless_compact_sum(z: complex, t: complex) -> complex:
    """Printed one-variable form of the level-1, isospin-0 massless character
    (the tilded-Ramond sector): prefactor i theta_11(z)^2 / (theta_11(2z) eta^3)
    times sum_m q^{2m^2} e^{8 pi i m z} (1 + e^{2 pi i z} q^m)/(1 - e^{2 pi i z} q^m).
    """
    def summand(m: int) -> complex:
        y_qm = cmath.exp(1j * math.pi * (2.0 * z + 2.0 * t * m))
        den = 1.0 - y_qm
        if abs(den) < POLE_EPS * max(1.0, abs(y_qm)):
            raise PoleAtArgument(f"massless denominator vanishes at m = {m}, z = {z}")
        return cmath.exp(1j * math.pi * (4.0 * t * m * m + 8.0 * m * z)) * (1.0 + y_qm) / den

    total = _outward(summand, 4.0 * math.pi * t.imag, t.imag, "massless character sum")
    th2_log, th2 = _theta11_of_2z(z, t)
    log, value = _theta_sq_over_eta3("11", z, t)
    return _scaled(log - th2_log, 1j * value / th2 * total)


def _massless_half_sum(w: complex, t: complex) -> complex:
    """Ramond-sector massless character of isospin 1/2, evaluated literally at argument w:

        (i / theta_11(2w)) (theta_10(w)^2 / eta^3)
        sum_{eps=+-1} sum_m eps e^{4 pi i eps w (2m + 1/2)}
                      q^{2m^2 + m} / (1 + e^{-2 pi i eps w} q^{-m})^2

    Other sectors are reached by shifting w.  Terms with m > 0 are rewritten
    to keep q^{-m} out of the numerator.
    """
    def pair(m: int) -> complex:
        out = 0j
        for eps in (1, -1):
            q_exp = 2 * m * m + m
            osc = 4.0 * eps * w * (2 * m + 0.5)
            if m <= 0:
                den = 1.0 + cmath.exp(1j * math.pi * (-2.0 * eps * w - 2.0 * t * m))
                if abs(den) < POLE_EPS:
                    raise PoleAtArgument(f"massless denominator vanishes at m = {m}")
                out += eps * cmath.exp(1j * math.pi * (2.0 * t * q_exp + osc)) / (den * den)
            else:
                # (1 + e^{-2 pi i eps w} q^{-m})^2 = e^{-4 pi i eps w} q^{-2m} (1 + e^{2 pi i eps w} q^m)^2
                u = cmath.exp(1j * math.pi * (2.0 * eps * w + 2.0 * t * m))
                den = 1.0 + u
                if abs(den) < POLE_EPS:
                    raise PoleAtArgument(f"massless denominator vanishes at m = {m}")
                out += eps * cmath.exp(1j * math.pi * (2.0 * t * (q_exp + 2 * m) + osc + 4.0 * eps * w)) / (den * den)
        return out

    total = _outward(pair, 4.0 * math.pi * t.imag, t.imag, "massless character sum")
    th2_log, th2 = _theta11_of_2z(w, t)
    log, value = _theta_sq_over_eta3("10", w, t)
    return _scaled(log - th2_log, 1j * value / th2 * total)


def superconformal_character(spec: CharSpec, z, tau) -> complex:
    """Evaluate a level-1 N=4 character.

    The massive character is q^{h - 3/8} theta_10(w)^2 / eta^3 and the
    isospin-1/2 massless sum form a literal sum, both written in the Ramond
    sector; the isospin-0 compact sum and the Lerch form are written in the
    tilded-Ramond sector.  Other sectors are evaluated by shifting z by the
    difference of the sectors' spectral-flow offsets (_FLOW).
    """
    z = complex(z)
    t = _tau(tau)

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
        log, value = _theta_sq_over_eta3("11", w, t)
        return _scaled(log, value * lerch_sum(w, t))

    if spec.kind == "massless_sum_form":
        if spec.ell == 0:
            return _massless_compact_sum(shifted("Rtilde"), t)
        return _massless_half_sum(shifted("R"), t)

    # massive
    w = shifted("R")
    log, value = _theta_sq_over_eta3("10", w, t)
    h = spec.h
    # h - 3/8 as one correctly rounded int / int division, no Fraction arithmetic
    return _scaled(log + 2j * math.pi * t * ((8 * h.numerator - 3 * h.denominator) / (8 * h.denominator)), value)


# -- elliptic genera and the two-argument kernel ------------------------------


def _theta_quotient_sq(label: str, z: complex, t: complex) -> complex:
    num_log, num = _theta_parts(label, z, t)
    den_log, den = _theta_parts(label, 0j, t)
    return _scaled(2.0 * (num_log - den_log), (num / den) ** 2)


def elliptic_genus(variant: str, z, tau) -> complex:
    """Elliptic genus as a sum of squared theta quotients.

    variant "k3": 8 [ (th10(z)/th10(0))^2 + (th00(z)/th00(0))^2 + (th01(z)/th01(0))^2 ]
    variant "decompactified": the last two terms only, coefficient 8
    """
    z = complex(z)
    t = _tau(tau)
    pair = _theta_quotient_sq("00", z, t) + _theta_quotient_sq("01", z, t)
    if variant == "k3":
        return 8.0 * (_theta_quotient_sq("10", z, t) + pair)
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
    at the reduced point (see _completion_walk): no R is summed at all.
    """
    z, w = complex(z), complex(w)
    t = _tau(tau)
    log, value = _theta_sq_over_eta3("11", z, t)
    factor, z_red, t_red = _completion_walk(z, t)
    w_red = _completion_walk(w, t)[1]
    mu_log, mu = _difference(_lerch_direct(z_red, t_red), _lerch_direct(w_red, t_red))
    return _scaled(log + mu_log, value * factor * mu)
