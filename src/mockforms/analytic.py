"""Double-precision complex evaluation of the analytic objects.

Everything here is a direct summation of a defining series (Jacobi theta
functions, the Dedekind eta product, the Lerch/Appell sum, level-P theta
series, superconformal characters, elliptic genera) or a closed form (error
function, half-integer Bessel functions, specialised Whittaker values).

Truncation policy: series are summed symmetrically outward and stopped once
consecutive terms fall below 1e-18 relative to the running partial sum, so
results are deterministic for fixed inputs.  Denominators are guarded at
1e-10: evaluation points too close to a pole raise a typed error rather than
returning a huge value.

Branch convention: every square root (sqrt(c tau + d), sqrt(i/tau), ...) is
the principal branch, argument in (-pi, pi].
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import (
    DenominatorVanishes,
    NonPositiveArgument,
    PoleAtArgument,
    QuadratureNonConvergence,
    UnknownName,
    UnsupportedSpec,
)
from .rademacher import bessel_i_half, bessel_i_three_half

__all__ = [
    "ModularPoint",
    "EllipticArg",
    "CharSpec",
    "WhittakerClosed",
    "FlowOffset",
    "jacobi_theta",
    "dedekind_eta",
    "erf_pi",
    "lerch_sum",
    "nonholomorphic_correction",
    "lerch_completion",
    "bessel_half",
    "level_theta",
    "affine_su2_character",
    "superconformal_character",
    "elliptic_genus",
    "lerch_difference",
    "whittaker_closed",
    "spectral_flow_offset",
    "SECTORS",
]

TAIL_EPS = 1e-18
POLE_EPS = 1e-10

SECTORS = ("R", "Rtilde", "NS", "NStilde")

Complexish = Union[complex, float, int, Fraction]


@dataclass(frozen=True)
class ModularPoint:
    """A point tau in the upper half-plane."""

    tau: complex

    def __post_init__(self):
        if not self.tau.imag > 0:
            raise ValueError(f"tau = {self.tau} is not in the upper half-plane")


@dataclass(frozen=True)
class EllipticArg:
    """An elliptic argument z; any complex value is allowed."""

    z: complex


def _tau(value: Union[ModularPoint, Complexish]) -> complex:
    if isinstance(value, ModularPoint):
        return value.tau
    t = complex(value)
    if not t.imag > 0:
        raise ValueError(f"tau = {t} is not in the upper half-plane")
    return t


def _z(value: Union[EllipticArg, Complexish]) -> complex:
    if isinstance(value, EllipticArg):
        return value.z
    if isinstance(value, Fraction):
        return complex(float(value))
    return complex(value)


# -- theta functions -----------------------------------------------------


def jacobi_theta(label: str, z, tau) -> complex:
    """Jacobi theta function theta_label(z; tau), label in {"11","10","00","01"}.

    Summation index k runs over half-integers for "11"/"10" and integers for
    "00"/"01"; labels "11" and "01" shift z by 1/2.  Each term is
    exp(i pi (tau k^2 + 2 k z_eff)).
    """
    if label not in ("11", "10", "00", "01"):
        raise UnknownName(f"no theta function labelled {label!r}")
    z = _z(z)
    t = _tau(tau)
    z_eff = z + 0.5 if label in ("11", "01") else z
    half = label in ("11", "10")

    def term(k: float) -> complex:
        return cmath.exp(1j * math.pi * (t * k * k + 2.0 * k * z_eff))

    total = 0j
    if not half:
        total = term(0.0)
    j_safe = 2 + int(abs(z_eff.imag) / t.imag)
    small_streak = 0
    j = 0
    while True:
        k = j + 0.5 if half else j + 1.0
        t_pos, t_neg = term(k), term(-k)
        total += t_pos + t_neg
        if abs(t_pos) + abs(t_neg) <= TAIL_EPS * (1.0 + abs(total)):
            small_streak += 1
            if small_streak >= 2 and j >= j_safe:
                break
        else:
            small_streak = 0
        j += 1
        if j > 10_000:  # unreachable for Im tau bounded away from 0
            raise QuadratureNonConvergence("theta series did not settle")
    return total


def dedekind_eta(tau) -> complex:
    """eta(tau) = q^{1/24} prod_{n=1}^{N} (1 - q^n) with |q|^N below 1e-18."""
    t = _tau(tau)
    q = cmath.exp(2j * math.pi * t)
    n_terms = int(18.0 * math.log(10.0) / (2.0 * math.pi * t.imag)) + 3
    prod = 1.0 + 0j
    q_pow = 1.0 + 0j
    for _ in range(n_terms):
        q_pow *= q
        prod *= 1.0 - q_pow
    return cmath.exp(2j * math.pi * t / 24.0) * prod


def _eta_cubed(t: complex) -> complex:
    e = dedekind_eta(t)
    return e * e * e


# -- error function and the non-holomorphic correction ---------------------


def erf_pi(x: float) -> float:
    """2 int_0^x e^{-pi u^2} du = erf(sqrt(pi) x) = 1 - erfc(sqrt(pi) x); odd."""
    return math.erf(math.sqrt(math.pi) * x)


def nonholomorphic_correction(tau, method: str = "sum") -> complex:
    """The non-holomorphic partner R of the Lerch sum.

    method "sum" evaluates the defining series over half-integers; after
    pairing n with -n-1 it reads

        2 sum_{m>=0} (-1)^m erfc((m+1/2) sqrt(2 pi v)) e^{-i pi tau (m+1/2)^2},

    real on the imaginary axis.  It raises QuadratureNonConvergence when the
    terms have not settled after 400, which happens for Im tau below ~7.8e-5.
    method "period_integral" evaluates the same function as
    (1/sqrt(i)) int_{-conj(tau)}^{i inf} eta(x)^3 / sqrt(x + tau) dx;
    along x = -conj(tau) + i t the square root simplifies and the integral
    becomes int_0^inf eta(-conj(tau) + i t)^3 / sqrt(2v + t) dt, which is
    computed with the substitution t = e^s and adaptive trapezoid doubling.
    """
    t = _tau(tau)
    v = t.imag
    if method == "sum":
        total = 0j
        scale = math.sqrt(2.0 * math.pi * v)
        small_streak = 0
        for m in range(0, 400):
            k = m + 0.5
            amp = math.erfc(k * scale)
            term = 2.0 * (-1) ** m * amp * cmath.exp(-1j * math.pi * t * k * k)
            total += term
            if abs(term) <= TAIL_EPS * (1.0 + abs(total)):
                small_streak += 1
                if small_streak >= 2:
                    return total
            else:
                small_streak = 0
        raise QuadratureNonConvergence("non-holomorphic correction sum did not settle")
    if method == "period_integral":
        base = -t.conjugate()

        def integrand(s: float) -> complex:
            u = math.exp(s)
            return _eta_cubed(base + 1j * u) * u / math.sqrt(2.0 * v + u)

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
        raise QuadratureNonConvergence("period integral refinement stalled")
    raise ValueError(f"unknown method {method!r}")


# -- Lerch sum and its completion -------------------------------------------


def lerch_sum(z, tau) -> complex:
    """The Appell/Lerch sum

        mu(z; tau) = (i e^{pi i z} / theta_11(z; tau))
                     * sum_n (-1)^n q^{n(n+1)/2} e^{2 pi i n z} / (1 - q^n e^{2 pi i z}).

    Even in z.  Raises PoleAtArgument when theta_11 or a denominator is
    numerically zero (z on the period lattice).
    """
    z = _z(z)
    t = _tau(tau)
    th = jacobi_theta("11", z, t)
    if abs(th) < POLE_EPS:
        raise PoleAtArgument(f"theta_11 vanishes at z = {z}")

    def summand(n: int) -> complex:
        if n >= 0:
            # q^{n(n+1)/2} e^{2 pi i n z} / (1 - q^n e^{2 pi i z})
            den = 1.0 - cmath.exp(1j * math.pi * (2.0 * t * n + 2.0 * z))
            if abs(den) < POLE_EPS:
                raise PoleAtArgument(f"Lerch denominator vanishes at n = {n}, z = {z}")
            return (-1) ** n * cmath.exp(1j * math.pi * (t * n * (n + 1) + 2.0 * n * z)) / den
        # for n < 0 multiply through by q^{-n} e^{-2 pi i z} to avoid overflow
        w = cmath.exp(1j * math.pi * (-2.0 * t * n - 2.0 * z))  # |w| >> 1 eventually
        den = w - 1.0
        if abs(den) < POLE_EPS * max(1.0, abs(w)):
            raise PoleAtArgument(f"Lerch denominator vanishes at n = {n}, z = {z}")
        return (-1) ** n * cmath.exp(1j * math.pi * (t * n * (n + 1) - 2.0 * t * n + 2.0 * (n - 1) * z)) / den

    total = summand(0)
    for direction in (1, -1):
        small_streak = 0
        n = direction
        while True:
            term = summand(n)
            total += term
            if abs(term) <= TAIL_EPS * (1.0 + abs(total)):
                small_streak += 1
                if small_streak >= 2:
                    break
            else:
                small_streak = 0
            n += direction
            if abs(n) > 400:
                raise QuadratureNonConvergence("Lerch sum did not settle")
    return 1j * cmath.exp(1j * math.pi * z) / th * total


def lerch_completion(z, tau) -> complex:
    """mu(z; tau) - R(tau)/2, the modular completion of the Lerch sum."""
    return lerch_sum(z, tau) - 0.5 * nonholomorphic_correction(tau, "sum")


# -- Bessel and Whittaker closed forms ---------------------------------------


def bessel_half(kind: str, x: float) -> float:
    """Half-integer Bessel functions in closed form, x > 0:

    I_{1/2}(x) = sqrt(2/(pi x)) sinh x
    J_{1/2}(x) = sqrt(2/(pi x)) sin x
    I_{3/2}(x) = sqrt(2/(pi x)) (cosh x - sinh x / x)
    """
    if x <= 0:
        raise NonPositiveArgument("bessel argument must be positive")
    if kind == "J":
        return math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
    if kind == "I":
        return bessel_i_half(x)
    if kind == "I_three_half":
        return bessel_i_three_half(x)
    raise UnknownName(f"no half-integer bessel kind {kind!r}")


@dataclass(frozen=True)
class WhittakerClosed:
    """A specialised Whittaker value at positive v; kind selects the branch."""

    kind: str
    v: float

    def __post_init__(self):
        if self.kind not in ("W_plus", "W_minus", "M_minus"):
            raise UnknownName(f"no closed Whittaker form {self.kind!r}")
        if not self.v > 0:
            raise NonPositiveArgument("Whittaker argument must be positive")


def whittaker_closed(w: WhittakerClosed) -> float:
    """Closed forms of the weight-1/2, spectral-3/4 Whittaker envelopes:

    W_plus(v)  = e^{-v/2}
    W_minus(v) = sqrt(pi) (1 - E(sqrt(v/pi))) e^{v/2}
    M_minus(v) = (sqrt(pi)/2) E(sqrt(v/pi)) e^{v/2}

    with E the normalised error function erf_pi.
    """
    root = math.sqrt(w.v / math.pi)
    if w.kind == "W_plus":
        return math.exp(-0.5 * w.v)
    if w.kind == "W_minus":
        return math.sqrt(math.pi) * (1.0 - erf_pi(root)) * math.exp(0.5 * w.v)
    return 0.5 * math.sqrt(math.pi) * erf_pi(root) * math.exp(0.5 * w.v)


# -- level-P theta series and affine characters -------------------------------


def level_theta(P: int, a: int, z, tau) -> complex:
    """sum_n q^{(2Pn+a)^2/(4P)} e^{2 pi i z (2Pn+a)}; periodic in a mod 2P."""
    if P < 1:
        raise ValueError("level P must be positive")
    z = _z(z)
    t = _tau(tau)

    def term(n: int) -> complex:
        m = 2 * P * n + a
        return cmath.exp(2j * math.pi * (t * m * m / (4.0 * P) + z * m))

    center = round(-a / (2.0 * P))
    total = term(center)
    for direction in (1, -1):
        small_streak = 0
        n = center + direction
        while True:
            tval = term(n)
            total += tval
            if abs(tval) <= TAIL_EPS * (1.0 + abs(total)):
                small_streak += 1
                if small_streak >= 2:
                    break
            else:
                small_streak = 0
            n += direction
            if abs(n - center) > 10_000:
                raise QuadratureNonConvergence("level theta series did not settle")
    return total


def affine_su2_character(k: int, ell, z, tau) -> complex:
    """Affine SU(2) character at level k and isospin ell:

        chi_{k,ell} = (vartheta_{k+2, 2 ell + 1} - vartheta_{k+2, -2 ell - 1})
                      / (vartheta_{2, 1} - vartheta_{2, -1})

    Even in z; the denominator vanishes at z = 0 (DenominatorVanishes).
    """
    if k < 0:
        raise ValueError("level k must be nonnegative")
    a = Fraction(ell) * 2 + 1
    if a.denominator != 1:
        raise UnsupportedSpec(f"isospin {ell} is not a half-integer")
    a = int(a)
    den = level_theta(2, 1, z, tau) - level_theta(2, -1, z, tau)
    if abs(den) < POLE_EPS:
        raise DenominatorVanishes(f"affine character denominator vanishes at z = {_z(z)}")
    num = level_theta(k + 2, a, z, tau) - level_theta(k + 2, -a, z, tau)
    return num / den


# -- spectral flow -------------------------------------------------------------


@dataclass(frozen=True)
class FlowOffset:
    """z-offset const + tau_coeff * tau attached to a sector by spectral flow."""

    const: Fraction
    tau_coeff: Fraction

    def at(self, tau) -> complex:
        return float(self.const) + float(self.tau_coeff) * _tau(tau)

    def __sub__(self, other: "FlowOffset") -> "FlowOffset":
        return FlowOffset(self.const - other.const, self.tau_coeff - other.tau_coeff)

    def __eq__(self, other) -> bool:
        if isinstance(other, FlowOffset):
            return (self.const, self.tau_coeff) == (other.const, other.tau_coeff)
        if self.tau_coeff == 0:
            return self.const == other
        return NotImplemented


_FLOW = {
    "NS": FlowOffset(Fraction(0), Fraction(0)),
    "NStilde": FlowOffset(Fraction(1, 2), Fraction(0)),
    "R": FlowOffset(Fraction(0), Fraction(1, 2)),
    "Rtilde": FlowOffset(Fraction(1, 2), Fraction(1, 2)),
}


def spectral_flow_offset(sector: str) -> FlowOffset:
    """Sector z-offsets, NS unshifted: NS~ adds 1/2, R adds tau/2, R~ adds (1+tau)/2."""
    try:
        return _FLOW[sector]
    except KeyError:
        raise UnknownName(f"no sector {sector!r}") from None


# -- superconformal characters -------------------------------------------------


@dataclass(frozen=True)
class CharSpec:
    """Parameters of an N=4 character: kind, level, weight, isospin, sector.

    Massless (BPS) needs h = k/4 and 0 <= ell <= k/2; massive (non-BPS) needs
    h > k/4 and ell in {1/2, ..., k/2}.  Isospins live on the half-integer
    lattice.  Violations raise UnsupportedSpec.
    """

    kind: str
    k: int
    h: Fraction
    ell: Fraction
    sector: str = "Rtilde"

    def __post_init__(self):
        object.__setattr__(self, "h", Fraction(self.h))
        object.__setattr__(self, "ell", Fraction(self.ell))
        if self.kind not in ("massless_sum_form", "massless_mu_form", "massive"):
            raise UnsupportedSpec(f"unknown character kind {self.kind!r}")
        if self.sector not in SECTORS:
            raise UnsupportedSpec(f"unknown sector {self.sector!r}")
        if self.k < 1:
            raise UnsupportedSpec("level k must be a positive integer")
        if (2 * self.ell).denominator != 1:
            raise UnsupportedSpec(f"isospin {self.ell} is not a half-integer")
        quarter = Fraction(self.k, 4)
        if self.kind == "massive":
            if not self.h > quarter:
                raise UnsupportedSpec("massive representations need h > k/4")
            if not (Fraction(1, 2) <= self.ell <= Fraction(self.k, 2)):
                raise UnsupportedSpec("massive isospin must lie in {1/2, ..., k/2}")
        else:
            if self.h != quarter:
                raise UnsupportedSpec("massless representations need h = k/4")
            if not (0 <= self.ell <= Fraction(self.k, 2)):
                raise UnsupportedSpec("massless isospin must lie in {0, ..., k/2}")


def _theta11_sq_over_eta3(z: complex, t: complex) -> complex:
    th = jacobi_theta("11", z, t)
    return th * th / _eta_cubed(t)


def _massless_compact_sum(z: complex, t: complex) -> complex:
    """Printed one-variable form of the level-1, isospin-0 massless character
    (the tilded-Ramond sector): prefactor i theta_11(z)^2 / (theta_11(2z) eta^3)
    times sum_m q^{2m^2} e^{8 pi i m z} (1 + e^{2 pi i z} q^m)/(1 - e^{2 pi i z} q^m).
    """
    th2 = jacobi_theta("11", 2.0 * z, t)
    if abs(th2) < POLE_EPS:
        raise PoleAtArgument(f"theta_11(2z) vanishes at z = {z}")

    def summand(m: int) -> complex:
        y_qm = cmath.exp(1j * math.pi * (2.0 * z + 2.0 * t * m))
        den = 1.0 - y_qm
        if abs(den) < POLE_EPS * max(1.0, abs(y_qm)):
            raise PoleAtArgument(f"massless denominator vanishes at m = {m}, z = {z}")
        return cmath.exp(1j * math.pi * (4.0 * t * m * m + 8.0 * m * z)) * (1.0 + y_qm) / den

    total = summand(0)
    for direction in (1, -1):
        small_streak = 0
        m = direction
        while True:
            term = summand(m)
            total += term
            if abs(term) <= TAIL_EPS * (1.0 + abs(total)):
                small_streak += 1
                if small_streak >= 2:
                    break
            else:
                small_streak = 0
            m += direction
            if abs(m) > 200:
                raise QuadratureNonConvergence("massless character sum did not settle")
    return 1j / th2 * _theta11_sq_over_eta3(z, t) * total


def _massless_general_sum(k: int, ell: Fraction, w: complex, t: complex) -> complex:
    """Ramond-sector massless character evaluated literally at argument w:

        (i / theta_11(2w)) (theta_10(w)^2 / eta^3)
        sum_{eps=+-1} sum_m eps e^{4 pi i eps w ((k+1)m + ell)}
                      q^{(k+1)m^2 + 2 ell m} / (1 + e^{-2 pi i eps w} q^{-m})^2

    Other sectors are reached by shifting w.  Terms with m > 0 are rewritten
    to keep q^{-m} out of the numerator.
    """
    th2 = jacobi_theta("11", 2.0 * w, t)
    if abs(th2) < POLE_EPS:
        raise PoleAtArgument(f"theta_11(2w) vanishes at w = {w}")
    th10 = jacobi_theta("10", w, t)
    le = float(ell)

    def pair(m: int) -> complex:
        out = 0j
        for eps in (1, -1):
            q_exp = (k + 1) * m * m + 2.0 * le * m
            osc = 4.0 * eps * w * ((k + 1) * m + le)
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

    total = pair(0)
    for direction in (1, -1):
        small_streak = 0
        m = direction
        while True:
            term = pair(m)
            total += term
            if abs(term) <= TAIL_EPS * (1.0 + abs(total)):
                small_streak += 1
                if small_streak >= 2:
                    break
            else:
                small_streak = 0
            m += direction
            if abs(m) > 200:
                raise QuadratureNonConvergence("massless character sum did not settle")
    return 1j / th2 * th10 * th10 / _eta_cubed(t) * total


def superconformal_character(spec: CharSpec, z, tau) -> complex:
    """Evaluate an N=4 character.

    The closed formulas are written in the Ramond sector (massive, general
    massless) or the tilded-Ramond sector (the level-1 isospin-0 compact sum
    and the Lerch form); other sectors are evaluated by shifting z by the
    spectral-flow offset difference.
    """
    z = _z(z)
    t = _tau(tau)
    flow = spectral_flow_offset(spec.sector)

    if spec.kind == "massless_mu_form":
        if spec.k != 1 or spec.ell != 0:
            raise UnsupportedSpec("the Lerch form is the level-1, isospin-0 massless character")
        w = z + (flow - _FLOW["Rtilde"]).at(t)
        return _theta11_sq_over_eta3(w, t) * lerch_sum(w, t)

    if spec.kind == "massless_sum_form":
        if spec.k == 1 and spec.ell == 0:
            w = z + (flow - _FLOW["Rtilde"]).at(t)
            return _massless_compact_sum(w, t)
        w = z + (flow - _FLOW["R"]).at(t)
        return _massless_general_sum(spec.k, spec.ell, w, t)

    # massive
    w = z + (flow - _FLOW["R"]).at(t)
    exponent = spec.h - spec.ell ** 2 / (spec.k + 1) - Fraction(spec.k, 4)
    pref = cmath.exp(2j * math.pi * t * float(exponent))
    th10 = jacobi_theta("10", w, t)
    chi = affine_su2_character(spec.k - 1, spec.ell - Fraction(1, 2), w, t)
    return pref * th10 * th10 / _eta_cubed(t) * chi


# -- elliptic genera and the two-argument kernel ------------------------------


def _theta_quotient_sq(label: str, z: complex, t: complex) -> complex:
    num = jacobi_theta(label, z, t)
    den = jacobi_theta(label, 0.0, t)
    return (num / den) ** 2


def elliptic_genus(variant: str, z, tau) -> complex:
    """Elliptic genus as a sum of squared theta quotients.

    variant "k3": 8 [ (th10(z)/th10(0))^2 + (th00(z)/th00(0))^2 + (th01(z)/th01(0))^2 ]
    variant "decompactified": the last two terms only, coefficient 8
    variant "a1": the last two terms with coefficient 1/2
    """
    z = _z(z)
    t = _tau(tau)
    pair = _theta_quotient_sq("00", z, t) + _theta_quotient_sq("01", z, t)
    if variant == "k3":
        return 8.0 * (_theta_quotient_sq("10", z, t) + pair)
    if variant == "decompactified":
        return 8.0 * pair
    if variant == "a1":
        return 0.5 * pair
    raise UnknownName(f"no elliptic genus variant {variant!r}")


def lerch_difference(z, w, tau) -> complex:
    """theta_11(z)^2 / eta^3 * (mu(z; tau) - mu(w; tau)).

    Vanishes at w = z; at w equal to a half-period it collapses to a squared
    theta quotient.
    """
    z = _z(z)
    w = _z(w)
    t = _tau(tau)
    return _theta11_sq_over_eta3(z, t) * (lerch_sum(z, t) - lerch_sum(w, t))
