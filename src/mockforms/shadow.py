"""Verification of the completion/shadow structure.

The completion of the multiplicity generating function transforms with the
same weight-1/2 multiplier system that the exact coefficient series is built
from, and its anti-holomorphic derivative is (up to normalisation) the cusp
form 24 eta(8 tau)^3.  This module checks all of that numerically:

* shadow_coefficient sums the convergent J-Bessel/Kloosterman series for the
  q^{8n+1} coefficients of the derivative and compares against the exact
  integer pattern 24, -72, 120, -168, ... at square exponents (2m+1)^2.
* multiplicity_completion evaluates the completed sum 8 sum_w mu_hat(w; tau)
  and exposes its modular transformation residuals to the tests.
* holomorphic_anomaly_residual / laplacian_residual verify the defining
  differential equations of the completion by finite differences.
* poincare_partial_sum computes a raw coset-sum approximation of the
  associated Poincare-Maass series.  It is quarantined as experimental: at
  spectral parameter 3/4 the double sum converges only through phase
  cancellation, so direct summation is a weak (loose-tolerance) check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from .analytic import (
    WhittakerClosed,
    _tau,
    bessel_half,
    dedekind_eta,
    lerch_completion,
    lerch_sum,
    nonholomorphic_correction,
    whittaker_closed,
)
from .errors import UnknownName
from .qseries import FracExp, eta_cubed_series
from .rademacher import _dedekind_euclid, kloosterman_quadratic

__all__ = [
    "ShadowCoeff",
    "shadow_coefficient",
    "shadow_reference_coefficients",
    "multiplicity_completion",
    "multiplier_system",
    "holomorphic_anomaly_residual",
    "laplacian_residual",
    "poincare_partial_sum",
]


@dataclass(frozen=True)
class ShadowCoeff:
    """Computed coefficient of q^{8n+1} in the shadow series (real by pairing)."""

    n: int
    c_max: int
    value: float


def shadow_coefficient(n: int, c_max: int) -> ShadowCoeff:
    """Coefficient of q^{8n+1} in the anti-holomorphic derivative series:

        2 delta_{n,0} + (8n+1)^{1/4} sum_{c<=c_max} (4 pi / c)
            J_{1/2}(pi sqrt(8n+1) / (2c)) sum_d e^{3 pi i s(d,c) + 2 pi i d n / c}.

    The inner sum is the conjugate of the multiplier sum at -n, which is
    real, so it is kloosterman_quadratic(-n, c).  Converges to the exact
    reference (a multiple of 24) at square exponents and to zero elsewhere,
    though noticeably slower than the I-Bessel series.
    """
    if n < 0 or c_max < 1:
        raise ValueError("n must be nonnegative and c_max positive")
    root = math.pi * math.sqrt(8.0 * n + 1.0)
    terms = []
    for c in range(1, c_max + 1):
        bessel = bessel_half("J", root / (2.0 * c))
        terms.append(4.0 * math.pi / c * bessel * kloosterman_quadratic(-n, c))
    value = (2.0 if n == 0 else 0.0) + (8.0 * n + 1.0) ** 0.25 * math.fsum(terms)
    return ShadowCoeff(n=n, c_max=c_max, value=value)


def shadow_reference_coefficients(max_exponent: int) -> dict[int, int]:
    """Exact coefficients of 24 eta(8 tau)^3 at exponents 1, 9, 17, ... (mod 8).

    Nonzero only at odd squares (2m+1)^2, where the value is 24 (-1)^m (2m+1).
    """
    if max_exponent < 1:
        raise ValueError("max_exponent must be positive")
    cube = eta_cubed_series(FracExp(3 * (max_exponent + 1))).substitute_qm(8)
    out = {}
    exponent = 1
    while exponent <= max_exponent:
        out[exponent] = int(24 * cube.coefficient(exponent))
        exponent += 8
    return out


def multiplicity_completion(tau, kind: str = "k3") -> complex:
    """8 sum over half-periods of mu_hat (kind "k3"), or 8 mu_hat(1/2) ("noncompact")."""
    t = _tau(tau)
    if kind == "k3":
        half_periods = (0.5 + 0j, 0.5 * (1.0 + t), 0.5 * t)
        correction = 1.5 * nonholomorphic_correction(t, "sum")
        return 8.0 * (sum(lerch_sum(w, t) for w in half_periods) - correction)
    if kind == "noncompact":
        return 8.0 * lerch_completion(0.5, t)
    raise UnknownName(f"no completion of kind {kind!r}")


def multiplier_system(gamma: tuple[int, int, int, int]) -> complex:
    """The unit-modulus automorphy factor chi(gamma) of the completion:

        c > 0:        i^{3/2} e^{-(a+d) pi i/(4c) + 3 pi i s(d,c)}
        c = 0, d = 1: e^{-b pi i / 4}

    The exponent is reduced mod 2 in exact rational arithmetic first.
    """
    a, b, c, d = gamma
    if a * d - b * c != 1:
        raise ValueError("gamma must have determinant 1")
    if c == 0 and d == 1:
        return cmath.exp(-1j * math.pi * b / 4.0)
    if c <= 0:
        raise ValueError("multiplier is defined for c > 0 (or c = 0, d = 1)")
    phase = (Fraction(3, 4) - Fraction(a + d, 4 * c) + 3 * _dedekind_euclid(d, c)) % 2
    return cmath.exp(1j * math.pi * float(phase))


# -- finite-difference verification of the differential equations ------------


def _shadow_side(tau: complex) -> complex:
    """(i/2) eta(-conj(tau))^3 / sqrt(2 Im tau), the target of d/d conj(tau)."""
    e = dedekind_eta(-tau.conjugate())
    return 0.5j * e * e * e / math.sqrt(2.0 * tau.imag)


def _dbar(f, tau: complex, h: float) -> complex:
    """Central-difference (d/du + i d/dv)/2 of f at tau."""
    du = (f(tau + h) - f(tau - h)) / (2.0 * h)
    dv = (f(tau + 1j * h) - f(tau - 1j * h)) / (2.0 * h)
    return 0.5 * (du + 1j * dv)


def holomorphic_anomaly_residual(z, tau, h: float = 1e-4) -> float:
    """|d/d conj(tau) of the completion - (i/2) eta(-conj tau)^3 / sqrt(2 v)|.

    Second order in h; the default step leaves residuals well under 1e-5.
    """
    t = _tau(tau)
    return abs(_dbar(lambda s: lerch_completion(z, s), t, h) - _shadow_side(t))


def laplacian_residual(z, tau, h: float = 1e-3, test_fn=None) -> float:
    """|Delta_{1/2} f| via the 5-point stencil at tau, f defaulting to the completion.

    Delta_k = -v^2 (d^2/du^2 + d^2/dv^2) + i k v (d/du + i d/dv).  The
    completion is annihilated; pass an anti-holomorphic test_fn to see a
    nonzero control value.  (Holomorphic functions are annihilated by Delta_k
    identically, so they make no control at all.)
    """
    t = _tau(tau)
    f = test_fn if test_fn is not None else (lambda s: lerch_completion(z, s))
    v = t.imag
    f0 = f(t)
    fu_p, fu_m = f(t + h), f(t - h)
    fv_p, fv_m = f(t + 1j * h), f(t - 1j * h)
    lap = (fu_p - 2.0 * f0 + fu_m) / (h * h) + (fv_p - 2.0 * f0 + fv_m) / (h * h)
    first = (fu_p - fu_m) / (2.0 * h) + 1j * (fv_p - fv_m) / (2.0 * h)
    return abs(-v * v * lap + 0.5j * v * first)


# -- direct Poincare-type coset sum (experimental) ----------------------------


def _phi_seed(tau: complex) -> complex:
    """The growth envelope M(-pi v / 2) e^{-pi i u / 4} seeding the coset sum."""
    v = whittaker_closed(WhittakerClosed("M_minus", 0.5 * math.pi * tau.imag))
    return v * cmath.exp(-0.25j * math.pi * tau.real)


def poincare_partial_sum(tau, c_bound: int, kind: str = "k3") -> complex:
    """Raw coset-sum approximation of the weight-1/2 Poincare-Maass series.

    Sums (2/sqrt(pi)) chi(gamma)^{-1} (c tau + d)^{-1/2} phi(gamma tau) over
    coset representatives with 0 <= c <= c_bound (even c only for
    "noncompact"), pairing +-gamma.  The d-window per modulus covers whole
    phase periods of length 8c, which is what makes the oscillatory tail
    cancel; agreement with multiplicity_completion is still only expected at
    the 1e-2 level.  Experimental.
    """
    t = _tau(tau)
    if kind == "k3":
        moduli = range(1, c_bound + 1)
    elif kind == "noncompact":
        moduli = range(2, c_bound + 1, 2)
    else:
        raise UnknownName(f"no coset family of kind {kind!r}")
    total = 4.0 / math.sqrt(math.pi) * _phi_seed(t)
    for c in moduli:
        blocks = max(4, -(-9600 // (8 * c)))  # ceil division; window >= ~9600
        center = round(-c * t.real)
        width = 4 * c * blocks
        inverses = {}
        for d0 in range(c) if c == 1 else range(1, c):
            if math.gcd(d0, c) == 1:
                inverses[d0] = pow(d0, -1, c)
        s_values = {d0: _dedekind_euclid(d0, c) if c > 1 else Fraction(0) for d0 in inverses}
        parts = []
        for d in range(center - width, center + width):
            d0 = d % c
            a = inverses.get(d0)
            if a is None:
                continue
            phase = (Fraction(3, 4) - Fraction(a + d, 4 * c) + 3 * s_values[d0]) % 2
            chi = cmath.exp(1j * math.pi * float(phase))
            gamma_tau = a / c - 1.0 / (c * (c * t + d))
            parts.append(cmath.sqrt(c * t + d) ** -1 * _phi_seed(gamma_tau) / chi)
        total += 4.0 / math.sqrt(math.pi) * sum(parts)
    return total
