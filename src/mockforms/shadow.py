"""Verification of the completion/shadow structure.

The completion of the multiplicity generating function transforms with the
same weight-1/2 multiplier system that the exact coefficient series is built
from, and its anti-holomorphic derivative is (up to normalisation) the cusp
form 24 eta(8 tau)^3.  This module checks all of that numerically:

* shadow_coefficient sums the convergent J-Bessel/Kloosterman series for the
  q^{8n+1} coefficients of the derivative, to be compared against the exact
  integer pattern 24, -72, 120, -168, ... at square exponents (2m+1)^2.
  shadow_reference_coefficients writes that pattern down from Jacobi's
  identity eta^3 = sum_m (-1)^m (2m+1) q^{(2m+1)^2/8}, in plain integers.
* multiplicity_completion evaluates the completed sum 8 sum_w mu_hat(w; tau)
  and exposes its modular transformation residuals to the tests.
* holomorphic_anomaly_residual / laplacian_residual verify the defining
  differential equations of the completion by finite differences.

The associated Poincare-Maass series enters through its Fourier
coefficients: shadow_coefficient here and rademacher.exact_coefficient,
which are checked against exact integers.  Its raw coset sum is not
evaluated: truncated, it does not converge (at spectral parameter 3/4 it
converges only through phase cancellation).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from .analytic import (
    _completion_walk,
    _lerch_direct,
    _scaled,
    _tau,
    bessel_half,
    dedekind_eta,
    lerch_completion,
    nonholomorphic_correction,
)
from .errors import UnknownName
from .rademacher import _dedekind_euclid, _quadratic_sums

__all__ = [
    "ShadowCoeff",
    "shadow_coefficient",
    "shadow_reference_coefficients",
    "multiplicity_completion",
    "multiplier_system",
    "holomorphic_anomaly_residual",
    "laplacian_residual",
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
    moduli = range(1, c_max + 1)
    terms = [4.0 * math.pi / c * bessel_half("J", root / (2.0 * c)) * kloosterman
             for c, kloosterman in zip(moduli, _quadratic_sums(-n, moduli))]
    value = (2.0 if n == 0 else 0.0) + (8.0 * n + 1.0) ** 0.25 * math.fsum(terms)
    return ShadowCoeff(n=n, c_max=c_max, value=value)


def shadow_reference_coefficients(max_exponent: int) -> dict[int, int]:
    """Exact coefficients of 24 eta(8 tau)^3 at exponents 1, 9, 17, ... (mod 8).

    Jacobi's identity eta(tau)^3 = sum_{m>=0} (-1)^m (2m+1) q^{(2m+1)^2/8}
    makes them nonzero only at odd squares (2m+1)^2, where the value is
    24 (-1)^m (2m+1).
    """
    if max_exponent < 1:
        raise ValueError("max_exponent must be positive")
    out = dict.fromkeys(range(1, max_exponent + 1, 8), 0)
    m = 0
    while (2 * m + 1) ** 2 <= max_exponent:
        out[(2 * m + 1) ** 2] = 24 * (-1) ** m * (2 * m + 1)
        m += 1
    return out


def _completion_sum(t: complex) -> complex:
    """8 sum over the half-periods w of mu(w; tau) - R(tau)/2, by the direct sums at tau."""
    half_periods = (0.5 + 0j, 0.5 * (1.0 + t), 0.5 * t)
    correction = 1.5 * nonholomorphic_correction(t, "sum")
    return 8.0 * (sum(_scaled(*_lerch_direct(w, t)) for w in half_periods) - correction)


def multiplicity_completion(tau, kind: str = "k3") -> complex:
    """8 sum over half-periods of mu_hat (kind "k3"), or 8 mu_hat(1/2) ("noncompact").

    Both are evaluated at the SL2(Z)-reduced point, with the multiplier of
    mu_hat (analytic._completion_walk).
    """
    t = _tau(tau)
    if kind == "k3":
        # the half-periods of tau go to those of tau', so the sum has the
        # multiplier of each mu_hat
        factor, _, t_red = _completion_walk(0j, t)
        return factor * _completion_sum(t_red)
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
