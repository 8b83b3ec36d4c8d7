"""Verification of the completion/shadow structure.

The completion of the multiplicity generating function transforms with the
same weight-1/2 multiplier system that the exact coefficient series is built
from, and its anti-holomorphic derivative is (up to normalisation) the cusp
form 24 eta(8 tau)^3.  This module checks all of that numerically:

* shadow_coefficient sums the J-Bessel series that rademacher._series forms for
  the q^{8n+1} coefficients of the derivative, to be compared against the exact
  integer pattern 24, -72, 120, -168, ... at square exponents (2m+1)^2.
  shadow_reference_coefficients writes that pattern down from Jacobi's
  identity eta^3 = sum_m (-1)^m (2m+1) q^{(2m+1)^2/8}, in plain integers.
* multiplicity_completion evaluates the completed sum 8 sum_w mu_hat(w; tau)
  and exposes its modular transformation residuals to the tests.  At the
  SL2(Z)-reduced point tau' it needs no Lerch sum: there
  8 sum_w mu(w; tau') = q'^{-1/8} (2 - sum_n A_n q'^n), |q'| <= e^{-pi sqrt 3},
  and ten exact A_n leave a tail below 1.0e-20.
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
from collections import namedtuple
from fractions import Fraction
from .analytic import (
    _correction,
    _eta_cubed_terms,
    _record,
    _scaled,
    _tau,
    dedekind_eta,
    lerch_completion,
)
from .rademacher import _dedekind_euclid, _series

__all__ = [
    "ShadowCoeff",
    "shadow_coefficient",
    "shadow_reference_coefficients",
    "multiplicity_completion",
    "multiplier_system",
    "holomorphic_anomaly_residual",
    "laplacian_residual",
]


class ShadowCoeff(namedtuple("ShadowCoeff", "n c_max value")):
    """Computed coefficient of q^{8n+1} in the shadow series (real by pairing)."""

    __slots__ = ()


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
    value = (2.0 if n == 0 else 0.0) + (8.0 * n + 1.0) ** 0.25 * math.fsum(_series("shadow", n, c_max)[1])
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
    for e, c in _eta_cubed_terms((max_exponent + 7) // 8):  # (2m+1)^2 = 8 e + 1 <= max_exponent
        out[8 * e + 1] = 24 * c
    return out


# A_1, ..., A_10 (characters.coeff_table("k3", 10)).  At the reduced point
# |q'| <= e^{-pi sqrt 3} ~ 4.33e-3, where sum_{n > 10} A_n |q'|^n <= 1.0e-20.
_A_HEAD = (90, 462, 1540, 4554, 11592, 27830, 61686, 131100, 265650, 521136)


def multiplicity_completion(tau) -> complex:
    """8 sum of mu_hat over the half-periods 1/2, (1 + tau)/2, tau/2.

    Evaluated at the SL2(Z)-reduced point tau', with the multiplier of
    mu_hat (analytic._walk_factor), which carries the half-periods of
    tau to those of tau'; both come from tau's record, and R(tau') from
    its cache.  There

        8 sum_w mu_hat(w; tau') = q'^{-1/8} (2 - sum_{n>=1} A_n q'^n) - 12 R(tau')

    with the exact multiplicities A_n; ten terms leave a tail below 1.0e-20
    (|q'| <= e^{-pi sqrt 3}), far below the 2 they are subtracted from.
    """
    rec = _record(_tau(tau))
    t_red = rec.steps[-1][1]
    q = cmath.exp(2j * math.pi * t_red)
    series = 0j
    for a in reversed(_A_HEAD):
        series = (series + a) * q
    holomorphic = _scaled(-0.25j * math.pi * t_red, 2.0 - series)
    return rec.factor * (holomorphic - 12.0 * _correction(t_red))


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


def _laplacian(f, t: complex, h: float) -> complex:
    """Delta_{1/2} f at tau by the 5-point stencil.

    Delta_k = -v^2 (d^2/du^2 + d^2/dv^2) + i k v (d/du + i d/dv).
    Holomorphic functions are annihilated by Delta_k identically, so only an
    anti-holomorphic f makes a nonzero control.
    """
    v = t.imag
    f0 = f(t)
    fu_p, fu_m = f(t + h), f(t - h)
    fv_p, fv_m = f(t + 1j * h), f(t - 1j * h)
    lap = (fu_p - 2.0 * f0 + fu_m) / (h * h) + (fv_p - 2.0 * f0 + fv_m) / (h * h)
    first = (fu_p - fu_m) / (2.0 * h) + 1j * (fv_p - fv_m) / (2.0 * h)
    return -v * v * lap + 0.5j * v * first


def laplacian_residual(z, tau, h: float = 1e-3) -> float:
    """|Delta_{1/2} of the completion mu_hat(z; .)| at tau, which annihilates it.

    Second order in h, by the 5-point stencil (_laplacian).
    """
    return abs(_laplacian(lambda s: lerch_completion(z, s), _tau(tau), h))
