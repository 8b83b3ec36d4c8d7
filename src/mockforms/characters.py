"""Exact q-expansion pipeline for the multiplicity tables.

The generating function of the massive multiplicities is assembled from
Lambert-type sums at the three half-periods:

    h_2 = mu(1/2; tau)/eta,  h_3 = mu((1+tau)/2; tau)/eta,  h_4 = mu(tau/2; tau)/eta,

each exactly N_label/(eta theta_label) with N_label a Lambert numerator sum.
The numerators pair the summation index with its reflection so that only
geometric expansions in positive powers of q occur; for h_2 the fixed point
n = 0 contributes the exact rational 1/2.  The eta cancels, so

    Sigma      = 8 eta (h_2 + h_3 + h_4) = 8 sum N_label/theta_label = q^{-1/8} (2 - sum A_n q^n)
    Sigma^circ = 8 eta h_2               = 8 N_2/theta_10            = q^{-1/8} (2 - sum A_n^circ q^n)

and each table is a few exact divisions by theta constants of O(sqrt N) terms
(kind "ale" extracts (A_n - A_n^circ)/16).  All arithmetic is rational;
integrality and the leading 2 are asserted, never rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import analytic
from .analytic import CharSpec, elliptic_genus, jacobi_theta, lerch_difference, superconformal_character
from .errors import BeyondTruncation, NonIntegralCoefficient, SignViolation, UnknownName
from .qseries import (
    DEFAULT_TRUNCATION,
    ExponentLike,
    FracExp,
    QSeries,
    theta_constant_series,
)

__all__ = [
    "CoeffTable",
    "half_period_numerator",
    "multiplicity_series",
    "coeff_table",
    "decomposition_residual",
    "identity_check",
]

# (numerator label, theta constant) of each quotient N_label/theta_label
_QUOTIENTS = {"k3": ((2, "10"), (3, "00"), (4, "01")), "noncompact": ((2, "10"),)}


def half_period_numerator(label: int, truncation: ExponentLike = DEFAULT_TRUNCATION) -> QSeries:
    """Exact expansion of the Lambert-type numerator sum for h_label.

    label 2: sum_n q^{n(n+1)/2} / (1 + q^n)            (pairs n <-> -n, n=0 gives 1/2)
    label 3: sum_n q^{n^2/2 - 1/8} / (1 + q^{n-1/2})   (pairs n <-> 1-n)
    label 4: sum_n (-1)^n q^{n^2/2 - 1/8} / (1 - q^{n-1/2})
    """
    trunc = FracExp.of(truncation).units24
    coeffs: dict[int, Fraction] = {}

    def bump(units: int, value: Fraction) -> None:
        if units < trunc:
            coeffs[units] = coeffs.get(units, Fraction(0)) + value

    if label == 2:
        bump(0, Fraction(1, 2))
        m = 1
        while 12 * m * (m + 1) < trunc:  # exponent m(m+1)/2
            base = 12 * m * (m + 1)
            j = 0
            while base + 24 * m * j < trunc:
                bump(base + 24 * m * j, Fraction(2 * (-1) ** j))
                j += 1
            m += 1
    elif label in (3, 4):
        n = 1
        while 3 * (4 * n * n - 1) < trunc:  # exponent n^2/2 - 1/8
            base = 3 * (4 * n * n - 1)
            step = 12 * (2 * n - 1)  # geometric ratio q^{n - 1/2}
            outer = (-1) ** n if label == 4 else 1
            j = 0
            while base + step * j < trunc:
                inner = 1 if label == 4 else (-1) ** j
                bump(base + step * j, Fraction(2 * outer * inner))
                j += 1
            n += 1
    else:
        raise UnknownName(f"no half-period numerator labelled {label!r}")
    return QSeries._raw(coeffs, trunc)


def multiplicity_series(kind: str, truncation: ExponentLike = DEFAULT_TRUNCATION) -> QSeries:
    """The generating function q^{-1/8}(2 - sum A_n q^n).

    kind "k3" sums all three half-period quotients N_label/theta_label, kind
    "noncompact" keeps only the label-2 piece.  Every coefficient must come
    out an exact integer and sit at an exponent n - 1/8, and the leading one
    must be 2; anything else raises NonIntegralCoefficient.
    """
    if kind not in _QUOTIENTS:
        raise UnknownName(f"no multiplicity series of kind {kind!r}")
    sigma = QSeries.zero(truncation)
    for label, theta in _QUOTIENTS[kind]:
        sigma += half_period_numerator(label, truncation) / theta_constant_series(theta, truncation)
    sigma = 8 * sigma
    for exp, value in sigma.items():
        if value.denominator != 1:
            raise NonIntegralCoefficient(f"coefficient {value} at q^({exp}) is not an integer")
        if exp.units24 % 24 != 21:
            raise NonIntegralCoefficient(f"unexpected exponent q^({exp}) escaped cancellation")
    if sigma.truncation > FracExp(-3) and (lead := sigma.coefficient(FracExp(-3))) != 2:
        raise NonIntegralCoefficient(f"coefficient {lead} at q^(-1/8) is not 2")
    return sigma


@dataclass(frozen=True)
class CoeffTable:
    """Integer multiplicity table: values[n] for 1 <= n <= n_max.

    kind "k3" values are positive; "ale" values are positive (sixteenths of
    the difference); "noncompact" values alternate in sign on the tabulated
    range n <= 10.
    """

    kind: str
    values: dict[int, int]
    n_max: int

    def __post_init__(self):
        if self.kind == "k3" and any(v <= 0 for v in self.values.values()):
            raise SignViolation("compact multiplicities must be positive")
        if self.kind == "ale" and any(v <= 0 for v in self.values.values()):
            raise SignViolation("ALE multiplicities must be positive")
        if self.kind == "noncompact":
            for n in range(1, min(self.n_max, 10) + 1):
                if self.values[n] * (-1) ** n <= 0:
                    raise SignViolation(f"noncompact sign pattern broken at n = {n}")


def coeff_table(kind: str, n_max: int, truncation: ExponentLike | None = None) -> CoeffTable:
    """Extract the exact integer tables A_n, A_n^circ or (A_n - A_n^circ)/16."""
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if truncation is None:
        truncation = FracExp(24 * (n_max + 2))
    if FracExp.of(truncation).units24 <= 24 * n_max - 3:
        raise BeyondTruncation(f"truncation too small to read off n = {n_max}")

    def table(series_kind: str) -> dict[int, int]:
        sigma = multiplicity_series(series_kind, truncation)
        out = {}
        for n in range(1, n_max + 1):
            out[n] = -int(sigma.coefficient(Fraction(n) - Fraction(1, 8)))
        return out

    if kind in ("k3", "noncompact"):
        return CoeffTable(kind, table(kind), n_max)
    if kind == "ale":
        compact = table("k3")
        noncompact = table("noncompact")
        values = {}
        for n in range(1, n_max + 1):
            diff = compact[n] - noncompact[n]
            if diff % 16:
                raise NonIntegralCoefficient(f"difference of the two tables at n = {n} is not divisible by 16")
            values[n] = diff // 16
        return CoeffTable("ale", values, n_max)
    raise UnknownName(f"no coefficient table of kind {kind!r}")


# -- numeric verification -------------------------------------------------


def _massless(ell: Fraction, z, tau) -> complex:
    return superconformal_character(
        CharSpec("massless_sum_form", 1, Fraction(1, 4), ell, "Rtilde"), z, tau)


def _massive(n: int, z, tau) -> complex:
    return superconformal_character(
        CharSpec("massive", 1, Fraction(1, 4) + n, Fraction(1, 2), "Rtilde"), z, tau)


def decomposition_residual(z, tau, n_terms: int, variant: str = "k3") -> float:
    """Absolute defect of the genus against its truncated character sum.

    variant "k3":              20 ch_{l=0} - 2 ch_{l=1/2} + sum A_n ch_massive
    variant "decompactified":  16 ch_{l=0} + sum (A_n - A_n^circ) ch_massive

    The residual is the tail of a convergent q-series, so it decreases
    essentially like |q|^{n_terms + 7/8}.
    """
    if n_terms < 0:
        raise ValueError("n_terms must be nonnegative")
    genus = elliptic_genus(variant, z, tau)
    model = 0j
    if variant == "k3":
        model += 20.0 * _massless(Fraction(0), z, tau) - 2.0 * _massless(Fraction(1, 2), z, tau)
        weights = coeff_table("k3", n_terms).values if n_terms else {}
    elif variant == "decompactified":
        model += 16.0 * _massless(Fraction(0), z, tau)
        if n_terms:
            compact = coeff_table("k3", n_terms).values
            circ = coeff_table("noncompact", n_terms).values
            weights = {n: compact[n] - circ[n] for n in compact}
        else:
            weights = {}
    else:
        raise UnknownName(f"no decomposition variant {variant!r}")
    for n, a_n in weights.items():
        model += a_n * _massive(n, z, tau)
    return abs(genus - model)


_HALF_PERIOD_LABELS = (("10", Fraction(1, 2), Fraction(0)),
                       ("00", Fraction(1, 2), Fraction(1, 2)),
                       ("01", Fraction(0), Fraction(1, 2)))


def identity_check(name: str, z, tau) -> float:
    """Absolute residual of a named identity at (z, tau).

    half_period_sq: the two-argument kernel at each half-period equals the
        squared theta quotient (worst of the three).
    J_vanish:       the kernel vanishes at coinciding arguments.
    recursion:      ch_{l=1/2} + 2 ch_{l=0} = q^{-1/8} theta_11(z)^2 / eta^3.
    genus_at_zero:  the compact genus evaluates to 24 at z = 0.
    """
    t = analytic._tau(tau)
    if name == "half_period_sq":
        worst = 0.0
        for label, c0, c1 in _HALF_PERIOD_LABELS:
            w = float(c0) + float(c1) * t
            quotient = (jacobi_theta(label, z, t) / jacobi_theta(label, 0.0, t)) ** 2
            worst = max(worst, abs(lerch_difference(z, w, t) - quotient))
        return worst
    if name == "J_vanish":
        return abs(lerch_difference(z, z, t))
    if name == "recursion":
        import cmath
        th = jacobi_theta("11", z, t)
        rhs = cmath.exp(-2j * math.pi * t / 8.0) * th * th / analytic._eta_cubed(t)
        return abs(_massless(Fraction(1, 2), z, t) + 2.0 * _massless(Fraction(0), z, t) - rhs)
    if name == "genus_at_zero":
        return abs(elliptic_genus("k3", 0.0, t) - 24.0)
    raise UnknownName(f"no identity named {name!r}")
