"""Exact multiplicity tables in plain integers.

The generating function of the massive multiplicities is assembled from
Lambert-type sums at the three half-periods:

    h_2 = mu(1/2; tau)/eta,  h_3 = mu((1+tau)/2; tau)/eta,  h_4 = mu(tau/2; tau)/eta,

each exactly N_label/(eta theta_label) with N_label a Lambert numerator sum.
The numerators pair the summation index with its reflection so that only
geometric expansions in positive powers of q occur; for h_2 the fixed point
n = 0 contributes the exact rational 1/2.  The eta cancels, so

    Sigma      = 8 eta (h_2 + h_3 + h_4) = 8 sum N_label/theta_label = q^{-1/8} (2 - sum A_n q^n)
    Sigma^circ = 8 eta h_2               = 8 N_2/theta_10            = q^{-1/8} (2 - sum A_n^circ q^n)
    Sigma - Sigma^circ                   = 8 (N_3/theta_00 + N_4/theta_01) = -16 q^{-1/8} sum ALE_n q^n

In x = q^{1/2} each quotient is q^{-1/8} times an integer series over a
monic integer divisor with O(sqrt N) terms,

    8 N_2/theta_10 = q^{-1/8} 4 N_2 / T,   T = theta_10/(2 q^{1/8}) = sum_{m>=0} x^{m(m+1)},
    8 N_l/theta_l  = q^{-1/8} 8 q^{1/8} N_l / theta_l     (l = 3, 4: theta_00, theta_01 in x),

so a table is one sum of quotients per kind, each an integer long division
on plain lists: labels 2, 3, 4 for "k3", 2 for "noncompact" and 3, 4 for
"ale".  Nothing is rounded: the odd powers of x must cancel, the leading
coefficient must be 2 (0 without label 2, since labels 3 and 4 cancel at
q^{-1/8}) and the ALE sum must divide by 16, or NonIntegralCoefficient is
raised.  `half_period_numerator` and `multiplicity_series` hand the same
numbers out as exact `QSeries` for the public series API.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction

from . import analytic
from .analytic import CharSpec, elliptic_genus, jacobi_theta, lerch_difference, superconformal_character
from .errors import BeyondTruncation, NonIntegralCoefficient, SignViolation, UnknownName
from .qseries import DEFAULT_TRUNCATION, ExponentLike, FracExp, QSeries

__all__ = [
    "CoeffTable",
    "half_period_numerator",
    "multiplicity_series",
    "coeff_table",
    "decomposition_residual",
    "identity_check",
]

# numerator labels summed into each series
_QUOTIENTS = {"k3": (2, 3, 4), "noncompact": (2,), "ale": (3, 4)}


def _numerator_terms(label: int, limit: int) -> Iterator[tuple[int, int]]:
    """Terms (u, c) of the integer series 2 N_label = sum c q^{u/24}, u < limit, where N_label is

    label 2: sum_n q^{n(n+1)/2} / (1 + q^n)            (pairs n <-> -n, n=0 gives 1/2)
    label 3: sum_n q^{n^2/2 - 1/8} / (1 + q^{n-1/2})   (pairs n <-> 1-n)
    label 4: sum_n (-1)^n q^{n^2/2 - 1/8} / (1 - q^{n-1/2})

    Exponents u are in 1/24 units, and one u can occur more than once.
    """
    if label == 2:
        if limit > 0:
            yield 0, 1
        m = 1
        while 12 * m * (m + 1) < limit:  # exponent m(m+1)/2, geometric ratio q^m
            for j, u in enumerate(range(12 * m * (m + 1), limit, 24 * m)):
                yield u, 4 * (-1) ** j
            m += 1
    elif label in (3, 4):
        n = 1
        while 3 * (4 * n * n - 1) < limit:  # exponent n^2/2 - 1/8, geometric ratio q^{n - 1/2}
            outer = (-1) ** n if label == 4 else 1
            for j, u in enumerate(range(3 * (4 * n * n - 1), limit, 12 * (2 * n - 1))):
                yield u, 4 * outer * (1 if label == 4 else (-1) ** j)
            n += 1
    else:
        raise UnknownName(f"no half-period numerator labelled {label!r}")


def half_period_numerator(label: int, truncation: ExponentLike = DEFAULT_TRUNCATION) -> QSeries:
    """Exact expansion of the Lambert-type numerator sum N_label for h_label."""
    trunc = FracExp.of(truncation).units24
    coeffs: dict[int, Fraction] = {}
    for u, c in _numerator_terms(label, trunc):
        coeffs[u] = coeffs.get(u, 0) + Fraction(c, 2)
    return QSeries._raw(coeffs, trunc)


def _quotient(label: int, n_terms: int) -> list[int]:
    """First n_terms coefficients in x = q^{1/2} of q^{1/8} 8 N_label/theta_label."""
    # 2 N_2 times 2 over T; 2 N_l times 4 q^{1/8} over theta_00 or theta_01
    shift, scale = (0, 2) if label == 2 else (3, 4)
    quot = [0] * n_terms
    for u, c in _numerator_terms(label, 12 * n_terms - shift):
        k, off = divmod(u + shift, 12)
        if off:
            raise NonIntegralCoefficient(
                f"numerator term q^({Fraction(u, 24)}) of h_{label} is off the half-step lattice")
        quot[k] += scale * c
    if label == 2:  # T = sum_{m>=0} x^{m(m+1)}
        divisor = [(m * (m + 1), 1) for m in range(1, math.isqrt(n_terms) + 1)]
    else:  # theta_00, theta_01 = 1 + 2 sum_{n>=1} (+-1)^n x^{n^2}
        sign = -1 if label == 4 else 1
        divisor = [(n * n, 2 * sign ** n) for n in range(1, math.isqrt(n_terms) + 1)]
    # monic long division in place: quot[k] -= sum_j d_j quot[k - j]
    for k in range(1, n_terms):
        acc = quot[k]
        for j, d in divisor:
            if j > k:
                break
            acc -= d * quot[k - j]
        quot[k] = acc
    return quot


def _sigma(kind: str, n_terms: int) -> list[int]:
    """s_0, ..., s_{n_terms-1} of Sigma = q^{-1/8} sum s_k x^k, with its invariants checked."""
    if kind not in _QUOTIENTS:
        raise UnknownName(f"no multiplicity series of kind {kind!r}")
    if n_terms < 1:
        raise BeyondTruncation("truncation too small to read off the leading coefficient")
    sigma = [sum(column) for column in zip(*(_quotient(label, n_terms) for label in _QUOTIENTS[kind]))]
    for k in range(1, n_terms, 2):
        if sigma[k]:
            raise NonIntegralCoefficient(f"unexpected exponent q^({Fraction(12 * k - 3, 24)}) escaped cancellation")
    leading = 2 if 2 in _QUOTIENTS[kind] else 0
    if sigma[0] != leading:
        raise NonIntegralCoefficient(f"coefficient {sigma[0]} at q^(-1/8) is not {leading}")
    return sigma


def multiplicity_series(kind: str, truncation: ExponentLike = DEFAULT_TRUNCATION) -> QSeries:
    """The generating function q^{-1/8}(2 - sum A_n q^n), known below truncation - 1/4.

    kind "k3" sums all three half-period quotients N_label/theta_label, kind
    "noncompact" keeps only the label-2 piece and kind "ale" the label-3 and
    label-4 pieces, Sigma - Sigma^circ = -16 q^{-1/8} sum ALE_n q^n.  Dividing
    by theta_10 = 2 q^{1/8}(1 + ...) costs the series q^{1/4} of its
    truncation.  Every odd power of q^{1/2} must cancel and the leading
    coefficient must be 2 (0 for "ale"); anything else raises
    NonIntegralCoefficient.
    """
    trunc = FracExp.of(truncation).units24 - 6
    # s_k x^k sits at q^{k/2 - 1/8}, i.e. 12k - 3 units: keep the k with 12k - 3 < trunc
    sigma = _sigma(kind, (trunc + 14) // 12)
    return QSeries._raw({12 * k - 3: Fraction(c) for k, c in enumerate(sigma)}, trunc)


class CoeffTable(namedtuple("CoeffTable", "kind values n_max")):
    """Integer multiplicity table: values[n] for 1 <= n <= n_max.

    kind "k3" values are positive; "ale" values are positive (sixteenths of
    the difference); "noncompact" values have the sign (-1)^n at every
    tabulated n, the sign of the dominant c = 2 term of their series.  The
    constructor checks the sign of every value.
    """

    __slots__ = ()

    def __new__(cls, kind: str, values: dict[int, int], n_max: int):
        if kind == "k3" and any(v <= 0 for v in values.values()):
            raise SignViolation("compact multiplicities must be positive")
        if kind == "ale" and any(v <= 0 for v in values.values()):
            raise SignViolation("ALE multiplicities must be positive")
        if kind == "noncompact":
            for n, v in values.items():
                if v * (-1) ** n <= 0:
                    raise SignViolation(f"noncompact sign pattern broken at n = {n}")
        return super().__new__(cls, kind, values, n_max)


def coeff_table(kind: str, n_max: int, truncation: ExponentLike | None = None) -> CoeffTable:
    """Extract the exact integer tables A_n, A_n^circ or (A_n - A_n^circ)/16.

    A truncation, if given, must leave q^{n_max - 1/8} known in
    multiplicity_series; the tables themselves do not depend on it.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if truncation is not None and FracExp.of(truncation).units24 - 6 <= 24 * n_max - 3:
        raise BeyondTruncation(f"truncation too small to read off n = {n_max}")

    sigma = _sigma(kind, 2 * n_max + 1)
    scale = 16 if kind == "ale" else 1
    values = {}
    for n in range(1, n_max + 1):
        values[n], rest = divmod(-sigma[2 * n], scale)
        if rest:
            raise NonIntegralCoefficient(f"ALE coefficient at n = {n} is not divisible by 16")
    return CoeffTable(kind, values, n_max)


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
        kind, scale = "k3", 1
    elif variant == "decompactified":
        model += 16.0 * _massless(Fraction(0), z, tau)
        kind, scale = "ale", 16
    else:
        raise UnknownName(f"no decomposition variant {variant!r}")
    weights = coeff_table(kind, n_terms).values if n_terms else {}
    for n, a_n in weights.items():
        model += scale * a_n * _massive(n, z, tau)
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
