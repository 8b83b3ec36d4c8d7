"""Exact multiplicity tables in plain integers.

Multiplied by eta^3, each generating function of massive multiplicities is
an integer-power q-series in closed form.  With Jacobi's

    P = q^{-1/8} eta^3 = sum_{m>=0} (-1)^m (2m+1) q^{m(m+1)/2},

E_2 = 1 - 24 sum sigma(n) q^n and F = F_2^(2) = sum_{r>s>0, r-s odd} (-1)^r s q^{rs/2},

    k3:           P (2 - sum A_n q^n)      =  2 E_2(tau) - 48 F
    noncompact:  3P (2 - sum A_n^circ q^n) = -2 E_2(tau) + 8 E_2(2 tau) - 48 F
    ale:         6P sum ALE_n q^n          =    E_2(2 tau) - E_2(tau) + 12 F

The first is eta^3 H = -2 E_2 + 48 F_2^(2) for H = q^{-1/8}(-2 + sum A_n q^n)
(M. C. N. Cheng, K3 surfaces, N=4 dyons and the Mathieu group M24,
arXiv:1005.5415).  The second is the 2A-twined H_2A = H/3 - 16 Lambda_2/eta^3,
Lambda_2 = (2 E_2(2 tau) - E_2(tau))/12 (M. R. Gaberdiel, S. Hohenegger and
R. Volpato, Mathieu twining characters for K3, arXiv:1006.0221), and the
third is their difference over 16, ALE_n = (A_n - A_n^circ)/16.

So a table is one integer list per kind (a divisor sieve and one loop over
s, shared by all kinds) and one monic long division by P, which has O(sqrt N)
terms.  Nothing is rounded: the numerator must divide by 3 (noncompact) or 6
(ale) and the leading coefficient must be 2 (0 for ale), or
NonIntegralCoefficient is raised.  `multiplicity_series` hands the same
numbers out as a `QSeries`; `half_period_numerator` expands the Lambert-type
sums N_label with N_label/theta_label = mu(w; tau), the tests' oracle path.
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


def _eisenstein_parts(n_terms: int) -> tuple[list[int], list[int], list[int]]:
    """The coefficients of q^0, ..., q^{n_terms-1} in E_2(tau), E_2(2 tau) and F_2^(2)."""
    sigma = [0] * n_terms
    for d in range(1, n_terms):
        sigma[d::d] = [v + d for v in sigma[d::d]]
    e2 = [1] + [-24 * v for v in sigma[1:]]
    e2_double = [0] * n_terms
    e2_double[::2] = e2[:(n_terms + 1) // 2]
    f = [0] * n_terms
    s = 1
    while s * (s + 1) < 2 * n_terms:
        # r = s + 1, s + 3, ...: exponents rs/2 from s(s+1)/2 in steps of s, all with (-1)^r = (-1)^(s+1)
        c = s if s % 2 else -s
        f[s * (s + 1) // 2::s] = [v + c for v in f[s * (s + 1) // 2::s]]
        s += 1
    return e2, e2_double, f


# kind -> weights of E_2(tau), E_2(2 tau) and F in the numerator, its divisor, the leading coefficient
_KINDS = {"k3": (2, 0, -48, 1, 2), "noncompact": (-2, 8, -48, 3, 2), "ale": (-1, 1, 12, 6, 0)}


def _eta3_quotient(kind: str, n_terms: int) -> list[int]:
    """Coefficients of q^0, ..., q^{n_terms-1} of 2 - sum A_n q^n ("k3"), of 2 - sum A_n^circ q^n
    ("noncompact") or of sum ALE_n q^n ("ale"), by one long division by P, with their invariants checked."""
    if kind not in _KINDS:
        raise UnknownName(f"no multiplicity series of kind {kind!r}")
    if n_terms < 1:
        raise BeyondTruncation("truncation too small to read off the leading coefficient")
    a, b, c, divisor, leading = _KINDS[kind]
    quot = []
    for e2, e2_double, f in zip(*_eisenstein_parts(n_terms)):
        value, rest = divmod(a * e2 + b * e2_double + c * f, divisor)
        if rest:
            raise NonIntegralCoefficient(f"{kind} numerator at q^{len(quot)} is not divisible by {divisor}")
        quot.append(value)
    if quot[0] != leading:
        raise NonIntegralCoefficient(f"{kind} series leads with {quot[0]}, not {leading}")
    # P is monic: quot[k] -= sum_{e >= 1} p_e quot[k - e], in place
    divisor_terms = list(analytic._eta_cubed_terms(n_terms))[1:]
    for k in range(1, n_terms):
        acc = quot[k]
        for e, p in divisor_terms:
            if e > k:
                break
            acc -= p * quot[k - e]
        quot[k] = acc
    return quot


def multiplicity_series(kind: str, truncation: ExponentLike = DEFAULT_TRUNCATION) -> QSeries:
    """The generating function q^{-1/8}(2 - sum A_n q^n), known below truncation - 1/4.

    kind "k3" gives the A_n, "noncompact" the A_n^circ and "ale" their
    difference, -16 q^{-1/8} sum ALE_n q^n.  The q^{1/4} lost is the margin of
    a division by theta_10 = 2 q^{1/8}(1 + ...), kept so that no series moves.
    """
    trunc = FracExp.of(truncation).units24 - 6
    # the q^n term sits at 24n - 3 units: keep the n with 24n - 3 < trunc
    scale = -16 if kind == "ale" else 1
    quot = _eta3_quotient(kind, (trunc + 26) // 24)
    return QSeries._raw({24 * n - 3: Fraction(scale * c) for n, c in enumerate(quot)}, trunc)


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

    quot = _eta3_quotient(kind, n_max + 1)
    sign = 1 if kind == "ale" else -1
    return CoeffTable(kind, {n: sign * quot[n] for n in range(1, n_max + 1)}, n_max)


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
