"""Exact formal power series in q with exponents on the 1/24 lattice.

Every exponent that occurs in this problem (1/24 from eta, 1/8 from theta
characteristics and the q^{-1/8} prefactor, half-integers from theta
constants, integers from Lambert sums) is a multiple of 1/24, so exponents
are stored as integer counts of 1/24 units and never touch floating point.
Coefficients are `fractions.Fraction`.

The package builds only closed forms and integer data here: eta by Euler's
pentagonal theorem, the partition numbers (read by `pofn` and the
acceptance criteria) by his pentagonal recurrence on plain integers, and
the theta constants; `characters` hands its integer tables out as `QSeries`
views.  No code in the package multiplies or divides series.  The ring
(`+`, `-`, `*`, `/`, `invert`) and `evaluate` stay as the tests' independent
oracle (`Fraction` long division against the integer tables, numeric sums
against the analytic layer), and the benchmark tracer wraps `invert` and
`*` by name.

A series carries an explicit truncation: it represents its stored terms plus
an unknown tail O(q^truncation).  Arithmetic propagates the tightest
truncation the operands support.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Union

from .errors import BeyondTruncation, UnknownName, ZeroLeadingCoefficient

__all__ = [
    "FracExp",
    "QSeries",
    "DEFAULT_TRUNCATION",
    "eta_series",
    "partition_series",
    "theta_constant_series",
]

ExponentLike = Union["FracExp", int, Fraction]


@dataclass(frozen=True, order=True)
class FracExp:
    """An exact exponent value units24/24."""

    units24: int

    @staticmethod
    def of(value: ExponentLike) -> "FracExp":
        """Coerce an int (full power of q) or Fraction to the 1/24 lattice."""
        if isinstance(value, FracExp):
            return value
        if isinstance(value, int):
            return FracExp(24 * value)
        if isinstance(value, Fraction):
            units = value * 24
            if units.denominator != 1:
                raise ValueError(f"exponent {value} is not a multiple of 1/24")
            return FracExp(int(units))
        raise TypeError(f"cannot interpret {value!r} as an exponent")

    @property
    def as_fraction(self) -> Fraction:
        return Fraction(self.units24, 24)

    def __add__(self, other: "FracExp") -> "FracExp":
        return FracExp(self.units24 + other.units24)

    def __sub__(self, other: "FracExp") -> "FracExp":
        return FracExp(self.units24 - other.units24)

    def __neg__(self) -> "FracExp":
        return FracExp(-self.units24)

    def __mul__(self, m: int) -> "FracExp":
        return FracExp(self.units24 * m)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return str(self.as_fraction)


#: 60 full powers of q, enough to read off coefficients up to n = 50.
DEFAULT_TRUNCATION = FracExp(1440)


def _units(value: ExponentLike) -> int:
    return FracExp.of(value).units24


class QSeries:
    """Truncated formal series sum_e c_e q^e with e on the 1/24 lattice.

    Canonical form: zero coefficients are dropped and, for a nonzero series,
    the smallest stored exponent carries a nonzero coefficient.  The zero
    series stores nothing and reports its truncation as its offset.
    Instances are immutable; all operations return new series, so values can
    be shared freely across threads.
    """

    __slots__ = ("_coeffs", "_trunc", "_offset")

    def __init__(self, coeffs: Mapping[ExponentLike, Union[int, Fraction]], truncation: ExponentLike):
        trunc = _units(truncation)
        clean: dict[int, Fraction] = {}
        for e, c in coeffs.items():
            cf = Fraction(c)
            if cf == 0:
                continue
            u = _units(e)
            if u >= trunc:
                raise BeyondTruncation(f"term q^({Fraction(u,24)}) at or beyond truncation q^({Fraction(trunc,24)})")
            clean[u] = cf
        object.__setattr__(self, "_coeffs", clean)
        object.__setattr__(self, "_trunc", trunc)
        object.__setattr__(self, "_offset", min(clean) if clean else trunc)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("QSeries is immutable")

    # -- classmethods ----------------------------------------------------

    @classmethod
    def _raw(cls, coeffs: dict[int, Fraction], trunc: int) -> "QSeries":
        obj = object.__new__(cls)
        clean = {u: c for u, c in coeffs.items() if c != 0 and u < trunc}
        object.__setattr__(obj, "_coeffs", clean)
        object.__setattr__(obj, "_trunc", trunc)
        object.__setattr__(obj, "_offset", min(clean) if clean else trunc)
        return obj

    @classmethod
    def zero(cls, truncation: ExponentLike = DEFAULT_TRUNCATION) -> "QSeries":
        return cls._raw({}, _units(truncation))

    @classmethod
    def one(cls, truncation: ExponentLike = DEFAULT_TRUNCATION) -> "QSeries":
        return cls._raw({0: Fraction(1)}, _units(truncation))

    @classmethod
    def monomial(cls, coeff: Union[int, Fraction], exponent: ExponentLike,
                 truncation: ExponentLike = DEFAULT_TRUNCATION) -> "QSeries":
        return cls({exponent: coeff}, truncation)

    # -- inspection ------------------------------------------------------

    @property
    def offset(self) -> FracExp:
        return FracExp(self._offset)

    @property
    def truncation(self) -> FracExp:
        return FracExp(self._trunc)

    def is_zero(self) -> bool:
        return not self._coeffs

    def items(self) -> Iterator[tuple[FracExp, Fraction]]:
        for u in sorted(self._coeffs):
            yield FracExp(u), self._coeffs[u]

    def coefficient(self, exponent: ExponentLike) -> Fraction:
        """Exact coefficient at the given exponent (zero if absent)."""
        u = _units(exponent)
        if u >= self._trunc:
            raise BeyondTruncation(
                f"coefficient at q^({Fraction(u, 24)}) not determined below truncation q^({Fraction(self._trunc, 24)})")
        return self._coeffs.get(u, Fraction(0))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self._trunc == other._trunc and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self._trunc, tuple(sorted(self._coeffs.items()))))

    def __repr__(self) -> str:
        parts = []
        for u, c in list(sorted(self._coeffs.items()))[:6]:
            parts.append(f"{c}*q^({Fraction(u, 24)})")
        if len(self._coeffs) > 6:
            parts.append("...")
        body = " + ".join(parts) if parts else "0"
        return f"QSeries({body} + O(q^({Fraction(self._trunc, 24)})))"

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        trunc = min(self._trunc, other._trunc)
        out = dict(self._coeffs)
        for u, c in other._coeffs.items():
            out[u] = out.get(u, Fraction(0)) + c
        return QSeries._raw(out, trunc)

    def __neg__(self) -> "QSeries":
        return QSeries._raw({u: -c for u, c in self._coeffs.items()}, self._trunc)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def __mul__(self, other: Union["QSeries", int, Fraction]) -> "QSeries":
        if isinstance(other, (int, Fraction)):
            s = Fraction(other)
            return QSeries._raw({u: c * s for u, c in self._coeffs.items()}, self._trunc)
        if not isinstance(other, QSeries):
            return NotImplemented
        # The product is exact below min(Tf + og, Tg + of): the first unknown
        # contribution pairs one operand's tail with the other's leading term.
        trunc = min(self._trunc + other._offset, other._trunc + self._offset)
        out: dict[int, Fraction] = {}
        for u1, c1 in self._coeffs.items():
            for u2, c2 in other._coeffs.items():
                u = u1 + u2
                if u < trunc:
                    out[u] = out.get(u, Fraction(0)) + c1 * c2
        return QSeries._raw(out, trunc)

    __rmul__ = __mul__

    def __truediv__(self, other: "QSeries") -> "QSeries":
        """Exact long division; the divisor needs a nonzero leading coefficient.

        The quotient is known to the smaller relative precision of the two
        operands: for offsets of, og and truncations Tf, Tg of dividend and
        divisor, below min(Tf - og, Tg + of - 2*og).
        """
        if not isinstance(other, QSeries):
            return NotImplemented
        if not other._coeffs:
            raise ZeroLeadingCoefficient("cannot divide by the zero series")
        of, og = self._offset, other._offset
        lead = other._coeffs[og]
        support = sorted((u - og, c) for u, c in other._coeffs.items() if u > og)
        num = {u - of: c for u, c in self._coeffs.items()}
        n_rel = min(self._trunc - of, other._trunc - og)
        quot: dict[int, Fraction] = {}
        for step in range(n_rel):
            acc = num.get(step, 0)
            for k, c in support:
                if k > step:
                    break
                b = quot.get(step - k)
                if b is not None:
                    acc -= c * b
            if acc:
                quot[step] = acc / lead
        return QSeries._raw({u + of - og: c for u, c in quot.items()}, n_rel + of - og)

    def invert(self) -> "QSeries":
        """Multiplicative inverse; requires a nonzero leading coefficient.

        If self is known to relative precision N past its offset, so is the
        inverse, i.e. the truncation drops to T - 2*offset.
        """
        return QSeries.one(FracExp(self._trunc - self._offset)) / self

    def truncate(self, truncation: ExponentLike) -> "QSeries":
        trunc = min(self._trunc, _units(truncation))
        return QSeries._raw({u: c for u, c in self._coeffs.items() if u < trunc}, trunc)

    # -- numeric bridge ----------------------------------------------------

    def evaluate(self, tau: complex) -> complex:
        """Numerically sum the stored terms at q = exp(2 pi i tau)."""
        total = 0j
        for u in sorted(self._coeffs):
            total += complex(self._coeffs[u]) * cmath.exp(2j * cmath.pi * tau * u / 24)
        return total


# -- closed-form expansions -------------------------------------------------


def eta_series(truncation: ExponentLike = DEFAULT_TRUNCATION) -> QSeries:
    """q^{1/24} prod (1 - q^n) = sum over integers k of (-1)^k q^{(6k-1)^2/24}.

    Euler's pentagonal theorem: (6k-1)^2/24 = 1/24 + k(3k-1)/2, a generalised
    pentagonal number, and k, -k (exponents (6k-1)^2, (6k+1)^2 units) share
    the sign.
    """
    trunc = _units(truncation)
    coeffs: dict[int, Fraction] = {}
    k = 0
    while (6 * k - 1) ** 2 < trunc:
        sign = Fraction(-1 if k % 2 else 1)
        coeffs[(6 * k - 1) ** 2] = sign
        if k and (6 * k + 1) ** 2 < trunc:
            coeffs[(6 * k + 1) ** 2] = sign
        k += 1
    return QSeries._raw(coeffs, trunc)


def partition_series(truncation: ExponentLike = DEFAULT_TRUNCATION) -> QSeries:
    """Generating function of the partition numbers, 1/prod(1 - q^n).

    p(n) comes from Euler's pentagonal recurrence on plain integers,
    p(n) = sum_{k>=1} (-1)^{k+1} [p(n - k(3k-1)/2) + p(n - k(3k+1)/2)].
    A truncation <= 0 leaves the product no leading term to invert.
    """
    trunc = _units(truncation)
    if trunc <= 0:
        raise ZeroLeadingCoefficient(
            f"1/prod(1 - q^n) below truncation q^({Fraction(trunc, 24)}) inverts the zero series")
    p = [1]
    for n in range(1, (trunc - 1) // 24 + 1):
        total = 0
        k = 1
        while (g := k * (3 * k - 1) // 2) <= n:  # g + k = k(3k+1)/2
            pair = p[n - g] + (p[n - g - k] if g + k <= n else 0)
            total += pair if k % 2 else -pair
            k += 1
        p.append(total)
    return QSeries._raw({24 * n: Fraction(c) for n, c in enumerate(p)}, trunc)


def theta_constant_series(label: str, truncation: ExponentLike = DEFAULT_TRUNCATION) -> QSeries:
    """q-expansion of a theta constant (the z = 0 theta series).

    label "10": sum over half-integers k of q^{k^2/2} = 2 q^{1/8}(1 + q + q^3 + ...)
    label "00": sum over integers  n of q^{n^2/2}
    label "01": sum over integers  n of (-1)^n q^{n^2/2}
    """
    trunc = _units(truncation)
    coeffs: dict[int, Fraction] = {}
    if label == "10":
        k = 1  # odd k, exponent k^2/8 = 3 k^2 units
        while 3 * k * k < trunc:
            coeffs[3 * k * k] = Fraction(2)
            k += 2
    elif label in ("00", "01"):
        coeffs[0] = Fraction(1)
        n = 1  # exponent n^2/2 = 12 n^2 units
        while 12 * n * n < trunc:
            sign = -1 if (label == "01" and n % 2 == 1) else 1
            coeffs[12 * n * n] = Fraction(2 * sign)
            n += 1
    else:
        raise UnknownName(f"no theta constant labelled {label!r}")
    return QSeries._raw(coeffs, trunc)
