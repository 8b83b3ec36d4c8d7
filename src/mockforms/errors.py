"""Typed exceptions shared across the package."""


class MockformsError(Exception):
    """Base class for all package-specific errors."""


# --- formal q-series ---------------------------------------------------------

class ZeroLeadingCoefficient(MockformsError):
    """Inversion of a series whose leading coefficient vanishes (or the zero series)."""


class BeyondTruncation(MockformsError):
    """A coefficient was requested at or beyond the truncation order."""


class UnknownName(MockformsError):
    """Unrecognised named series or identity label."""


# --- numerical evaluation ----------------------------------------------------

class PoleAtArgument(MockformsError):
    """An evaluation point sits on (or numerically too close to) a pole."""


class DenominatorVanishes(MockformsError):
    """The denominator theta combination vanishes at the evaluation point."""


class UnsupportedSpec(MockformsError):
    """Character parameters violate the representation-theory constraints."""


class NonPositiveArgument(MockformsError):
    """A strictly positive real argument was required."""


class QuadratureNonConvergence(MockformsError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class BesselOverflow(MockformsError):
    """A Bessel closed form exceeds the range of a double at this argument."""


# --- exact coefficient pipeline ----------------------------------------------

class NonIntegralCoefficient(MockformsError):
    """A coefficient that must be an exact integer failed integrality.

    This always signals an upstream bug, never a rounding problem: the whole
    pipeline works in exact rational arithmetic.
    """


# --- Dedekind / Kloosterman machinery ----------------------------------------

class NotCoprime(MockformsError):
    """The Euclidean Dedekind-sum recursion needs gcd(d, c) = 1."""
