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


class UnsupportedSpec(MockformsError):
    """Character parameters violate the representation-theory constraints."""


class NonPositiveArgument(MockformsError):
    """A strictly positive real argument was required."""


class QuadratureNonConvergence(MockformsError):
    """A series needs more terms than its budget (MAX_TERMS) to reach its tail bound."""


class ValueOverflow(MockformsError):
    """An analytic value exceeds the range of a double at this argument."""


class BesselOverflow(MockformsError):
    """A Bessel closed form exceeds the range of a double at this argument."""


# --- exact coefficient pipeline ----------------------------------------------

class NonIntegralCoefficient(MockformsError):
    """A coefficient that must be an exact integer failed integrality.

    This always signals an upstream bug, never a rounding problem: the whole
    pipeline works in exact rational arithmetic.
    """


class SignViolation(MockformsError):
    """An exact multiplicity table breaks its sign or positivity invariant.

    Like NonIntegralCoefficient, this signals an upstream bug.
    """


# --- Dedekind / Kloosterman machinery ----------------------------------------

class NotCoprime(MockformsError):
    """The Euclidean Dedekind-sum recursion needs gcd(d, c) = 1."""
