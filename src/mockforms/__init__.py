"""Exact and Rademacher-type computation of the massive N=4 multiplicities
in the K3 elliptic genus, with numerical verification of the supporting
mock-modular identities."""

from .analytic import (
    CharSpec,
    dedekind_eta,
    elliptic_genus,
    jacobi_theta,
    lerch_completion,
    lerch_difference,
    lerch_sum,
    nonholomorphic_correction,
    superconformal_character,
)
from .characters import (
    CoeffTable,
    coeff_table,
    decomposition_residual,
    half_period_numerator,
    identity_check,
    multiplicity_series,
)
from .errors import (
    BesselOverflow,
    BeyondTruncation,
    MockformsError,
    NonIntegralCoefficient,
    NonPositiveArgument,
    NotCoprime,
    PoleAtArgument,
    QuadratureNonConvergence,
    SignViolation,
    UnknownName,
    UnsupportedSpec,
    ValueOverflow,
    ZeroLeadingCoefficient,
)
from .qseries import DEFAULT_TRUNCATION, FracExp, QSeries
from .rademacher import (
    DedekindSumValue,
    RademacherPartial,
    cardy_entropy,
    dedekind_sum,
    exact_coefficient,
    kloosterman_quadratic,
    kloosterman_sum,
    leading_asymptotic,
    rademacher_partition,
)
from .shadow import (
    ShadowCoeff,
    holomorphic_anomaly_residual,
    laplacian_residual,
    multiplicity_completion,
    multiplier_system,
    shadow_coefficient,
    shadow_reference_coefficients,
)

__all__ = [
    "CharSpec", "dedekind_eta", "elliptic_genus", "jacobi_theta", "lerch_completion", "lerch_difference",
    "lerch_sum", "nonholomorphic_correction", "superconformal_character",
    "CoeffTable", "coeff_table", "decomposition_residual", "half_period_numerator", "identity_check",
    "multiplicity_series", "BesselOverflow", "BeyondTruncation", "MockformsError",
    "NonIntegralCoefficient", "NonPositiveArgument", "NotCoprime", "PoleAtArgument",
    "QuadratureNonConvergence", "SignViolation", "UnknownName", "UnsupportedSpec", "ValueOverflow",
    "ZeroLeadingCoefficient", "DEFAULT_TRUNCATION", "FracExp", "QSeries", "DedekindSumValue",
    "RademacherPartial", "cardy_entropy", "dedekind_sum", "exact_coefficient", "kloosterman_quadratic",
    "kloosterman_sum", "leading_asymptotic", "rademacher_partition", "ShadowCoeff",
    "holomorphic_anomaly_residual", "laplacian_residual", "multiplicity_completion", "multiplier_system",
    "shadow_coefficient", "shadow_reference_coefficients",
]

__version__ = "0.1.0"
