"""The package's public names: `mockforms.__all__`, pinned by submodule."""

import importlib

import mockforms

PUBLIC = {
    "analytic": {
        "CharSpec", "EllipticArg", "FlowOffset", "ModularPoint", "affine_su2_character", "bessel_half",
        "dedekind_eta", "elliptic_genus", "jacobi_theta", "lerch_completion", "lerch_difference", "lerch_sum",
        "level_theta", "nonholomorphic_correction", "spectral_flow_offset", "superconformal_character",
    },
    "characters": {
        "CoeffTable", "coeff_table", "decomposition_residual", "half_period_numerator", "identity_check",
        "multiplicity_series",
    },
    "errors": {
        "BesselOverflow", "BeyondTruncation", "MockformsError", "NonIntegralCoefficient", "NonPositiveArgument",
        "NotCoprime", "PoleAtArgument", "QuadratureNonConvergence", "SignViolation", "UnknownName",
        "UnsupportedSpec", "ValueOverflow", "ZeroLeadingCoefficient",
    },
    "qseries": {"DEFAULT_TRUNCATION", "FracExp", "QSeries"},
    "rademacher": {
        "DedekindSumValue", "RademacherPartial", "cardy_entropy", "dedekind_sum", "exact_coefficient",
        "kloosterman_quadratic", "kloosterman_sum", "leading_asymptotic", "rademacher_partition", "sawtooth",
    },
    "shadow": {
        "ShadowCoeff", "holomorphic_anomaly_residual", "laplacian_residual", "multiplicity_completion",
        "multiplier_system", "shadow_coefficient", "shadow_reference_coefficients",
    },
}


def test_all_is_pinned():
    assert len(mockforms.__all__) == len(set(mockforms.__all__))
    assert set(mockforms.__all__) == set().union(*PUBLIC.values())


def test_each_name_is_its_submodules_object():
    for module_name, names in PUBLIC.items():
        module = importlib.import_module(f"mockforms.{module_name}")
        for name in names:
            assert getattr(mockforms, name) is getattr(module, name), name


def test_star_import_gives_exactly_all():
    namespace: dict = {}
    exec("from mockforms import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(mockforms.__all__)
