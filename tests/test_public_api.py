"""The package's public names: `mockforms.__all__`, pinned by submodule."""

import importlib
import re
import subprocess
import sys
from pathlib import Path

import mockforms

PUBLIC = {
    "analytic": {
        "CharSpec", "dedekind_eta", "elliptic_genus", "jacobi_theta", "lerch_completion", "lerch_difference",
        "lerch_sum", "nonholomorphic_correction", "superconformal_character",
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
        "kloosterman_quadratic", "kloosterman_sum", "leading_asymptotic", "rademacher_partition",
    },
    "shadow": {
        "ShadowCoeff", "holomorphic_anomaly_residual", "laplacian_residual", "multiplicity_completion",
        "multiplier_system", "shadow_coefficient", "shadow_reference_coefficients",
    },
}


# the records a reached function returns, which no caller needs to name
RETURNED_RECORDS = {"CoeffTable", "DedekindSumValue", "RademacherPartial", "ShadowCoeff"}


def test_all_is_pinned():
    assert len(mockforms.__all__) == len(set(mockforms.__all__)) == 47
    assert set(mockforms.__all__) == set().union(*PUBLIC.values())


def test_every_public_name_is_reached():
    # A public name earns its place when the CLI, the acceptance gate, the
    # oracles, the benchmark or another module of the package names it;
    # one that only unit tests call is surface to delete, not to keep.
    package = Path(mockforms.__file__).resolve().parent
    root = package.parents[1]
    callers = [root / "tests" / "test_acceptance.py", root / "tests" / "oracles.py",
               *sorted((root / "perfbench").glob("*.py"))]
    text = {path: path.read_text() for path in callers}
    modules = {path.stem: path.read_text() for path in package.glob("*.py") if path.stem != "__init__"}
    unreached = []
    for module_name, names in PUBLIC.items():
        others = [body for stem, body in modules.items() if stem != module_name]
        for name in sorted(names - RETURNED_RECORDS):
            pattern = re.compile(rf"\b{re.escape(name)}\b")
            if not any(pattern.search(body) for body in [*text.values(), *others]):
                unreached.append(name)
    assert unreached == []


def test_each_name_is_its_submodules_object():
    for module_name, names in PUBLIC.items():
        module = importlib.import_module(f"mockforms.{module_name}")
        for name in names:
            assert getattr(mockforms, name) is getattr(module, name), name


def test_star_import_gives_exactly_all():
    namespace: dict = {}
    exec("from mockforms import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(mockforms.__all__)


def test_import_leaves_typing_out():
    # annotations use collections.abc and X | Y, and the records are
    # namedtuples, so neither the package nor its CLI pays at a cold start
    # for typing or for dataclasses and the inspect, ast and dis it pulls in
    # (-I -S: no site, no environment, the source tree alone on the path)
    src = str(Path(mockforms.__file__).resolve().parents[1])
    heavy = ("typing", "dataclasses", "inspect", "ast", "dis")
    code = (f"import sys; sys.path.insert(0, {src!r}); import mockforms, mockforms.cli; "
            f"print(sorted(set({heavy!r}) & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and done.stdout == "[]\n", (done.stdout, done.stderr)
