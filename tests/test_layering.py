"""The import layering of the package, read from its sources with ast.

The series layer (qseries, rademacher) and the analytic layer rest on errors
alone; characters and shadow combine them; cli and the package's __init__
may import anything.  Imports inside functions count too.
"""

import ast
from pathlib import Path

import pytest

import mockforms

SRC = Path(mockforms.__file__).resolve().parent

# module -> the package modules it may import
ALLOWED = {
    "errors": set(),
    "qseries": {"errors"},
    "rademacher": {"errors"},
    "analytic": {"errors"},
    "characters": {"analytic", "errors", "qseries"},
    "shadow": {"analytic", "errors", "rademacher"},
}
UNCONSTRAINED = {"__init__", "__main__", "cli"}


def package_imports(path: Path) -> set[str]:
    """The mockforms modules that path imports anywhere in its body; "__init__" for the package itself."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if node.level == 0:
                if parts[:1] != ["mockforms"]:
                    continue
                parts = parts[1:]
            # from .x import y names x; from . import x and from mockforms import x name x
            found.update(parts[:1] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "mockforms":
                    found.add(parts[1] if len(parts) > 1 else "__init__")
    return found


def test_every_module_has_a_rule():
    assert {path.stem for path in SRC.glob("*.py")} == set(ALLOWED) | UNCONSTRAINED


@pytest.mark.parametrize("name", ALLOWED)
def test_module_imports_only_lower_layers(name):
    assert package_imports(SRC / f"{name}.py") <= ALLOWED[name]


def test_imports_inside_functions_are_seen():
    # cli imports analytic only inside its identities suite
    assert {"analytic", "characters", "errors", "qseries", "rademacher", "shadow"} <= package_imports(SRC / "cli.py")


def test_shadow_takes_its_series_terms_from_the_driver():
    # rademacher._series forms every series term; shadow imports no kernel or Bessel function of its own
    names = {alias.name for node in ast.walk(ast.parse((SRC / "shadow.py").read_text()))
             if isinstance(node, ast.ImportFrom) and node.module == "rademacher" for alias in node.names}
    assert names == {"_dedekind_euclid", "_series"}
