"""The names the benchmark tracer (perfbench/layers.py) wraps must exist.

`layers.install` wraps functions and methods by name; a refactor that
renames or hides one makes `--trace 1` fail or silently report zero for it.
The file is only executed for its tables; nothing is installed.
"""

import importlib
import inspect
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LAYERS_PATH = ROOT / "perfbench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    namespace = {"__name__": "perfbench_layers"}
    exec(compile(LAYERS_PATH.read_text(), str(LAYERS_PATH), "exec"), namespace)
    return types.SimpleNamespace(**namespace)


def module(name):
    return importlib.import_module(f"mockforms.{name}")


def test_shared_functions_are_public(layers):
    methods = {f"{cls}.{method}" for _, cls, method in layers.METHODS}
    for mod_name, names in layers.SHARE_OF.items():
        mod = module(mod_name)
        for name in names:
            if "." in name:
                assert name in methods, f"{mod_name}.{name} is not a traced method"
            elif name not in layers.EXTRA_FUNCTIONS.get(mod_name, ()):
                assert name in mod.__all__, f"{mod_name}.{name} is not public"
                assert inspect.isfunction(getattr(mod, name)), f"{mod_name}.{name} is not a function"


def test_methods_resolve_on_public_classes(layers):
    for mod_name, cls_name, method in layers.METHODS:
        mod = module(mod_name)
        assert cls_name in mod.__all__
        assert callable(getattr(getattr(mod, cls_name), method))


def test_extra_functions_resolve(layers):
    for mod_name, names in layers.EXTRA_FUNCTIONS.items():
        for name in names:
            assert inspect.isfunction(getattr(module(mod_name), name)), f"{mod_name}.{name}"


def test_counted_functions_are_traced(layers):
    traced = {f"{m}.{f}" for m, fs in layers.SHARE_OF.items() for f in fs}
    for metric in layers.COUNTS:
        assert metric.rsplit(".", 1)[0] in traced, metric


def test_report_tables_exist():
    rademacher = module("rademacher")
    assert isinstance(len(rademacher.DEFAULT_CACHE), int)
    assert isinstance(rademacher._phase_rows, dict)


def test_import_leaves_the_tables_empty():
    # a benchmark child refuses to run unless both tables are empty once
    # mockforms is imported; check in a fresh interpreter, not this one
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import mockforms; "
            "from mockforms import rademacher; "
            "print(len(rademacher.DEFAULT_CACHE), len(rademacher._phase_rows))")
    result = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout.split() == ["0", "0"]
