"""The analytic layer's tables are written under its lock, read from the source with ast.

analytic._kept is the one function that reads or writes a table (the kept
records, _records, and each record's thetas and reduced tables), and it
holds analytic._lock while it does.  No other function stores into, pops
from or deletes from a table, and no other function takes the lock.
"""

import ast
from pathlib import Path

import mockforms

SOURCE = Path(mockforms.__file__).resolve().parent / "analytic.py"

# the dict methods that remove or store entries
MUTATORS = {"pop", "popitem", "clear", "update", "setdefault", "__setitem__", "__delitem__"}


def names_table(node: ast.expr) -> bool:
    """node is the module's _records or a record's .thetas or .reduced."""
    if isinstance(node, ast.Name):
        return node.id == "_records"
    return isinstance(node, ast.Attribute) and node.attr in ("thetas", "reduced")


def table_writers(source: str) -> set[str]:
    """The functions of source that store into, pop from, delete from or rebind a table."""
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                target = node.value
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in MUTATORS:
                target = node.func.value
            elif isinstance(node, ast.Global) and "_records" in node.names:
                found.add(func.name)
                continue
            else:
                continue
            if names_table(target):
                found.add(func.name)
    return found


def lock_users(source: str) -> set[str]:
    """The functions of source that name _lock."""
    return {func.name for func in ast.walk(ast.parse(source)) if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(isinstance(node, ast.Name) and node.id == "_lock" for node in ast.walk(func))}


def test_only_kept_writes_a_table():
    assert table_writers(SOURCE.read_text()) <= {"_kept"}


def test_only_kept_takes_the_lock_around_its_whole_body():
    source = SOURCE.read_text()
    assert lock_users(source) == {"_kept"}
    kept = next(node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef) and node.name == "_kept")
    body = kept.body[1:] if isinstance(kept.body[0], ast.Expr) else kept.body  # after the docstring
    assert len(body) == 1 and isinstance(body[0], ast.With)
    assert [ast.unparse(item.context_expr) for item in body[0].items] == ["_lock"]


def test_every_kind_of_write_is_seen():
    planted = {
        "store": "def f(rec, k):\n    rec.thetas[k] = 1\n",
        "chained_store": "def f(t, k):\n    rec = _records[k] = t\n",
        "augmented": "def f(rec, k):\n    rec.reduced[k] += 1\n",
        "delete": "def f(k):\n    del _records[k]\n",
        "pop": "def f(rec, k):\n    rec.reduced.pop(k, None)\n",
        "clear": "def f():\n    _records.clear()\n",
        "rebind": "def f():\n    global _records\n    _records = {}\n",
        "nested": "def f(rec):\n    def g(k):\n        rec.thetas.setdefault(k, 1)\n    return g\n",
    }
    for name, source in planted.items():
        assert "f" in table_writers(source), name
    assert table_writers("def f(rec, k):\n    return rec.thetas.get(k), len(_records)\n") == set()
