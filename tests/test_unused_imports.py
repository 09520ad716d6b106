"""No module of the package imports a name it never reads.

A name counts as read when the module's syntax tree loads it anywhere,
names it in a string annotation, or lists it in ``__all__`` (the package
re-exports).  Standard library only.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wallcross"


def unused_imports(source: str) -> list[str]:
    """The names source imports but never reads, each as 'line N: name'."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a string annotation such as "Charge" or "dict[str, Fraction]"
                read.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))
            except (SyntaxError, ValueError):
                pass
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_has_no_unused_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = ("import functools\nimport operator\nimport os.path\nfrom math import gcd as g\n"
              "from fractions import Fraction\nx: 'Fraction' = g\n")
    assert unused_imports(source) == ["line 1: functools", "line 2: operator", "line 3: os"]
