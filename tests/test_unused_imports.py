"""No module of the package imports a name it never reads, and no private
helper outlives its last caller.

A name counts as read when the module's syntax tree loads it anywhere,
names it in a string annotation, or lists it in ``__all__`` (the package
re-exports).  A private function, class or method (one underscore, not a
dunder) counts as used when some module of the package loads it, as a name
or an attribute, outside its own definition.  Standard library only.
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


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def unused_private(sources: dict[str, str]) -> list[str]:
    """The private functions, classes and methods of sources (module name ->
    text) that nothing loads outside their own definition, each as
    'module line N: name'."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    loads = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)]
    unused = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and _is_private(node.name)):
                inside = {id(n) for n in ast.walk(node)}
                if not any(getattr(n, "id", None) == node.name or getattr(n, "attr", None) == node.name
                           for n in loads if id(n) not in inside):
                    unused.append(f"{module} line {node.lineno}: {node.name}")
    return unused


def test_every_private_helper_has_a_caller():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unused_private(sources) == []


def test_the_check_sees_a_private_helper_without_a_caller():
    sources = {
        "a.py": ("def _used():\n    return 1\n\n\ndef _recursive(n):\n    return _recursive(n - 1)\n\n\n"
                 "class _Box:\n    def _peek(self):\n        return self._peek\n\n"
                 "    def _shown(self):\n        pass\n\n    def __repr__(self):\n        return ''\n"),
        "b.py": "from a import _used\n\nx = _used() + b._shown()\n",
    }
    assert unused_private(sources) == [
        "a.py line 5: _recursive", "a.py line 9: _Box", "a.py line 10: _peek"]
