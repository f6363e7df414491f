"""The public surface: every name ``anisosym`` exports has a caller.

A name counts as used when the library's own code refers to it outside its
definition (``__init__.py`` aside), when the benchmark under ``bench/``
names it, or when the README documents it.  Names that only tests call
belong in ``tests/oracles.py``, not in the package.
"""

import ast
import re
import types
from pathlib import Path

import anisosym

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "anisosym"


def _exported():
    return sorted(name for name in dir(anisosym)
                  if not name.startswith("_")
                  and not isinstance(getattr(anisosym, name), types.ModuleType))


def _code_references():
    """Names the package code reads, outside the definition that binds them."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        own = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own[node.name] = range(node.lineno, node.end_lineno + 1)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        own[target.id] = range(node.lineno, node.end_lineno + 1)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.lineno not in own.get(node.id, ()):
                used.add(node.id)
    return used


def _text_references(names):
    texts = [p.read_text() for p in (ROOT / "bench").glob("*.py")]
    texts.append((ROOT / "README.md").read_text())
    return {name for name in names
            if any(re.search(rf"\b{re.escape(name)}\b", t) for t in texts)}


def test_every_exported_name_has_a_caller_outside_tests():
    names = _exported()
    used = _code_references() | _text_references(names)
    unused = [name for name in names if name not in used]
    assert not unused, f"exported names that only tests use: {unused}"
