"""Every name a dbarl2 module imports is used in that module, no import sits
inside a function or class, every module-level function and class a module
defines is named somewhere else, and importing the command line loads no
third-party package but numpy.

Only the standard ``ast`` module is needed for the source checks.  An imported name counts as used
when it appears anywhere in the module as a ``Name`` node (a load, or the
root of an attribute chain).  The package ``__init__`` re-exports its imports
and is exempt.  A definition counts as named when a ``Name``, an attribute,
an imported name or a string that is a (dotted) identifier spells it in a
module of ``src/``, ``tests/``, ``demos/`` or ``perfbench/``, outside the
definition itself.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dbarl2"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
READERS = sorted(p for d in ("src", "tests", "demos", "perfbench")
                 for p in (ROOT / d).rglob("*.py"))
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _imported(tree: ast.Module) -> dict:
    """Bound name -> line of the import statement that binds it."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in _imported(tree).items()
                    if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_no_import_inside_a_definition():
    nested = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, DEFS):
                nested |= {f"{path.name}:{sub.lineno}" for sub in ast.walk(node)
                           if isinstance(sub, (ast.Import, ast.ImportFrom))}
    assert not nested, f"imports inside a definition: {', '.join(sorted(nested))}"


def _spelled(tree: ast.Module):
    """(name, owner) for each name the module spells; owner is the module-level
    definition the spelling sits in (None outside every definition)."""
    for top in tree.body:
        owner = top.name if isinstance(top, DEFS) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield node.id, owner
            elif isinstance(node, ast.Attribute):
                yield node.attr, owner
            elif isinstance(node, ast.alias):
                yield node.name.split(".")[-1], owner
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
                for part in node.value.split("."):
                    yield part, owner


def test_every_definition_is_named_elsewhere():
    named = set()
    for path in READERS:
        for name, owner in _spelled(ast.parse(path.read_text(), filename=str(path))):
            named.add((name, path if path.parent == SRC else None, owner))
    unnamed = []
    for path in MODULES:
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(top, DEFS) and not any(
                    n == top.name and (p != path or o != top.name) for n, p, o in named):
                unnamed.append(f"{path.name}:{top.lineno} {top.name}")
    assert not unnamed, f"definitions nothing names: {', '.join(unnamed)}"


def test_cli_imports_numpy_only():
    # a fresh interpreter: the packages the test session already holds do not count
    probe = ("import sys; before = set(sys.modules); import dbarl2.cli; "
             "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
             " - set(sys.stdlib_module_names)))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert ast.literal_eval(out.stdout) == ["dbarl2", "numpy"]
