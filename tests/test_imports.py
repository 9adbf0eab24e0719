"""Every name a package module imports is used in that module, every private helper of the
package has a reader, and the CLI imports light.

No linter ships with the project, so this walks each module's syntax tree.
The unused-import check skips ``__init__.py``: its imports are the package's re-exports.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nmacompare"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import, ``from __future__`` excepted."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    """Names read anywhere, including inside quoted annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for note in annotations:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used |= _used(ast.parse(note.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used(tree)
    unused = [f"line {line}: {name}" for name, line in _imported(tree).items() if name not in used]
    assert unused == []


def _loaded_by_cli_import(names: set[str]) -> str:
    """The sorted list of ``names`` in ``sys.modules`` after a fresh ``import nmacompare.cli``."""
    probe = f"import sys, nmacompare.cli\nprint(sorted({names!r} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout.strip()


def test_cli_import_skips_network_modules():
    """``xml.sax.saxutils`` pulled these in at every cold ``nma`` start; ``html`` does not."""
    assert _loaded_by_cli_import({"urllib.request", "http.client", "ssl", "email"}) == "[]"


def test_cli_import_skips_pool_modules():
    """``batch_run`` imports its process pool only when it forks one."""
    assert _loaded_by_cli_import({"multiprocessing", "concurrent.futures"}) == "[]"


def _private_definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Private module-level functions, classes and constants by name; dunders excepted."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = [
                t.id for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
                if isinstance(t, ast.Name)
            ]
        else:
            continue
        names.update((name, node) for name in targets
                     if name.startswith("_") and not name.startswith("__"))
    return names


def _reads(node: ast.AST) -> list[str]:
    """Every name read below ``node``: plain names, attributes and names imported from a module."""
    names = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.append(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names += [alias.name for alias in sub.names]
    return names


def test_every_private_helper_is_read():
    """No private function, class or constant of the package is left without a reader.

    A name counts as read where any module reads it, outside its own definition.
    """
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    reads = [name for tree in trees.values() for name in _reads(tree)]
    unread = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name, node in _private_definitions(tree).items()
        if reads.count(name) == _reads(node).count(name)
    ]
    assert unread == []
