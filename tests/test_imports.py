"""Every name a package module imports is used in that module, every private helper of the
package has a reader, the package exports exactly its modules' ``__all__`` names, and the CLI
imports light.

No linter ships with the project, so this walks each module's syntax tree.
The unused-import check skips ``__init__.py``: its imports are the package's re-exports.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import nmacompare

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nmacompare"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# The names the package exported when ``__init__.py`` listed them by hand, by defining module;
# ``models.log_likelihood`` has since been deleted.
LISTED_EXPORTS = {
    "analysis": (
        "BatchResult", "BatchRow", "Classification", "ComparisonReport", "SensitivityRecord",
        "TauMethod", "batch_run", "batch_to_csv", "batch_to_json", "classify", "compare_models",
        "exclude_and_refit", "fit_random_effects", "leave_one_out",
    ),
    "dataset": (
        "ContrastObservation", "DatasetError", "Design", "DesignMatrix", "EffectMeasure",
        "NetworkDataset", "build_design_matrix", "connected_components",
        "derive_contrast_binary", "derive_contrast_continuous", "group_designs",
        "load_dataset", "parse_dataset",
    ),
    "heterogeneity": (
        "DesignContribution", "QDecomposition", "ScreenResult", "StudyContribution",
        "q_decompose", "q_total",
    ),
    "models": (
        "EstimationError", "ModelFit", "ModelKind", "estimate_tau2_dl", "estimate_tau2_reml",
        "fit_fe", "fit_me", "fit_re", "reml_objective",
    ),
    "numerics": (
        "NumericError", "SpdSolveResult", "chi_square_sf", "minimize_scalar",
        "normal_quantile", "solve_spd",
    ),
    "report": (
        "ForestRow", "MarkerKind", "NetworkEdge", "NetworkGraph", "fit_report", "forest_data",
        "network_data", "per_study_csv", "render_svg",
    ),
}


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


@pytest.mark.parametrize("module", LISTED_EXPORTS)
def test_listed_exports_are_the_module_objects(module):
    source = getattr(nmacompare, module)
    for name in LISTED_EXPORTS[module]:
        assert name in source.__all__
        assert getattr(nmacompare, name) is getattr(source, name)


def test_package_exports_exactly_the_modules_all():
    exported = {
        name for name, value in vars(nmacompare).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == {name for module in LISTED_EXPORTS
                        for name in getattr(nmacompare, module).__all__}
    assert "format_csv" in exported


def _all(tree: ast.Module) -> list[str]:
    """The module's ``__all__`` list, read from its syntax tree."""
    node = _definitions(tree).get("__all__")
    return [] if node is None else ast.literal_eval(node.value)


def test_each_public_name_is_defined_once_in_its_module():
    """A name in two modules' ``__all__`` would be shadowed, by import order, in the package."""
    owners: dict[str, list[str]] = {}
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = _definitions(tree)
        for name in _all(tree):
            assert name in defined, f"{path.name}: {name} is in __all__ but not defined there"
            owners.setdefault(name, []).append(path.name)
    assert {name: files for name, files in owners.items() if len(files) > 1} == {}


def _definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Module-level functions, classes and assigned names by name."""
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
        names.update((name, node) for name in targets)
    return names


def _private_definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Private module-level functions, classes and constants by name; dunders excepted."""
    return {
        name: node for name, node in _definitions(tree).items()
        if name.startswith("_") and not name.startswith("__")
    }


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
