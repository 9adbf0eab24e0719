"""The benchmark tracer wraps package functions by name; each name must still exist.

``perfbench/tracing.py`` looks every traced name up with ``getattr`` and no
default, so a rename in the package breaks ``run.py --trace 1``. Its name
tables are read by executing the file's source in a fresh namespace, which
neither imports it as a module nor writes bytecode next to it.
"""

from __future__ import annotations

import importlib
from pathlib import Path

from nmacompare.dataset import NetworkDataset

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_names() -> dict:
    namespace: dict = {"__name__": "tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    return namespace


def test_traced_functions_resolve():
    functions = _tracing_names()["TRACED_FUNCTIONS"]
    missing = [
        f"{layer}.{name}"
        for layer, names in functions.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"nmacompare.{layer}"), name, None))
    ]
    assert missing == []


def test_traced_methods_resolve():
    methods = _tracing_names()["TRACED_METHODS"]
    assert [name for name in methods if name not in NetworkDataset.__dict__] == []
