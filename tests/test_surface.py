"""The package's named surface: what the benchmark tracer wraps and what it exports."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import blockpr

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracing import PIPELINE_NAMES, SOLVER_NAMES  # noqa: E402

MODULES = ["bench", "cli", "core", "forward", "io", "pipeline", "rng", "solvers"]


@pytest.mark.parametrize("module, names", [("pipeline", PIPELINE_NAMES),
                                           ("solvers", SOLVER_NAMES)])
def test_traced_names_are_module_callables(module, names):
    # the tracer replaces these attributes; the pipeline must look them up there
    mod = importlib.import_module(f"blockpr.{module}")
    for name in names:
        assert callable(getattr(mod, name, None)), f"blockpr.{module}.{name}"


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"blockpr.{module}")
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"blockpr.{module}.{name}"


def test_package_imports_resolve_to_module_exports():
    tree = ast.parse(Path(blockpr.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"blockpr.{node.module}")
        exported = getattr(mod, "__all__", None)
        for alias in node.names:
            assert hasattr(blockpr, alias.name), f"blockpr.{alias.name}"
            assert exported is None or alias.name in exported, \
                f"blockpr.{node.module}.__all__ lacks {alias.name}"
