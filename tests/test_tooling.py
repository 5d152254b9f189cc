"""Names the package exports, and those the benchmark's traced run wraps, must exist."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import cwmoduli

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _targets():
    # parsed, not imported, so that nothing is written under bench/
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TARGETS":
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no TARGETS")


def test_every_traced_target_resolves():
    targets = [(module, name) for module, name, _ in _targets()
               if module is not None and module.startswith("cwmoduli")]
    assert targets
    for module, name in targets:
        assert callable(getattr(importlib.import_module(module), name, None)), \
            f"{module}.{name} is wrapped by bench/tracing.py but does not exist"


MODULES = ["cwmoduli"] + [f"cwmoduli.{info.name}"
                          for info in pkgutil.iter_modules(cwmoduli.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names {missing}, which it does not define"
