"""Names the package exports, and those the benchmark's traced run wraps, must
exist; every exported name must have a caller outside the tests."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import cwmoduli

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"


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


def _references(directory, strings=False):
    """Names and attribute names used in the .py files under directory, parsed
    with ast; with strings, string constants too. Definitions, import lists
    and the strings of __all__ are none of these."""
    found = set()
    for path in sorted((ROOT / directory).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.add(node.value)
    return found


@pytest.fixture(scope="module")
def used_outside_tests():
    # bench/ is parsed, not imported; its TARGETS name functions as strings
    return (_references("src/cwmoduli") | _references("demos")
            | _references("bench", strings=True)
            | set(re.findall(r"\w+", (ROOT / "README.md").read_text())))


@pytest.mark.parametrize("module", MODULES)
def test_every_export_has_a_caller_outside_the_tests(module, used_outside_tests):
    unused = [name for name in importlib.import_module(module).__all__
              if not name.startswith("__") and name not in used_outside_tests]
    assert not unused, f"{module}.__all__ names {unused}, which only tests use"
