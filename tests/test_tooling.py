"""Names the package exports, and those the benchmark's traced run wraps, must
exist; every exported name must have a caller outside the tests, and every
private module-level name a use in the package."""

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


def _private_definitions(path):
    """The module-level names a module defines with one leading underscore."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def test_every_private_name_has_a_use_in_the_package():
    # a use is a name read or an attribute, not the assignment that defines it
    used = set()
    for path in sorted((ROOT / "src" / "cwmoduli").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    dead = {path.name: sorted(_private_definitions(path) - used)
            for path in sorted((ROOT / "src" / "cwmoduli").glob("*.py"))}
    assert not any(dead.values()), f"private names with no use in src/cwmoduli: {dead}"
