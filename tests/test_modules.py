"""Package layout: every module exports only what it defines, and only core builds diagrams."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import binposet

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(binposet.__path__) if info.name != "__init__"
)


def _assigned(mod) -> set[str]:
    """Names bound by a top-level assignment in the module's source."""
    names = set()
    for node in ast.parse(inspect.getsource(mod)).body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if isinstance(node, ast.AnnAssign):
            targets = [node.target]
        names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_defined_in_its_module(name):
    mod = importlib.import_module(f"binposet.{name}")
    for attr in mod.__all__:
        obj = getattr(mod, attr)
        home = getattr(obj, "__module__", None)
        if home is None:  # a constant: it must be assigned here, not imported
            assert attr in _assigned(mod), f"{mod.__name__}.{attr}"
        else:
            assert home == mod.__name__, f"{mod.__name__}.{attr} comes from {home}"


@pytest.mark.parametrize("name", ["__init__"] + MODULES)
def test_no_module_level_state(name):
    # a module-level container or function cache carries results from one
    # call to the next, so counters and timings would depend on call history
    mod = binposet if name == "__init__" else importlib.import_module(f"binposet.{name}")
    for attr in _assigned(mod) - {"__all__"}:
        value = getattr(mod, attr)
        assert not isinstance(value, (dict, list, set)), f"{mod.__name__}.{attr}"
    for attr, value in vars(mod).items():
        assert not hasattr(value, "cache_info"), f"{mod.__name__}.{attr} is a cache"


@pytest.mark.parametrize("name", ["__init__"] + [m for m in MODULES if m != "core"])
def test_only_core_builds_diagrams(name):
    # one path from integer cover lists to a GradedPoset: other modules go
    # through build_poset or core's builder instead of the raw constructor
    mod = binposet if name == "__init__" else importlib.import_module(f"binposet.{name}")
    for node in ast.walk(ast.parse(inspect.getsource(mod))):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            assert called != "GradedPoset", f"{mod.__name__} line {node.lineno}"


def test_package_exports_are_the_module_exports():
    # the package list is derived from the module lists; this pins the
    # derivation: no name twice, none missing, none extra, and cli left out
    exported = binposet.__all__
    assert len(exported) == len(set(exported))
    union = {"__version__"}
    for name in MODULES:
        if name != "cli":
            union.update(importlib.import_module(f"binposet.{name}").__all__)
    assert set(exported) == union


def test_package_namespace_holds_only_exports_and_submodules():
    # the package star-imports its modules, so a name that reaches it any
    # other way (an import added to __init__, a star-import left out of
    # the union) would be public without being exported
    for attr, value in vars(binposet).items():
        if attr.startswith("_"):
            continue
        if attr in MODULES:
            assert value is importlib.import_module(f"binposet.{attr}"), attr
        else:
            assert attr in binposet.__all__, attr
