"""Source hygiene of ``src/stochrec``: no module keeps an import it never
uses, no module-level private name is left that nothing references, every
``__all__`` entry names something the module has, and every export has a
caller.  All four are the leftovers a deletion tends to leave behind.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "stochrec"
MODULES = sorted(SRC.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}


def exported(tree: ast.Module) -> set[str]:
    """The string entries of a module-level ``__all__`` list or tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def loaded(tree: ast.Module) -> set[str]:
    """Names the module reads, as bare names or as attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def imported(tree: ast.Module, package_init: bool = False) -> set[str]:
    """Names bound by the module's import statements.

    In a package ``__init__``, ``from .m import *`` binds the submodule ``m``
    and counts as an import of it, used only when ``m.__all__`` is read.
    Anywhere else a star import binds no name of its own, so it is recorded
    as ``*``, which nothing reads, and is always reported unused.
    """
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" and package_init and node.level == 1 and node.module:
                    names.add(node.module.split(".")[0])
                else:
                    names.add(alias.asname or alias.name.split(".")[0])
    return names


def private_definitions(tree: ast.Module) -> set[str]:
    """Module-level ``_name`` functions, classes and assignments (not dunders)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


@pytest.mark.parametrize("name", sorted(TREES))
def test_no_unused_import(name):
    tree = TREES[name]
    unused = imported(tree, name == "__init__.py") - loaded(tree) - exported(tree)
    assert not unused, f"{name} imports {sorted(unused)} and never uses them"


@pytest.mark.parametrize("name", sorted(TREES))
def test_no_unreferenced_private_name(name):
    # a private name may be read by a sibling module, so every module's reads count
    read_anywhere = set().union(*(loaded(t) for t in TREES.values()))
    unreferenced = private_definitions(TREES[name]) - read_anywhere
    assert not unreferenced, f"{name} defines {sorted(unreferenced)} and nothing reads them"


PACKAGE_AND_MODULES = ["stochrec"] + [
    f"stochrec.{path.stem}" for path in MODULES if path.stem != "__init__"
]


@pytest.mark.parametrize("name", PACKAGE_AND_MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ lists {missing}, which it does not define"


# seeds, _ks and cli stay out of the package namespace
REEXPORTED = ["diagnostics", "errors", "measure_solution", "path_space", "random_measure", "recurrence"]


def test_package_reexports_every_module_export():
    # a public name is declared once, in its module's __all__; the package adds only __version__
    package = importlib.import_module("stochrec")
    modules = [importlib.import_module(f"stochrec.{name}") for name in REEXPORTED]
    expected = ["__version__"] + [entry for module in modules for entry in module.__all__]
    assert package.__all__ == expected
    assert len(set(expected)) == len(expected), "two modules export the same name"
    for module in modules:
        for entry in module.__all__:
            assert getattr(package, entry) is getattr(module, entry), f"stochrec.{entry}"


# module -> the private names it may import from a sibling, each for one reason
ALLOWED_PRIVATE_IMPORTS = {
    # the package's one exact comparison (float64 bit patterns)
    "measure_solution.py": {("path_space", "_same_bits")},
    # the shift rule the CLI applies before it sizes the rectangle family
    "cli.py": {("diagnostics", "_shifts")},
}


@pytest.mark.parametrize("name", sorted(TREES))
def test_no_private_import_across_modules(name):
    # a private name belongs to its module; ``from . import _ks as _sps`` binds
    # a module, not a module's private name, so it stays outside the rule
    found = {
        (node.module, alias.name)
        for node in ast.walk(TREES[name])
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    }
    unexpected = found - ALLOWED_PRIVATE_IMPORTS.get(name, set())
    assert not unexpected, f"{name} imports private names {sorted(unexpected)}"


def string_constants(tree: ast.AST) -> set[str]:
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


# mix64 is the splitmix64 finalizer that the seed rule in seeds.py is stated
# in; the draws call its private halves, so it is public as the rule's reference
CALLERLESS_EXPORTS = {"mix64"}


def callers() -> set[str]:
    # a caller is a read in a src module other than the package's
    # __init__, in the acceptance suite, in the README's Python session, or
    # a name or string in the benchmark harness (which wraps by name)
    (session,) = re.findall(
        r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), flags=re.S
    )
    readers = [tree for name, tree in TREES.items() if name != "__init__.py"]
    readers += [parse(ROOT / "tests" / "test_acceptance.py"), ast.parse(session)]
    bench = [parse(path) for path in sorted((ROOT / "perfbench").glob("*.py"))]
    return set().union(*map(loaded, readers + bench), *map(string_constants, bench))


@pytest.mark.parametrize("name", sorted(TREES))
def test_every_export_has_a_caller(name):
    callerless = exported(TREES[name]) - callers() - CALLERLESS_EXPORTS
    assert not callerless, f"{name} exports {sorted(callerless)} and nothing calls them"


def test_scan_sees_every_module():
    assert {"random_measure.py", "measure_solution.py", "cli.py"} <= set(TREES)
