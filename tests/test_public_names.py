"""Every public name has a caller: a guard against dead library surface.

A name in `qsense.__all__` must be referenced somewhere under
`src/qsense` or `scripts/`, outside its own definition, unless it is
one of the named oracles below: independent implementations that only
the tests call, to check the fast paths against. `qsense.__all__` is
the concatenation of the library modules' own lists, so the guard sees
every module-public name.

The config-file layer sits above the library: only `cli` imports
`runconfig` (the package `__init__` re-exports it, as every module).
"""

import ast
import importlib
from pathlib import Path

import qsense

ROOT = Path(__file__).resolve().parents[1]

ORACLES = frozenset({
    # closed forms the real-only kernel cpmg_displacement_abs is checked against
    "alpha_cpmg",
    "total_displacement",
    "total_displacement_direct",
    # the 1/T^2 gradient bound and the Fisher identities of acceptance check 07
    "dalpha_abs_domega",
    "qfi_real",
    "qfi_complex",
    "cfi_binary",
    # recomputes the frozen constant G_RMS1 (acceptance check 02)
    "g_rms",
})


def referenced_names(path):
    """Names a module loads, outside the def or class that defines them."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and node.id not in inside:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return found


def test_public_names_have_callers_or_are_oracles():
    # __init__ only re-exports, so its imports and __all__ are not callers
    files = [p for p in sorted((ROOT / "src" / "qsense").glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py"))
    used = set().union(*(referenced_names(p) for p in files))
    assert set(qsense.__all__) - used == ORACLES


def library_modules():
    """The modules `qsense` re-exports: every one but `cli` and `__init__`."""
    paths = sorted((ROOT / "src" / "qsense").glob("*.py"))
    return [importlib.import_module(f"qsense.{p.stem}") for p in paths
            if p.stem not in ("cli", "__init__")]


def test_every_library_module_declares_all():
    missing = [m.__name__ for m in library_modules() if not hasattr(m, "__all__")]
    assert missing == []


def test_package_surface_has_no_duplicates():
    # a name exported by two modules would be shadowed silently by import *
    names = qsense.__all__
    assert sorted({n for n in names if names.count(n) > 1}) == []


def test_package_surface_is_the_module_lists():
    assert qsense.__all__ == [n for m in library_modules() for n in m.__all__]


def imported_modules(path):
    """Names of the qsense modules a file imports, relative or absolute."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            # `from . import x` and `from qsense import x` import the names
            module = (node.module or "").removeprefix("qsense").lstrip(".")
            found.update([module] if module else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(alias.name.removeprefix("qsense.") for alias in node.names)
    return found


def test_only_cli_imports_runconfig():
    importers = [p.stem for p in sorted((ROOT / "src" / "qsense").glob("*.py"))
                 if "runconfig" in imported_modules(p)]
    assert importers == ["__init__", "cli"]
