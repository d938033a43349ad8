"""Every public name has a caller: a guard against dead library surface.

A name in `qsense.__all__` must be referenced somewhere under
`src/qsense` or `scripts/`, outside its own definition, unless it is
one of the named ORACLES below, each kept for the reason given there,
or one of the POSTERIOR_API or PLAN_API functions.
The independent implementations that only the tests need live in
`tests/oracles.py`, which the library never imports. `qsense.__all__`
is the concatenation of the library modules' own lists, so the guard
sees every module-public name.

The benchmark under `bench/` imports library names by name, so each
of those must exist. The config-file layer sits above the library:
only `cli` imports `runconfig` (the package `__init__` re-exports it,
as every module).
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import qsense

ROOT = Path(__file__).resolve().parents[1]

ORACLES = frozenset({
    # the one-period closed form: the benchmark imports it by name
    # (test_benchmark_imports_resolve)
    "alpha_cpmg",
    # the binary-readout Fisher identity of acceptance check 07, for the
    # efficiency gate that will give cfi_binary a caller in the run loop
    "qfi_real",
    "cfi_binary",
})

# the Posterior-level operations: the run loop calls the array cores they
# wrap, and TestArrayCores checks each against its core
POSTERIOR_API = frozenset({"bayes_update", "mle", "uncertainty", "mass_beyond", "regrid"})

# the plan functions: the run loop calls the cores they wrap, and
# TestPlanReplay replays them against each run's plan columns
PLAN_API = frozenset({"stage1_plan", "stage2_plan"})


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
    assert set(qsense.__all__) - used == ORACLES | POSTERIOR_API | PLAN_API


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


def bench_imports():
    """(module, name) for each `from qsense... import name` under bench/."""
    found = []
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qsense":
                found += [(node.module, alias.name) for alias in node.names]
    return found


def test_benchmark_imports_resolve():
    imports = bench_imports()
    unresolved = []
    for module, name in imports:
        mod = importlib.import_module(module)
        # `from qsense import cli` names a submodule that import qsense does not load
        if not (hasattr(mod, name) or hasattr(mod, "__path__")
                and importlib.util.find_spec(f"{module}.{name}") is not None):
            unresolved.append(f"{module}.{name}")
    assert unresolved == []
    # the reason alpha_cpmg is in ORACLES
    assert ("qsense.model", "alpha_cpmg") in imports


def test_library_never_imports_the_tests():
    tests = {p.stem for p in (ROOT / "tests").glob("*.py")} | {"tests"}
    importers = [p.stem for p in sorted((ROOT / "src" / "qsense").glob("*.py"))
                 if {m.split(".")[0] for m in imported_modules(p)} & tests]
    assert importers == []
