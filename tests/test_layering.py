"""The package's modules import each other bottom up, in one fixed order,
and nothing from outside the standard library but numpy."""

import ast
import sys
from pathlib import Path

import sctopo

# Each module may import only the modules before it.  ``__init__`` and
# ``__main__`` only re-export and start the command line, so they are not
# layers.
LAYERS = ("complexes", "simplex_lp", "smoothness", "metrics", "datagen",
          "datasets", "blp", "learners", "experiment", "cli")
PACKAGE = Path(sctopo.__file__).resolve().parent


def _relative_imports(path):
    """Names of the package modules that ``path`` imports relatively."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                names.add(node.module.split(".")[0])
            else:  # from . import blp
                names.update(alias.name for alias in node.names)
    return names


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
    assert modules == set(LAYERS)


def test_modules_import_only_lower_layers():
    for rank, name in enumerate(LAYERS):
        imported = _relative_imports(PACKAGE / f"{name}.py")
        higher = sorted(imported - set(LAYERS[:rank]))
        assert not higher, f"{name} imports {higher}, not below it"


def _absolute_imports(path):
    """Top-level names of the modules that ``path`` imports absolutely."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_numpy_is_the_only_runtime_dependency():
    # the tests also have scipy, so an import of it here would go unnoticed
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    for path in sorted(PACKAGE.rglob("*.py")):
        foreign = sorted(_absolute_imports(path) - allowed)
        assert not foreign, f"{path.name} imports {foreign}"


def _unused_imports(path):
    """Names that ``path`` imports but never reads; ``__future__`` aside."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_every_import_is_used():
    # an import left behind when a derivation moves, or one kept only so
    # that code outside the package can patch the name, fails here
    for name in LAYERS:
        unused = sorted(_unused_imports(PACKAGE / f"{name}.py"))
        assert not unused, f"{name} imports {unused} without using them"
