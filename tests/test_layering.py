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
