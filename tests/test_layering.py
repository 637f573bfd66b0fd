"""The package's modules import each other bottom up, in one fixed order."""

import ast
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
