"""Every name a module of the package imports is used in that module.

The sources are parsed with `ast`, never imported, so an import left behind
by a deletion shows up here. `__init__.py` is excepted: its imports are the
package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ghzgame"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def imported_names(tree: ast.Module) -> list[str]:
    """The names the module's imports bind, `from __future__` aside."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported_names(tree) if name not in used]


def test_every_module_is_checked():
    assert {path.stem for path in MODULES} >= {"core", "classical", "quantum", "noise", "cli"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "import math\nimport numpy as np\nfrom os import path, sep\n\nprint(np.pi, sep)\n"
    assert unused_imports(source) == ["math", "path"]
