"""Every private module-level name of the package is used in its own module.

A function, class or constant whose name starts with an underscore is not
meant to be reached from another module, so one that its own module never
reads is left over from a deletion.  The sources are parsed with `ast`,
never imported; dunder names such as `__version__` are not private.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ghzgame"
MODULES = sorted(SRC.glob("*.py"))


def defined_names(tree: ast.Module) -> list[str]:
    """The names the module's top-level definitions and assignments bind."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def unused_private_names(source: str) -> list[str]:
    tree = ast.parse(source)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    private = [name for name in defined_names(tree) if name[0] == "_" and name[-2:] != "__"]
    return [name for name in private if name not in read]


def test_every_module_is_checked():
    assert {path.stem for path in MODULES} >= {"core", "classical", "quantum", "noise", "cli"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_private_name_is_used(path):
    assert unused_private_names(path.read_text()) == []


def test_an_unused_private_name_is_found():
    source = (
        "__version__ = '1'\n"
        "_LIMIT, _SPARE = 3, 4\n"
        "_TABLE: dict = {}\n"
        "class _Helper:\n    pass\n"
        "def _basis(n):\n    return list(range(n))\n"
        "def _fill(n):\n    return _basis(n)\n"
        "def public():\n    return _fill(_LIMIT), _Helper\n"
    )
    assert unused_private_names(source) == ["_SPARE", "_TABLE"]
