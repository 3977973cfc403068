"""Every name that a module of the package imports is used in that module.

``__init__.py`` is left out: it imports names to export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "translation_lab"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_the_guard_sees_an_unused_import():
    source = "from .groups import FreeAbelianContext, FreeGroupContext\nFreeGroupContext(2)\n"
    assert unused_imports(source) == ["FreeAbelianContext"]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_a_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []
