"""No function of the package binds a plain local name that it never reads.

A plain local is the one target of an assignment such as ``x = ...`` in a
function's own body; a name starting with ``_`` is exempt.  A read anywhere
inside the function, a nested function included, counts.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "translation_lab"
MODULES = sorted(PACKAGE.glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(function):
    """The nodes of ``function``'s body outside the functions and classes nested in it."""
    todo = list(ast.iter_child_nodes(function))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def unused_locals(source: str) -> list[str]:
    """``function.name`` for each plain local that ``source`` binds and never reads, sorted."""
    out = []
    for function in ast.walk(ast.parse(source)):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound = {
            node.targets[0].id
            for node in _own_nodes(function)
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)
        }
        scopes = (ast.Global, ast.Nonlocal)  # a name declared so is not a local
        declared = {name for node in _own_nodes(function) if isinstance(node, scopes) for name in node.names}
        read = {node.id for node in ast.walk(function) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        out += [f"{function.name}.{name}" for name in bound - read - declared if not name.startswith("_")]
    return sorted(out)


def test_the_guard_sees_a_local_that_is_never_read():
    source = (
        "def f(xs):\n"
        "    index = {x: i for i, x in enumerate(xs)}\n"
        "    total = 0\n"
        "    _skipped = 1\n"
        "    a, b = xs\n"
        "    def g():\n"
        "        return total\n"
        "    return g\n"
    )
    assert unused_locals(source) == ["f.index"]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_a_function_reads_every_local_it_binds(path):
    assert unused_locals(path.read_text()) == []
