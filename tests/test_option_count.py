"""The package's functions take no more optional parameters than they did.

An optional parameter is a default on a ``def`` or a ``lambda``, nested ones
included.  Options became module constants or required arguments where one
value served every caller, so a new one must be counted here on purpose.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "translation_lab"
MOST_OPTIONAL_PARAMETERS = 45


def optional_parameters(source: str) -> int:
    """The defaults of every ``def`` and ``lambda`` in ``source``."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    return sum(
        len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, functions)
    )


def test_the_guard_counts_nested_and_keyword_defaults():
    source = "def f(a, b=1, *, c=2, d):\n    def g(x=0):\n        return lambda y=1: y\n    return g\n"
    assert optional_parameters(source) == 4


def test_optional_parameters_do_not_grow():
    count = sum(optional_parameters(path.read_text()) for path in PACKAGE.glob("*.py"))
    assert count <= MOST_OPTIONAL_PARAMETERS
