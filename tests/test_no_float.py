"""No floating point in the library: every rational it computes stays exact.

An AST pass over ``src/translation_lab/*.py`` checks three rules:

* every true division ``/`` has a ``Fraction(...)`` call as its left operand,
  so it divides exactly even when both operands are ``int``;
* there is no ``float(...)`` call;
* there is no float literal, except in the fields named in
  ``FLOAT_LITERAL_EXCEPTIONS``, which hold wall-clock timings that never
  enter the canonical report bytes.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "translation_lab").glob("*.py"))

# (file, class, field): a float literal may appear in the field's default
FLOAT_LITERAL_EXCEPTIONS = {
    # per-check wall time, emitted only under --timings
    ("reports.py", "CheckReport", "elapsed"),
}


def _is_fraction_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Fraction"


def _excepted_literals(path: Path, tree: ast.Module) -> set[int]:
    allowed = set()
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        for stmt in cls.body:
            if (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and (path.name, cls.name, stmt.target.id) in FLOAT_LITERAL_EXCEPTIONS
                and stmt.value is not None
            ):
                allowed |= {id(n) for n in ast.walk(stmt.value)}
    return allowed


def float_violations(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = _excepted_literals(path, tree)
    out = []
    for node in ast.walk(tree):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div) and not _is_fraction_call(node.left):
            out.append(f"{where}: '/' without a Fraction(...) left operand")
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            out.append(f"{where}: '/=' divides without a Fraction(...) left operand")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            out.append(f"{where}: float(...) call")
        elif isinstance(node, ast.Constant) and isinstance(node.value, float) and id(node) not in allowed:
            out.append(f"{where}: float literal {node.value!r}")
    return out


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_has_no_floating_point(path):
    assert float_violations(path) == []


def test_every_exception_names_a_float_literal():
    by_name = {p.name: p for p in SOURCES}
    for filename, cls, field in FLOAT_LITERAL_EXCEPTIONS:
        tree = ast.parse(by_name[filename].read_text())
        literals = {id(n) for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, float)}
        assert literals & _excepted_literals(by_name[filename], tree), (filename, cls, field)


def test_the_lint_catches_each_rule(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from fractions import Fraction\n"
        "a = 1 / 2\n"
        "b = Fraction(1) / 2\n"
        "c = float('1')\n"
        "d = 0.5\n"
        "class CheckReport:\n"
        "    elapsed: float = 0.0\n"
        "e = 3\n"
        "e /= 2\n"
    )
    found = float_violations(bad)
    assert sorted(int(v.split(":")[1]) for v in found) == [2, 4, 5, 7, 9]
