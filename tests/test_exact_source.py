"""The library computes in ints and Fractions only: no module of the package
holds a float literal, the name float, a true division `/`, or a math
function outside the integer ones."""

import ast
from pathlib import Path

import pytest

import denumerant

INTEGER_MATH = {"comb", "factorial", "gcd", "lcm", "prod", "isqrt"}
SOURCES = sorted(Path(denumerant.__file__).parent.glob("*.py"))


def _float_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, source) of every float literal, load of the name float, `/` or
    `/=`, and math attribute or import outside INTEGER_MATH in the tree."""
    found = []
    for node in ast.walk(tree):
        if (
            (isinstance(node, ast.Constant) and type(node.value) is float)
            or (isinstance(node, ast.Name) and node.id == "float")
            or (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div))
            or (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "math"
                and node.attr not in INTEGER_MATH
            )
            or (
                isinstance(node, ast.ImportFrom)
                and node.module == "math"
                and any(alias.name not in INTEGER_MATH for alias in node.names)
            )
        ):
            found.append((node.lineno, ast.unparse(node)))
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floats(path):
    assert _float_uses(ast.parse(path.read_text())) == []


def test_each_form_is_found():
    src = "a = 0.5\nb = float(a)\nc = a / 2\nc /= 2\nd = math.log10(c)\nfrom math import sqrt\ne = math.gcd(4, 6) // 2"
    assert sorted(line for line, _ in _float_uses(ast.parse(src))) == [1, 2, 3, 4, 5, 6]
