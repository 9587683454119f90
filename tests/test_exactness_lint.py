"""Exactness lint: the package computes over Z and Q only, so its source
holds no float literal, no float() call, and divides only a Fraction."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "flagcsm"


def _offences(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, "float literal"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "float":
            yield node.lineno, "float() call"
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            yield node.lineno, "in-place true division"
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            left = node.left
            if not (isinstance(left, ast.Call)
                    and isinstance(left.func, ast.Name)
                    and left.func.id == "Fraction"):
                yield node.lineno, "true division of a non-Fraction"


def test_no_floats_in_package():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = ["%s:%d: %s" % (path.name, line, what)
             for path in files
             for line, what in _offences(ast.parse(path.read_text()))]
    assert not found, "\n".join(found)


def test_lint_catches_each_offence():
    src = "a = 0.5\nb = float(3)\nc = x / y\nd = Fraction(1) / y\ne /= 2\n"
    assert sorted(_offences(ast.parse(src))) == [
        (1, "float literal"), (2, "float() call"),
        (3, "true division of a non-Fraction"), (5, "in-place true division")]
