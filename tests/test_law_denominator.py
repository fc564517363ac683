"""Source layout of the law denominator: c tau + d is formed in one helper.

Formed as a float expression, c Re tau + d cancels near the real axis and
keeps the rounding of the product; modular._affine forms it exactly.
"""

import ast
from pathlib import Path

import thetamod

PACKAGE = Path(thetamod.__file__).parent


def _is_attr(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == name


def _inline_denominators(path: Path) -> list[int]:
    """Lines holding <m>.c * <x> + <m>.d (either order of each operation)."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
            continue
        for prod, other in ((node.left, node.right), (node.right, node.left)):
            if (
                isinstance(prod, ast.BinOp)
                and isinstance(prod.op, ast.Mult)
                and (_is_attr(prod.left, "c") or _is_attr(prod.right, "c"))
                and _is_attr(other, "d")
            ):
                lines.append(node.lineno)
    return lines


def test_law_denominator_formed_only_by_the_helper():
    found = {p.name: _inline_denominators(p) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
