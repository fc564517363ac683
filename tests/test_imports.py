"""Import layout of the package: numpy stays confined to the residue verifier."""

import ast
from pathlib import Path

import thetamod

PACKAGE = Path(thetamod.__file__).parent


def _imported_roots(path: Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            roots.add(node.module.split(".")[0])
    return roots


def test_only_residues_imports_numpy():
    importers = sorted(p.name for p in PACKAGE.glob("*.py") if "numpy" in _imported_roots(p))
    assert importers == ["residues.py"]
