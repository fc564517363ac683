"""Import layout of the package: numpy stays confined to the residue verifier, and every
exported name exists and is what the package imports."""

import ast
import importlib
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


def _module(name: str):
    return importlib.import_module(f"thetamod.{name}")


def test_every_exported_name_exists():
    for path in PACKAGE.glob("*.py"):
        module = _module(path.stem) if path.stem != "__init__" else thetamod
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"{path.name} exports missing names {missing}"


def test_package_imports_only_exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        exported = set(_module(node.module).__all__)
        unlisted = [alias.name for alias in node.names if alias.name not in exported]
        assert not unlisted, f"thetamod imports {unlisted} from {node.module}, which does not export them"
