"""Import layout of the package: numpy stays confined to the residue verifier, which loads
only on first use of a residue name or of verify-residues, and every exported name exists
and is declared once, in its module's __all__.  The README's "Command line" block is read
here, so each of its commands must keep running and only verify-residues may load numpy.
The verifier's first call loads nothing of numpy past `import numpy`: its contour
breakpoints and Gauss-Legendre rule are built without numpy.ma and numpy.polynomial, and
equal what those would give."""

import ast
import importlib
import json
import math
import os
import shlex
import subprocess
import sys
import types
from pathlib import Path

import pytest

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


def test_package_all_is_its_modules_lists():
    # each public name is declared once, in its module's __all__; the lazy residue names are residues.__all__
    names = thetamod.__all__
    residues = _module("residues")
    eager = [thetamod.dedekind, thetamod.errors, thetamod.modular, thetamod.theta, thetamod.transform]
    assert len(set(names)) == len(names)
    assert names == [name for module in eager for name in module.__all__] + list(thetamod._RESIDUE_NAMES)
    assert residues.__all__ is thetamod._RESIDUE_NAMES
    owner = {name: module for module in [*eager, residues] for name in module.__all__}
    assert [name for name in names if getattr(thetamod, name) is not getattr(owner[name], name)] == []


def test_package_all_is_the_public_names():
    # the eager names (every public global but the submodules) and the lazy residue names, once each
    names = thetamod.__all__
    eager = {name for name, value in vars(thetamod).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(set(names)) == len(names)
    assert set(names) == eager | set(thetamod._RESIDUE_NAMES)
    star = {}
    exec("from thetamod import *", star)  # resolves every name, the lazy ones through __getattr__
    assert set(star) - {"__builtins__"} == set(names)
    assert all(star[name] is getattr(thetamod, name) for name in names)


def test_lazy_names_are_listed_and_unknown_names_still_raise():
    assert set(thetamod._RESIDUE_NAMES) <= set(dir(thetamod))
    assert {"theta1_fast", "__version__"} <= set(dir(thetamod))
    with pytest.raises(AttributeError, match="no_such_name"):
        thetamod.no_such_name


def _targets(node) -> list[list[str]]:
    """The module paths one import statement names, split on dots (relative dots dropped)."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".") for alias in node.names]
    base = node.module.split(".") if node.module else []
    return [base] + [base + [alias.name] for alias in node.names]


def _names_numpy_or_residues(node) -> bool:
    return any(path[:1] == ["numpy"] or "residues" in path for path in _targets(node))


def _eager_imports(tree) -> list:
    """Import statements that run when the module is imported: every one outside a function body."""
    found, stack = [], list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.append(node)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))
    return found


def _tree(name: str):
    return ast.parse((PACKAGE / f"{name}.py").read_text())


def test_only_residues_loads_numpy_or_residues_at_import():
    eager = sorted(path.name for path in PACKAGE.glob("*.py")
                   if any(_names_numpy_or_residues(node) for node in _eager_imports(_tree(path.stem))))
    assert eager == ["residues.py"]


def test_cli_imports_residues_only_inside_its_command():
    tree = _tree("cli")
    command = next(node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                   and node.name == "_cmd_verify_residues")
    everywhere = [node for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom)) and _names_numpy_or_residues(node)]
    inside = [node for node in ast.walk(command) if node in everywhere]
    assert everywhere and inside == everywhere


def _readme_commands() -> list[list[str]]:
    """The README's "Command line" block, one argv per line, without the program name and comments."""
    block = (PACKAGE.parents[1] / "README.md").read_text().split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line.split("#")[0])[1:] for line in block.splitlines() if line.strip()]


README_COMMANDS = _readme_commands()
RESIDUE_CALLS = [argv for argv in README_COMMANDS if argv[0] == "verify-residues"]
NO_RESIDUE_CALLS = ([argv for argv in README_COMMANDS if argv not in RESIDUE_CALLS]
                    + [["--help"], ["--version"], ["eval", "--z", "nope", "--tau", "1i"]])

FRESH_PROCESS = """
import contextlib, io, json, sys
import thetamod
report = {"import thetamod": [0, "numpy" in sys.modules]}
from thetamod import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    report[" ".join(argv)] = [code, "numpy" in sys.modules]
report["same verify_residues"] = [0, thetamod.verify_residues is thetamod.residues.verify_residues]
print(json.dumps(report))
"""


def test_readme_shows_every_command():
    from thetamod import cli

    assert sorted({argv[0] for argv in README_COMMANDS}) == sorted(cli.COMMANDS)


def test_fresh_process_loads_numpy_only_for_verify_residues(tmp_path):
    # every README command exits 0, and only verify-residues (run last) loads numpy
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    run = subprocess.run([sys.executable, "-c", FRESH_PROCESS, json.dumps(NO_RESIDUE_CALLS + RESIDUE_CALLS)],
                         cwd=tmp_path, env=env, capture_output=True, text=True, check=True)
    report = json.loads(run.stdout)
    expected = {"import thetamod": [0, False], **{" ".join(argv): [0, False] for argv in NO_RESIDUE_CALLS}}
    expected["eval --z nope --tau 1i"] = [2, False]
    expected.update({" ".join(argv): [0, True] for argv in RESIDUE_CALLS})
    expected["same verify_residues"] = [0, True]
    assert report == expected
    assert (tmp_path / "residuals.csv").stat().st_size > 0


NO_INSPECT = """
import json, sys
loaded = {}
for name in ("thetamod", "thetamod.cli"):
    before = set(sys.modules)
    __import__(name)
    loaded[name] = sorted({"dataclasses", "inspect"} & (set(sys.modules) - before))
print(json.dumps(loaded))
"""


def test_import_loads_neither_dataclasses_nor_inspect(tmp_path):
    # the records are built by thetamod._record; a module a site hook preloaded is not counted
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    run = subprocess.run([sys.executable, "-c", NO_INSPECT], cwd=tmp_path, env=env, capture_output=True,
                         text=True, check=True)
    assert json.loads(run.stdout) == {"thetamod": [], "thetamod.cli": []}


FIRST_RESIDUE_CALL = """
import json, sys
from thetamod import residues
before = set(sys.modules)
residues.verify_residues(residues.VerifierParams(h=1, k=2, H=1, v=1.5, z=0.2 + 0.1j, m=3))
print(json.dumps(sorted(name for name in set(sys.modules) - before if name.split(".")[0] in ("numpy", "inspect"))))
"""


def test_first_residue_call_loads_no_more_of_numpy(tmp_path):
    # numpy.ma (np.unique, which imports inspect) and numpy.polynomial (leggauss) stay unloaded; modules
    # loaded before the call, by import numpy or a site hook, are not counted
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    run = subprocess.run([sys.executable, "-c", FIRST_RESIDUE_CALL], cwd=tmp_path, env=env, capture_output=True,
                         text=True, check=True)
    assert json.loads(run.stdout) == []


def test_gauss_legendre_table_is_leggauss_bit_for_bit():
    from numpy.polynomial.legendre import leggauss

    residues = _module("residues")
    nodes, weights = leggauss(24)
    assert residues._GL_NODES.tobytes() == nodes.tobytes()
    assert residues._GL_WEIGHTS.tobytes() == weights.tobytes()
    nodes, weights = leggauss(12)
    assert residues._GL12_NODES.tobytes() == nodes.tobytes()
    assert residues._GL12_WEIGHTS.tobytes() == weights.tobytes()


def test_contour_breakpoints_equal_the_sorted_unique_form(monkeypatch):
    # the first panels of contour_integral, for every m, against those of np.unique's breakpoints
    import numpy as np

    residues = _module("residues")
    first = []

    def record_first_panels(p, a, b):
        first.append((a, b))
        raise StopIteration

    monkeypatch.setattr(residues, "_gl_panels", record_first_panels)
    for m in range(1, 65):
        p = residues.VerifierParams(h=1, k=2, H=1, v=1.5, z=0.2 + 0.1j, m=m)
        with pytest.raises(StopIteration):
            residues.contour_integral(p)
        steps = 0.5 ** np.arange(1, max(8, math.ceil(math.log2(8.0 * p.order))) + 1)
        breaks = np.unique(np.r_[0.0, steps, 1.0 - steps, 1.0])
        ea = np.array(residues._vertices(p))
        eb = np.roll(ea, -1)
        a, b = first.pop()
        assert a.tobytes() == (ea[:, None] + (eb - ea)[:, None] * breaks[:-1]).ravel().tobytes()
        assert b.tobytes() == (ea[:, None] + (eb - ea)[:, None] * breaks[1:]).ravel().tobytes()
