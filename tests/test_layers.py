"""The package's modules import one way, down a fixed stack of layers."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import opnorm_lab

PACKAGE = Path(opnorm_lab.__file__).parent

#: Each module may import only modules of a lower layer.
LAYERS = {
    "errors": 0,
    "quadrature": 1,
    "symbols": 2,
    "random_families": 3,
    "spaces": 3,
    "operators": 4,
    "certify": 5,
    "reports": 6,
    "selftest": 6,
    "cli": 7,
    "__init__": 8,
}


def _package_imports(tree: ast.Module):
    """(imported module, import node) for each relative import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                for alias in node.names:
                    yield alias.name, node
            else:
                yield node.module.split(".")[0], node
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
            for name in names:
                if name and name.split(".")[0] == "opnorm_lab":
                    parts = name.split(".")
                    yield (parts[1] if len(parts) > 1 else "__init__"), node


def _violations():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        importer = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        local = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
        }
        for imported, node in _package_imports(tree):
            where = f"{importer}.py:{node.lineno} imports {imported}"
            if id(node) in local:
                found.append(f"{where} inside a function body")
            elif LAYERS[imported] >= LAYERS[importer]:
                found.append(f"{where}, which is not below it")
    return found


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in PACKAGE.glob("*.py")) == sorted(LAYERS)


def test_imports_run_down_the_layers():
    assert _violations() == []


def test_cli_import_does_not_load_scipy():
    # scipy serves only the Gauss-Jacobi rules of Bergman norms; every other
    # command starts without paying for its import.
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", "import opnorm_lab.cli, sys; print('scipy' in sys.modules)"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "False"
