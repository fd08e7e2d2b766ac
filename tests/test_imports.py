"""What the package imports: numpy alone, and only the parts of it in use."""

import ast
import glob
import os
import subprocess
import sys

import pytest

import pumpsim

PACKAGE = os.path.dirname(os.path.abspath(pumpsim.__file__))
SOURCES = sorted(glob.glob(os.path.join(PACKAGE, "*.py")))


def imported_roots(path):
    """Top-level names of every module `path` imports, at any depth."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_sources_found():
    assert os.path.join(PACKAGE, "fitting.py") in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=os.path.basename)
def test_no_scipy_import(path):
    # scipy serves the tests as an oracle; the package runs on numpy alone
    assert "scipy" not in set(imported_roots(path))


def test_import_leaves_numpy_random_unloaded():
    # numpy loads numpy.random on first attribute access; the recoil walk
    # reaches it on its first call, not at import
    code = ("import sys, pumpsim, pumpsim.cli\n"
            "sys.exit('numpy.random' in sys.modules)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.dirname(PACKAGE), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
