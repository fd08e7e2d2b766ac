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


def nodes(path):
    """Every node of the syntax tree of `path`."""
    with open(path, encoding="utf-8") as fh:
        return ast.walk(ast.parse(fh.read(), filename=path))


def imported_roots(path):
    """Top-level names of every module `path` imports, at any depth."""
    for node in nodes(path):
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


@pytest.mark.parametrize("path", SOURCES, ids=os.path.basename)
def test_no_state_assignment(path):
    # a generator is placed through numpy's documented Philox constructor,
    # never by writing a state dict into its `.state`
    stored = {node.attr for node in nodes(path)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)}
    assert "state" not in stored


def run_python(code):
    """Run `code` in a fresh interpreter that imports this copy of pumpsim."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.dirname(PACKAGE), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)


def test_import_leaves_numpy_random_unloaded():
    # numpy loads numpy.random on first attribute access; the recoil walk
    # reaches it on its first call, not at import
    result = run_python("import sys, pumpsim, pumpsim.cli\n"
                        "sys.exit('numpy.random' in sys.modules)\n")
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("imports, unloaded", [
    # the package root re-exports nothing, so it loads no submodule
    ("pumpsim", ("pumpsim.",)),
    # a rate-model client loads neither the spectrum, heating and fit
    # modules nor their imports
    ("pumpsim.kinetics, pumpsim.structure",
     ("pumpsim.raman", "pumpsim.heating", "pumpsim.fitting", "pumpsim.config",
      "pumpsim.cli", "concurrent.futures", "numpy.random")),
    # numpy.polynomial costs 3-5 ms to import; the spectrum's Fourier route
    # loads it on its first call, so no other command pays for it
    ("pumpsim.cli", ("numpy.polynomial",)),
], ids=["root", "kinetics", "cli"])
def test_import_loads_only_what_it_names(imports, unloaded):
    result = run_python(f"import sys, {imports}\n"
                        f"print([m for m in sys.modules if m.startswith({unloaded!r})])\n")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
