"""Every narrative script in demos/ runs to completion against the package."""

import glob
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(REPO, "demos", "*.py")))


@pytest.mark.parametrize("script", DEMOS, ids=os.path.basename)
def test_demo_runs(script, tmp_path):
    # demos write their outputs to the working directory; the package is
    # found through an absolute path because the run leaves the repo
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(REPO, "src"), env.get("PYTHONPATH")) if p
    )
    run = subprocess.run(
        [sys.executable, script], capture_output=True, text=True,
        env=env, cwd=tmp_path, timeout=300,
    )
    assert run.returncode == 0, run.stderr
