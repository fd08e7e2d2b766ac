"""The benchmark's set-up probe runs against the package as it stands.

perfbench/probe.py calls into pumpsim directly, so a name it uses that the
package drops would break only the benchmark; this runs it as the benchmark
does, in a fresh interpreter."""

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_probe_prints_setup_timings():
    run = subprocess.run(
        [sys.executable, os.path.join("perfbench", "probe.py"), "src"],
        capture_output=True, text=True, cwd=REPO, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    record = json.loads(run.stdout.strip().splitlines()[-1])
    assert set(record) == {"setup_s", "import_s", "branching_table_cold_s", "pace_s"}
    assert all(isinstance(v, float) and v > 0.0 for v in record.values())
