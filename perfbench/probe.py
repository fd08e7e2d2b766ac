"""Set-up probe, run in a fresh interpreter for each sample:

    python3 perfbench/probe.py <src dir>

Times what every `pumpsim` invocation pays before its first job: importing
the package (mostly scipy), the first branching table and the first rate
matrix. Then reference slices run for a share of that time and give the
machine's pace (see pace.py). Prints one JSON object.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])

from pumpsim import kinetics, structure  # noqa: E402

t1 = time.perf_counter()
structure.branching_table()
t2 = time.perf_counter()
kinetics.assemble_rate_matrix([kinetics.beam(4, 4, 0.019, -0.5, 0.013),
                               kinetics.beam(3, 4, 0.023, 0.0, 0.013)])
t3 = time.perf_counter()

from pace import PACE_SHARE, pace  # noqa: E402

elapsed, slices = pace(PACE_SHARE * (t3 - t0))
print('{"setup_s": %r, "import_s": %r, "branching_table_cold_s": %r, "pace_s": %r}'
      % (t3 - t0, t1 - t0, t2 - t1, elapsed / slices))
