"""The machine's pace, measured with a fixed reference slice of work.

A shared host runs each of its processes at a fast or a slow speed, the
speed changing within a second and the share of slow time drifting over
minutes, by up to half again. A timing taken beside reference slices and
divided by their mean time cancels that speed; multiplied by REF_SLICE_S
it reads as seconds at a fixed reference pace. The slice mixes the kinds
of work pumpsim does: interpreted loops, small-matrix products and float
formatting.
"""

import time

import numpy as np

# reference slices run for this share of the time they pace
PACE_SHARE = 0.2
# the reference pace: about one slice's time on a 2-vCPU Xeon KVM guest at
# its fast speed. A constant, so paced timings compare across commits.
REF_SLICE_S = 250e-6

_MATRIX = np.linspace(0.0, 1.0, 64).reshape(8, 8)
_VALUES = np.linspace(0.0, 1.0, 30).tolist()


def reference_slice() -> int:
    total = 0
    for i in range(2000):
        total += i * i
    x = _MATRIX
    for _ in range(30):
        x = (_MATRIX @ x) / 8.0
    ",".join(f"{v:.17g}" for v in _VALUES)
    return total


def pace(seconds: float) -> tuple:
    """Run reference slices for about `seconds`; (elapsed, slices run)."""
    start, slices = time.perf_counter(), 0
    while True:
        reference_slice()
        slices += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return elapsed, slices


def at_reference_pace(seconds: float, slice_s: float) -> float:
    """`seconds` measured beside slices of mean time `slice_s`, rescaled
    to the reference pace."""
    return seconds * REF_SLICE_S / slice_s
