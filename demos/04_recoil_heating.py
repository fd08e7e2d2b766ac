"""
Recoil heating of the pumping process
=====================================

Every fluorescence cycle kicks the atom by one recoil velocity twice: once
along the (back-reflected, random-sign) pump beam and once in a random
direction from spontaneous emission. The kinetics counts the expected
cycles per initial sublevel; the Monte Carlo walk turns them into an rms
velocity increase along the Raman detection axis. There an emission recoil
projects uniformly on [-1, 1] (Archimedes' hat-box theorem), and an
absorption recoil along the pump, orthogonal to the detection axis as in
the paper, projects to 0, so only the emission recoils show up.
"""

import numpy as np

from pumpsim.heating import (
    expected_cycles,
    heating_summary,
    recoil_walk,
    write_heating_summary,
)
from pumpsim.kinetics import Beam

beams = [Beam(4, 4, 0.019, -0.5, 0.0), Beam(3, 4, 0.023, 0.0, 0.0)]

# %% expected fluorescence cycles until 95% of the sample is dark
report = expected_cycles(beams, pruned=True)
print("cycles per initial sublevel:")
for m in range(-4, 5):
    print(f"  m={m:+d}: {report.per_sublevel[m]:6.2f}")
print(f"sublevel average: {report.average:.2f}; uniform start: {report.uniform:.2f}")

# %% the isotropic-walk closed form and the sqrt(N) scaling
for n in (4, 16, 64):
    walk = recoil_walk(n, samples=100_000, seed=11)
    print(f"N={n:3d} cycles -> rms {walk.delta_vrms:.3f} v_r "
          f"(closed form sqrt(N/3) = {np.sqrt(n / 3):.3f})")

# %% the composed estimate for the pumping configuration
summary = heating_summary(beams, initial_vrms=4.0, samples=100_000, seed=12345)
print(f"\ncomposed: {summary.result.mean_cycles:.2f} mean cycles -> "
      f"delta v_rms = {summary.result.delta_vrms:.3f} +- "
      f"{summary.result.standard_error:.3f} v_r")
print(f"initial 4.0 v_r -> {summary.final_vrms_quadrature:.2f} v_r in quadrature, "
      f"{summary.final_vrms_additive:.2f} v_r additive")
write_heating_summary(summary, "heating_summary.txt")
print("wrote heating_summary.txt")

# %% optional histogram plot
try:
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots()
    ax.hist(summary.result.projected, bins=80, density=True)
    ax.set_xlabel("velocity along detection axis (v_r)")
    ax.set_ylabel("probability density")
    fig.tight_layout()
    fig.savefig("heating_histogram.png", dpi=150)
    print("wrote heating_histogram.png")
except ImportError:
    pass
