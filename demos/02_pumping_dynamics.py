"""
Pumping dynamics
================

Integrates the rate equations for the polarizer + repumper configuration
and shows how the population accumulates in the magnetically insensitive
m=0 sublevel: ideally closed with pure pi light, slightly degraded by the
measured polarization contamination. Also demonstrates the reduced
equation set obtained by dropping the far-off-resonant hyperfine lines.
"""


from pumpsim import constants as cst
from pumpsim.kinetics import (
    Beam,
    assemble_rate_matrix,
    integrate_rk4,
    prune,
    pump_metrics,
    uniform_f4,
    write_trajectory_csv,
)

DT = 0.01 / cst.GAMMA       # fixed step, one hundredth of a lifetime
T_END = 0.005               # 5 ms of pumping


def beams(alpha):
    # polarizer on 4 -> 4' at -0.5 linewidths, repumper on 3 -> 4'
    return [Beam(4, 4, 0.019, -0.5, alpha), Beam(3, 4, 0.023, 0.0, alpha)]


# %% how much does pruning remove?
full = assemble_rate_matrix(beams(0.013))
reduced, active = prune(full, 1e-3)
print(f"stimulated terms: {full.terms.size} -> {reduced.terms.size} "
      f"after pruning; {active} sublevels stay coupled")
overlap = full.terms["overlap"]
print(f"line-overlap ratio across transitions: {overlap.max() / overlap.min():.0f}")

# %% dynamics with and without contamination
curves = {}
for alpha in (0.0, 0.013, 0.05):
    matrix, _ = prune(assemble_rate_matrix(beams(alpha)), 1e-3)
    traj = integrate_rk4(matrix, uniform_f4(), DT, T_END)
    metrics = pump_metrics(traj)
    curves[alpha] = (metrics.times, metrics.m0_fraction)
    tau = "never" if metrics.tau_50 is None else f"{metrics.tau_50 * 1e3:.3f} ms"
    print(f"alpha={alpha:<6}: m0 fraction at 5 ms = {metrics.m0_fraction[-1]:.5f}, "
          f"tau_50 = {tau}, photons to tau_50 = "
          f"{metrics.photons_to_tau50 and round(metrics.photons_to_tau50, 2)}")

# %% trajectory export for external plotting
matrix, _ = prune(assemble_rate_matrix(beams(0.013)), 1e-3)
traj = integrate_rk4(matrix, uniform_f4(), DT, T_END)
write_trajectory_csv(traj, "pumping_trajectory.csv")
print("\nwrote pumping_trajectory.csv (1202 samples x 43 populations)")

# %% optional plot
try:
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots()
    for alpha, (t, frac) in curves.items():
        ax.plot(t * 1e3, frac, label=f"contamination {alpha}")
    ax.set_xlabel("pumping time (ms)")
    ax.set_ylabel("fraction of ground atoms in m=0")
    ax.legend()
    fig.tight_layout()
    fig.savefig("pumping_dynamics.png", dpi=150)
    print("wrote pumping_dynamics.png")
except ImportError:
    pass
