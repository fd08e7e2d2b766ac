"""
Fitting the polarization contamination
======================================

The contamination of the pump polarization is the single adjustable
parameter of the model. This demo generates synthetic observations of the
m=0 population at a known contamination, then recovers it by bracketed
scalar minimization, both from clean and from noisy data, and jointly from
an m=0 plus m=1 pair of series.
"""

import numpy as np

from pumpsim.fitting import (
    ObservationSeries,
    fit_depolarization,
    residual_report,
    simulate_observable,
)
from pumpsim.kinetics import Beam
from pumpsim.structure import Sublevel

templates = [Beam(4, 4, 0.019, -0.5), Beam(3, 4, 0.023, 0.0)]
times = np.linspace(1e-4, 4.8e-3, 80)
TRUTH = 0.013

# %% clean round trip
m0 = simulate_observable(templates, TRUTH, times)
clean = fit_depolarization([ObservationSeries(times, m0)], templates)
print(f"clean data:  alpha_hat = {clean.depolarization:.6f} "
      f"(sse {clean.sse:.2e}, {clean.iterations} evaluations)")

# %% joint fit of two observables
m1 = simulate_observable(templates, TRUTH, times, observable=Sublevel("g", 4, 1))
joint = fit_depolarization(
    [
        ObservationSeries(times, m0, observable=Sublevel("g", 4, 0)),
        ObservationSeries(times, m1, observable=Sublevel("g", 4, 1)),
    ],
    templates,
)
print(f"joint fit:   alpha_hat = {joint.depolarization:.6f}")

# %% robustness against 2% additive noise
estimates = []
for seed in range(20):
    rng = np.random.Generator(np.random.Philox(seed))
    noisy = np.clip(m0 + rng.uniform(-0.02, 0.02, m0.size), 0.0, 1.0)
    fit = fit_depolarization([ObservationSeries(times, noisy)], templates)
    estimates.append(fit.depolarization)
print(f"noisy data:  median alpha_hat over 20 seeds = {np.median(estimates):.5f} "
      f"(truth {TRUTH})")

# %% residuals at and around the optimum
for alpha in (0.0, TRUTH, 0.05):
    rep = residual_report([ObservationSeries(times, m0)], templates, alpha)
    print(f"sse at alpha={alpha:<6}: {rep.sse:.3e}")

# %% optional plot
try:
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots()
    rng = np.random.Generator(np.random.Philox(3))
    noisy = np.clip(m0 + rng.uniform(-0.02, 0.02, m0.size), 0.0, 1.0)
    ax.plot(times * 1e3, noisy, ".", label="noisy observations")
    ax.plot(times * 1e3, m0, label=f"model, contamination {TRUTH}")
    ax.set_xlabel("pumping time (ms)")
    ax.set_ylabel("m=0 fraction")
    ax.legend()
    fig.tight_layout()
    fig.savefig("depolarization_fit.png", dpi=150)
    print("wrote depolarization_fit.png")
except ImportError:
    pass
