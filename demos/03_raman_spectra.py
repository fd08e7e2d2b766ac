"""
Raman velocimetry spectra
=========================

Synthesizes the two spectroscopy geometries. Copropagating beams cancel the
Doppler shift, so each Zeeman sublevel shows up as a Fourier-limited line at
its first-order Zeeman position and the line heights read the populations
directly. Counterpropagating beams map velocity onto detuning (8.27 kHz per
recoil velocity), so the polarized m=0 line becomes an image of the
velocity distribution, fitted here by a Gaussian to recover the rms
velocity and temperature.
"""

import numpy as np

from pumpsim import constants as cst
from pumpsim.kinetics import assemble_rate_matrix, beam, integrate_rk4, prune, uniform_f4
from pumpsim.raman import (
    VelocityDistribution,
    fit_gaussian,
    lineshape_fwhm,
    pi_pulse,
    synth_copropagating,
    synth_counterpropagating,
    velocity_resolution,
    write_spectrum_csv,
)

# %% pump the sample first (5 ms, fitted contamination)
beams = [beam(4, 4, 0.019, -0.5, 0.013), beam(3, 4, 0.023, 0.0, 0.013)]
matrix, _ = prune(assemble_rate_matrix(beams), 1e-3)
pumped = integrate_rk4(matrix, uniform_f4(), 0.01 / cst.GAMMA, 0.005).populations[-1]

# %% copropagating: polarized vs unpolarized, 100 mG bias
bias_gauss = 0.100
pulse = pi_pulse(0.007)
print(f"single-line Fourier width: {lineshape_fwhm(pulse):.1f} Hz "
      f"(FWHM x tau = {lineshape_fwhm(pulse) * 0.007:.4f})")
grid_wide = np.arange(-300e3, 300e3 + 1, 50.0)
polarized = synth_copropagating(pumped, bias_gauss, pulse, grid_wide)
unpolarized = synth_copropagating(uniform_f4(), bias_gauss, pulse, grid_wide)
print(f"polarized m=0 peak: {polarized.signal.max():.3f}; line positions every "
      f"{cst.BOHR_MAGNETON / cst.PLANCK * 0.5 * 0.100 * 1e-4 / 1e3:.1f} kHz")
write_spectrum_csv(polarized, "spectrum_copropagating.csv")

# %% counterpropagating: the velocity distribution as a line profile
# (the line shape does not depend on the geometry: the same pulse serves)
grid = np.arange(-250e3, 250e3 + 1, 250.0)
spectrum = synth_counterpropagating(
    pumped, VelocityDistribution(4.8), pulse, grid
)
fit = fit_gaussian(spectrum)
print(f"\ncounterpropagating fit: FWHM = {fit.fwhm_hz / 1e3:.1f} kHz, "
      f"sigma = {fit.sigma_vr:.2f} v_r, T = {fit.temperature_K * 1e6:.2f} uK")
write_spectrum_csv(spectrum, "spectrum_counterpropagating.csv", fit)

# %% what a 160 Hz line buys in velocity selection
res = velocity_resolution(160.0)
print(f"a 160 Hz line selects {res.recoil_units:.4f} v_r "
      f"(~v_r/{1 / res.recoil_units:.0f}) = {res.meters_per_second * 1e6:.0f} um/s")

# %% optional plots
try:
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 2, figsize=(10, 4))
    axes[0].plot(grid_wide / 1e3, unpolarized.signal, label="unpolarized")
    axes[0].plot(grid_wide / 1e3, polarized.signal, label="polarized")
    axes[0].set_xlabel("two-photon detuning (kHz)")
    axes[0].set_ylabel("transfer probability")
    axes[0].legend()
    axes[1].plot(grid / 1e3, spectrum.signal)
    axes[1].set_xlabel("two-photon detuning (kHz)")
    axes[1].set_title(f"velocity image, T = {fit.temperature_K * 1e6:.1f} uK")
    fig.tight_layout()
    fig.savefig("raman_spectra.png", dpi=150)
    print("wrote raman_spectra.png")
except ImportError:
    pass

print("wrote spectrum_copropagating.csv, spectrum_counterpropagating.csv")
