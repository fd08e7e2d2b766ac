"""Raman velocimetry spectra.

Copropagating spectra are velocity-insensitive and read the individual
F=4 sublevel populations through the sigma+/sigma+ ladder; counterpropagating
spectra convolve the same composite line with the Doppler-shifted velocity
distribution. A square two-photon pi pulse gives the Fourier-limited Rabi
lineshape used for every line. Both geometries go through one synthesis:
each line sits at its Zeeman offset plus a shift and is folded with a
Gaussian of its own width (Doppler or bias-field spread) by one FFT
convolution on a uniform grid, or left bare where that width is zero.
"""

from dataclasses import dataclass

import numpy as np

from . import constants as cst
from .output import atomic_write, header, rows
from .structure import Sublevel, raman_line_offset, state_index


# FWHM x tau of the pi-pulse line: 2u, where u solves
# sin^2((pi/2) sqrt(1 + 4u^2)) / (1 + 4u^2) = 1/2
FWHM_TAU = 0.79868535528470095


@dataclass(frozen=True)
class RamanPulse:
    """Square two-photon pi pulse of the given duration (s): full transfer
    on resonance, Rabi frequency pi / duration."""

    duration: float

    def __post_init__(self):
        if not 0.0 < self.duration < np.inf:
            raise ValueError("pulse duration must be finite and positive")


@dataclass(frozen=True)
class VelocityDistribution:
    """Gaussian velocity distribution in units of the recoil velocity."""

    sigma: float
    mean: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.sigma < np.inf:
            raise ValueError("velocity spread sigma must be finite and nonnegative")
        if not np.isfinite(self.mean):
            raise ValueError("velocity mean must be finite")


@dataclass
class Spectrum:
    detunings: np.ndarray  # Hz, strictly increasing
    signal: np.ndarray

    def __post_init__(self):
        self.detunings = np.asarray(self.detunings, dtype=float)
        self.signal = np.asarray(self.signal, dtype=float)
        if self.detunings.shape != self.signal.shape:
            raise ValueError("detunings and signal must have the same length")
        if self.detunings.size > 1 and np.any(np.diff(self.detunings) <= 0):
            raise ValueError("detunings must be strictly increasing")


def rabi_lineshape(delta, pulse: RamanPulse):
    """Transfer probability of a square pi pulse at two-photon detuning delta
    (Hz, scalar or array): P = (W0/W)^2 sin^2(W tau / 2), W^2 = W0^2 + d^2,
    W0 = pi / tau, so P = 1 on resonance."""
    d = 2.0 * np.pi * np.asarray(delta, dtype=float)
    w0 = np.pi / pulse.duration
    w = np.hypot(w0, d)
    out = (w0 / w) ** 2 * np.sin(0.5 * w * pulse.duration) ** 2
    return float(out) if np.ndim(delta) == 0 else out


def lineshape_fwhm(pulse: RamanPulse) -> float:
    """Full width at half maximum of the single-line shape, in Hz."""
    return FWHM_TAU / pulse.duration


def _next_fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, the real-transform sizes pocketfft
    handles fastest; equal to scipy.fft.next_fast_len(n, real=True)."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power of two that takes p35 to n or beyond
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


# FFT length bound of one fold: 19x the largest at the Table 1 widths
# (4.37e5 nodes at 5.2 v_r, 7 ms); at about 35 bytes a node its arrays
# stay under 0.3 GB
_MAX_FOLD = 2**23


def _fold(pulse: RamanPulse, sigma_hz: float, grid: np.ndarray,
          shift: float) -> np.ndarray:
    """Rabi line folded with a normalized Gaussian of rms sigma_hz, cut at
    +-6 sigma, at the uniform grid - shift: one FFT convolution on nodes
    h = step / k apart, k the smallest integer with h <= fwhm / 32 (fwhm is
    `lineshape_fwhm(pulse)`), so node k*i is grid point i. It works on
    (grid span + 12 sigma) / h nodes, h ~ 1/tau, and raises ValueError
    before allocating when its FFT would be longer than _MAX_FOLD."""
    if grid.size == 0:
        return np.zeros(0)
    fwhm = lineshape_fwhm(pulse)
    steps = np.diff(grid)
    step = (grid[-1] - grid[0]) / steps.size if steps.size else fwhm / 32.0
    tol = 1e-9 * step + 16.0 * np.spacing(np.abs(grid).max())
    if not (step > 0.0 and np.all(np.abs(steps - step) <= tol)):
        raise ValueError(f"the Gaussian fold needs a uniform, increasing detuning grid; "
                         f"its steps range from {steps.min():.17g} to {steps.max():.17g} Hz")
    k = int(np.ceil(step / (fwhm / 32.0)))
    h = step / k
    half = int(6.0 * sigma_hz / h)
    fine = (grid.size - 1) * k + 1
    n = _next_fast_len(fine + 4 * half)   # line and kernel sizes, less one
    if n > _MAX_FOLD:
        raise ValueError(f"the Gaussian fold needs {n} nodes, over the {_MAX_FOLD} allowed, "
                         f"for sigma = {sigma_hz:.6g} Hz and tau = {pulse.duration:.6g} s")
    kernel = np.exp(-0.5 * (np.arange(-half, half + 1) * h / sigma_hz) ** 2)
    line = rabi_lineshape(grid[0] - shift + (np.arange(fine + 2 * half) - half) * h, pulse)
    folded = np.fft.irfft(np.fft.rfft(line, n) * np.fft.rfft(kernel, n), n)
    return folded[2 * half : 2 * half + fine : k] / kernel.sum()


def _synth(populations: np.ndarray, bias_gauss: float, pulse: RamanPulse,
           grid: np.ndarray, shift: float, width) -> Spectrum:
    """Sum of the populated F=4, |m|<=3 lines, line m at
    `raman_line_offset(m, bias_gauss) + shift` and folded (`_fold`) with a
    Gaussian of rms width(m) Hz, or bare where that width is 0. Lines with
    the same (width, position) share one fold or evaluation, which their
    summed population multiplies."""
    grid = np.asarray(grid, dtype=float)
    weights = {}
    for m in range(-3, 4):
        weight = populations[state_index(Sublevel("g", 4, m))]
        if weight != 0.0:
            key = (width(m), raman_line_offset(m, bias_gauss) + shift)
            weights[key] = weights.get(key, 0.0) + weight
    signal = np.zeros_like(grid)
    for (sigma_hz, position), weight in weights.items():
        if sigma_hz > 0.0:
            signal += weight * _fold(pulse, sigma_hz, grid, position)
        else:
            signal += weight * rabi_lineshape(grid - position, pulse)
    return Spectrum(grid, signal)


def synth_copropagating(
    populations: np.ndarray,
    bias_gauss: float,
    pulse: RamanPulse,
    grid: np.ndarray,
    field_rms_gauss: float = 0.0,
) -> Spectrum:
    """Velocity-insensitive spectrum: one Rabi line per F=4, |m|<=3 sublevel
    at its first-order Zeeman position, weighted by its population.

    field_rms_gauss, when nonzero, folds every m != 0 line with the Gaussian
    spread of its Zeeman shift; the m=0 line is untouched.
    """
    if not 0.0 <= field_rms_gauss < np.inf:
        raise ValueError("field_rms_gauss must be finite and nonnegative")
    return _synth(populations, bias_gauss, pulse, grid, 0.0,
                  lambda m: abs(raman_line_offset(m, field_rms_gauss)))


def doppler_shift(velocity):
    """Counterpropagating two-photon detuning (Hz) of an atom moving at
    `velocity` recoil velocities: 2 v_r / lambda per v_r."""
    out = np.asarray(velocity, dtype=float) * cst.DOPPLER_HZ_PER_RECOIL
    return float(out) if np.ndim(velocity) == 0 else out


def synth_counterpropagating(
    populations: np.ndarray,
    vdist: VelocityDistribution,
    pulse: RamanPulse,
    grid: np.ndarray,
    bias_gauss: float = 0.0,
) -> Spectrum:
    """Doppler-sensitive spectrum: the copropagating composite line folded
    with the velocity distribution mapped through the Doppler shift."""
    sigma_hz = doppler_shift(vdist.sigma)
    return _synth(populations, bias_gauss, pulse, grid, doppler_shift(vdist.mean),
                  lambda m: sigma_hz)


@dataclass
class GaussianFit:
    """Least-squares Gaussian fit of a spectrum, with velocity/temperature
    conversions of the fitted width."""

    center_hz: float
    sigma_hz: float
    amplitude: float
    rms_residual: float
    converged: bool
    iterations: int
    sigma_vr: float
    sigma_mps: float
    temperature_K: float

    @property
    def fwhm_hz(self) -> float:
        return 2.0 * np.sqrt(2.0 * np.log(2.0)) * self.sigma_hz


def fit_gaussian(spectrum: Spectrum, max_nfev: int = 2000) -> GaussianFit:
    """Fit A exp(-(x-c)^2 / 2 sigma^2) by nonlinear least squares.

    Non-convergence within the evaluation budget is reported through
    converged=False with the best parameters found so far.
    """
    from scipy.optimize import least_squares

    x, y = spectrum.detunings, spectrum.signal
    if x.size < 7:
        raise ValueError("need at least 7 samples to fit a Gaussian")
    if np.any(y < 0):
        raise ValueError("signal must be nonnegative")
    if not np.any(y > 0):
        raise ValueError("signal is identically zero")

    a0 = float(y.max())
    c0 = float(x[np.argmax(y)])
    s0 = float(np.sqrt(np.sum(y * (x - c0) ** 2) / np.sum(y)))
    if not np.isfinite(s0) or s0 <= 0:
        s0 = 0.1 * (x[-1] - x[0])

    def residuals(p):
        a, c, s = p
        return a * np.exp(-0.5 * ((x - c) / s) ** 2) - y

    result = least_squares(
        residuals, x0=[a0, c0, s0], xtol=1e-8, ftol=1e-12, gtol=1e-12,
        max_nfev=max_nfev,
    )
    a, c, s = result.x
    s = abs(float(s))
    rms = float(np.sqrt(np.mean(result.fun**2)))
    sigma_vr = s / cst.DOPPLER_HZ_PER_RECOIL
    sigma_mps = sigma_vr * cst.RECOIL_VELOCITY
    temperature = cst.CS_MASS * sigma_mps**2 / cst.BOLTZMANN
    return GaussianFit(
        center_hz=float(c),
        sigma_hz=s,
        amplitude=float(a),
        rms_residual=rms,
        converged=bool(result.status > 0),
        iterations=int(result.nfev),
        sigma_vr=sigma_vr,
        sigma_mps=sigma_mps,
        temperature_K=float(temperature),
    )


@dataclass(frozen=True)
class VelocityResolution:
    recoil_units: float
    meters_per_second: float


def velocity_resolution(fwhm_hz: float) -> VelocityResolution:
    """Velocity class selected by a line of the given width, expressed in
    recoil velocities and in m/s."""
    if not 0.0 < fwhm_hz < np.inf:
        raise ValueError("fwhm_hz must be finite and positive")
    recoil_units = fwhm_hz / cst.DOPPLER_HZ_PER_RECOIL
    return VelocityResolution(recoil_units, recoil_units * cst.RECOIL_VELOCITY)


def write_spectrum_csv(spectrum: Spectrum, path, fit: GaussianFit | None = None) -> None:
    """Spectrum export; the fit report, when present, rides along as
    key=value comment lines after the data."""
    lines = ["detuning_hz,signal"] + rows(spectrum.detunings, spectrum.signal)
    if fit is not None:
        lines += header({name: getattr(fit, name) for name in (
            "center_hz", "sigma_hz", "fwhm_hz", "amplitude", "rms_residual",
            "sigma_vr", "sigma_mps", "temperature_K", "converged")})
    atomic_write(path, lines)
