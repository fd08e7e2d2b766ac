"""Raman velocimetry spectra.

Copropagating spectra are velocity-insensitive and read the individual
F=4 sublevel populations through the sigma+/sigma+ ladder; counterpropagating
spectra convolve the same composite line with the Doppler-shifted velocity
distribution. A square two-photon pi pulse gives the Fourier-limited Rabi
lineshape used for every line. Both geometries go through one synthesis:
each line sits at its Zeeman offset plus a shift, and the lines of one width
(Doppler or bias-field spread) are folded once, summed by population, with a
Gaussian of that width on a uniform grid, or left bare where it is zero. A
fold, cut at +-_CUT sigma, is one FFT convolution or, where that is less
work, a quadrature of the line's transform, zero beyond the pulse length.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import constants as cst
from .output import atomic_write, blocks, header
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
        if not (0.0 < self.duration < np.inf and np.pi / self.duration < np.inf):
            raise ValueError("pulse duration must be finite and positive, with a finite "
                             f"Rabi frequency pi / duration, got {self.duration!r}")


@dataclass(frozen=True)
class VelocityDistribution:
    """Gaussian velocity distribution in units of the recoil velocity."""

    sigma: float
    mean: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and nonnegative, got {self.sigma}")
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
    W0 = pi / tau, d = 2 pi delta, so P = 1 on resonance. It is evaluated in
    Rabi units, r = d / W0 = 2 tau delta and u = 1 + r^2 = (W / W0)^2, as
    P = sin^2((pi/2) sqrt(u)) / u: no hypot, no W. |r| is clamped at 1e150,
    so u is finite at every phase `_bound_phase` accepts; a NaN stays NaN."""
    u = np.multiply(delta, pulse.duration, out=np.empty(np.shape(delta)))
    u *= 2.0   # r, after tau delta: 2 tau alone overflows for tau > 9e307 s
    np.clip(u, -1e150, 1e150, out=u)   # P < 1e-300 past the clamp
    u *= u
    u += 1.0
    out = np.sqrt(u, out=np.empty_like(u))
    out *= 0.5 * np.pi
    np.sin(out, out=out)
    out *= out
    out /= u
    return float(out) if np.ndim(delta) == 0 else out


def lineshape_fwhm(pulse: RamanPulse) -> float:
    """Full width at half maximum of the single-line shape, in Hz."""
    return FWHM_TAU / pulse.duration


def _bound_phase(pulse: RamanPulse, grid: np.ndarray, lines, reach: float) -> None:
    """Refuse lines read to `reach` Hz past the grid ends at an overflowing Rabi phase."""
    far = max((max(abs(grid[0] - s0), abs(grid[-1] - s0)) for s0 in lines), default=0.0)
    far, tau = float(far) + float(reach), float(pulse.duration)
    if not 0.5 * math.hypot(math.pi / tau, 2.0 * math.pi * far) * tau < math.inf:
        raise ValueError(f"the Rabi phase of the tau_s = {tau:.6g} s pulse overflows "
                         f"{far:.6g} Hz from a line")


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


# Both routes cut the Gaussian at +-_CUT sigma: e^-28.1, a tail mass of 6e-14
_CUT = 7.5

# Size bound of one fold on either route: `_fold`'s FFT length (25x the
# 3.3e5 at 5.2 v_r, 7 ms; about 35 bytes a node) or `_fourier`'s
# n_t (n_t + 384), which keeps its n_t x n_t node matrix under 64 MB
_MAX_FOLD = 2**23


def _fold(pulse: RamanPulse, sigma_hz: float, grid: np.ndarray, lines):
    """Yields its FFT length, (grid span + 2 _CUT sigma) / h rounded up
    and sized in floats up to inf, then sum w P(x - s0) over the Rabi lines
    P of `lines`, {position s0: weight w}, folded with a normalized Gaussian
    of rms sigma_hz cut at +-_CUT sigma by one FFT convolution on nodes
    h = step / k apart, k the smallest integer with h <= fwhm / 32, so node
    k*i is grid point i. The pad of 2 cuts is all a linear convolution needs."""
    fwhm = lineshape_fwhm(pulse)
    step = (grid[-1] - grid[0]) / (grid.size - 1) if grid.size > 1 else fwhm / 32.0
    with np.errstate(over="ignore", divide="ignore"):   # sized in floats, up to inf
        k = np.ceil(step / (fwhm / 32.0))
        h = step / k
        half = np.floor(_CUT * sigma_hz / h)
        fine = (grid.size - 1) * k + 1
        nodes = fine + 2 * half
    yield (n := _next_fast_len(int(nodes)) if nodes <= _MAX_FOLD else nodes)
    _bound_phase(pulse, grid, lines, half * h)
    k, half, fine = int(k), int(half), int(fine)
    kernel = np.exp(-0.5 * (np.arange(-half, half + 1) * h / sigma_hz) ** 2)
    x = (np.arange(fine + 2 * half) - half) * h
    line = sum(weight * rabi_lineshape(grid[0] - s0 + x, pulse) for s0, weight in lines.items())
    folded = np.fft.irfft(np.fft.rfft(line, n) * np.fft.rfft(kernel, n), n)
    yield folded[2 * half : 2 * half + fine : k] / kernel.sum()


@lru_cache(maxsize=8)
def _leggauss(n: int):
    """The n Gauss-Legendre nodes and weights on [-1, 1], read-only, once per n."""
    from numpy.polynomial.legendre import leggauss   # 3-5 ms to import, so not at the top
    nodes, weights = leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _fourier(pulse: RamanPulse, sigma_hz: float, grid: np.ndarray, lines):
    """Yields its size, then the same folded sum through the line's transform
    F(t) = (W0^2/4) int_|t|^tau J0(W0 sqrt(s^2 - t^2)) ds, zero for
    |t| > tau (Gradshteyn & Ryzhik 3.876.1), W0 = pi / tau: the sum is
    2 int_0^T exp(-2 pi^2 sigma^2 t^2) F(t) Re(sum_s0 w e^(2 pi i (x - s0) t)) dt,
    T = min(tau, _CUT / (2 pi sigma)), where `_fold` cuts the Gaussian, on
    n_t = ceil(2 max|x - s0| T) + 48 Gauss-Legendre nodes. F, found once,
    takes 16 s nodes and J0 the 48-point midpoint rule on [0, pi]. The size
    n_t (n_t + 384) counts the n_t x n_t matrix whose eigenvalues are the
    nodes and the n_t x 16 x 24 cosines of J0, the bulk of the work: the
    grid costs some 2 sqrt(grid) complex exponentials a node."""
    tau = pulse.duration
    with np.errstate(over="ignore"):   # sized in floats, up to inf
        t_max = min(tau, _CUT / (2.0 * np.pi * sigma_hz))
        n_t = np.ceil(2.0 * t_max * max(np.abs(grid[[0, -1]] - s0).max() for s0 in lines)) + 48
        size = n_t * (n_t + 384.0)
    yield size
    # W0 tau = pi, so F(t) = (pi^2 / 4 tau) f(t / tau); the terms that count
    # stay normal floats while this scale stays above tiny / eps
    scale = np.pi**2 / (4.0 * tau) * t_max
    if not scale >= np.finfo(float).tiny / np.finfo(float).eps:
        raise ValueError(f"the transform of the tau = {tau:.6g} s line underflows to "
                         f"{scale:.6g} for sigma = {sigma_hz:.6g} Hz")
    (y, w), (ys, ws) = _leggauss(int(n_t)), _leggauss(16)
    t = 0.5 * t_max * (y + 1.0)
    u, omega = t / tau, 2.0 * np.pi * t
    d = np.multiply.outer(0.5 * (1.0 - u), ys + 1.0)   # s / tau - u at the s nodes
    a = np.sin(np.pi * (np.arange(24) + 0.5) / 48.0)   # 24 of 48 midpoints; the rest mirror them
    j0 = np.cos(np.multiply.outer(np.pi * np.sqrt(d * (d + 2.0 * u[:, None])), a)).mean(axis=-1)
    coef = scale * w * 0.5 * (1.0 - u) * (j0 @ ws) * np.exp(-2.0 * (np.pi * sigma_hz * t) ** 2)
    coef = coef * sum(weight * np.exp(-1j * omega * s0) for s0, weight in lines.items())
    # grid point b i + j takes e^(i omega (x0 + b i step)) e^(i omega j step)
    step, b = (grid[-1] - grid[0]) / max(grid.size - 1, 1), int(np.sqrt(grid.size)) + 1
    inner = np.exp(1j * np.multiply.outer(omega, step * np.arange(b)))
    outer = np.multiply.outer(grid[0] + b * step * np.arange(-(-grid.size // b)), omega)
    yield ((np.exp(1j * outer) * coef) @ inner).real.reshape(-1)[: grid.size]


def _synth(populations: np.ndarray, bias_gauss: float, pulse: RamanPulse,
           grid: np.ndarray, shift: float, width) -> Spectrum:
    """Sum of the populated F=4, |m|<=3 lines, line m at
    `raman_line_offset(m, bias_gauss) + shift`, bare where width(m) is 0.
    The lines of a width w > 0, as {position: summed population}, are folded
    once with a Gaussian of rms w Hz by the plan of least size, `_fold` or
    `_fourier`."""
    grid = np.asarray(grid, dtype=float)
    if not grid.size:
        return Spectrum(grid, np.zeros(0))
    widths = {}
    for m in range(-3, 4):
        weight = populations[state_index(Sublevel("g", 4, m))]
        if weight != 0.0:
            lines, s0 = widths.setdefault(width(m), {}), raman_line_offset(m, bias_gauss) + shift
            if not abs(s0) < math.inf:
                raise ValueError(f"line m = {m} at bias_gauss = {bias_gauss:.6g} G is not finite")
            lines[s0] = lines.get(s0, 0.0) + weight
    steps = np.diff(grid)
    step = (grid[-1] - grid[0]) / max(steps.size, 1)
    if steps.size and any(sigma_hz > 0.0 for sigma_hz in widths) and not (step > 0.0 and np.all(
            np.abs(steps - step) <= 1e-9 * step + 16.0 * np.spacing(np.abs(grid).max()))):
        raise ValueError(f"the Gaussian fold needs a uniform, increasing detuning grid; "
                         f"its steps range from {steps.min():.17g} to {steps.max():.17g} Hz")
    signal, bare = np.zeros_like(grid), widths.pop(0.0, {})
    _bound_phase(pulse, grid, bare, 0.0)
    for position, weight in bare.items():   # bare lines, in m order
        signal += weight * rabi_lineshape(grid - position, pulse)
    for sigma_hz, lines in widths.items():
        plans = [plan(pulse, sigma_hz, grid, lines) for plan in (_fold, _fourier)]
        size = min(sizes := [next(plan) for plan in plans])
        if not size <= _MAX_FOLD:   # refused before allocating
            raise ValueError(f"the Gaussian fold needs {size:.0f} nodes, over the {_MAX_FOLD} "
                             f"allowed, for sigma = {sigma_hz:.6g} Hz and "
                             f"tau = {pulse.duration:.6g} s")
        signal += next(plans[sizes.index(size)])
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
    if np.ndim(velocity) == 0:   # a float product reaches inf without a warning
        return float(velocity) * cst.DOPPLER_HZ_PER_RECOIL
    return np.asarray(velocity, dtype=float) * cst.DOPPLER_HZ_PER_RECOIL


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
    shift = doppler_shift(vdist.mean)
    for name, v, hz in (("width of the velocity spread", vdist.sigma, sigma_hz),
                        ("shift of the mean velocity", vdist.mean, shift)):
        if not np.isfinite(hz):
            raise ValueError(f"the Doppler {name} {v:.6g} v_r is not finite")
    return _synth(populations, bias_gauss, pulse, grid, shift, lambda m: sigma_hz)


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

    Levenberg-Marquardt with the analytic Jacobian and Marquardt's diagonal
    damping (Madsen, Nielsen & Tingleff, *Methods for Non-Linear Least
    Squares Problems*, DTU 2004, algorithm 3.16). It stops on the gradient
    (gtol), on the relative cost drop of a well-predicted step (ftol) or on
    the step length relative to the parameters (xtol), the tests of scipy's
    `least_squares`. Non-convergence within max_nfev residual evaluations,
    or a center off the detuning grid, is reported through converged=False
    with the best parameters found so far.
    """
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
        """Residuals at p and their Jacobian, one column per parameter."""
        a, c, s = p
        u = (x - c) / s
        g = np.exp(-0.5 * u * u)
        return a * g - y, np.column_stack([g, a * g * u / s, a * g * u * u / s])

    xtol, ftol, gtol = 1e-8, 1e-12, 1e-12
    p = np.array([a0, c0, s0])
    r, jac = residuals(p)
    nfev, mu, nu, converged = 1, 1e-3, 2.0, False
    while True:
        grad = jac.T @ r
        converged = converged or np.abs(grad).max() < gtol
        if converged or nfev >= max_nfev:
            break
        hess = jac.T @ jac
        damping = mu * np.diag(np.diag(hess))
        step = np.linalg.solve(hess + damping, -grad)
        r_new, jac_new = residuals(p + step)
        nfev += 1
        cost, drop = 0.5 * (r @ r), 0.5 * (r @ r - r_new @ r_new)
        rho = drop / (0.5 * step @ (damping @ step - grad))
        converged = (drop < ftol * cost and rho > 0.25
                     or np.linalg.norm(step) < xtol * (xtol + np.linalg.norm(p)))
        if drop > 0:
            p, r, jac = p + step, r_new, jac_new
            mu, nu = mu * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 2.0
        else:
            mu, nu = mu * nu, 2.0 * nu
    a, c, s = p
    s = abs(float(s))
    rms = float(np.sqrt(np.mean(r**2)))
    sigma_vr = s / cst.DOPPLER_HZ_PER_RECOIL
    sigma_mps = sigma_vr * cst.RECOIL_VELOCITY
    temperature = cst.CS_MASS * sigma_mps**2 / cst.BOLTZMANN
    return GaussianFit(
        center_hz=float(c),
        sigma_hz=s,
        amplitude=float(a),
        rms_residual=rms,
        converged=bool(converged and x[0] <= c <= x[-1]),
        iterations=nfev,
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
    lines = ["detuning_hz,signal", blocks(spectrum.detunings, spectrum.signal)]
    if fit is not None:
        lines += header({name: getattr(fit, name) for name in (
            "center_hz", "sigma_hz", "fwhm_hz", "amplitude", "rms_residual",
            "sigma_vr", "sigma_mps", "temperature_K", "converged")})
    atomic_write(path, lines)
