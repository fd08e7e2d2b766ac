"""Lineshapes, spectrum synthesis, Gaussian fits, and unit conversions."""

import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_h

import pumpsim
from pumpsim import constants as cst
from pumpsim import raman
from pumpsim.kinetics import uniform_f4
from pumpsim.raman import (
    FWHM_TAU,
    _MAX_FOLD,
    _fold,
    _fourier,
    _next_fast_len,
    RamanPulse,
    Spectrum,
    VelocityDistribution,
    doppler_shift,
    fit_gaussian,
    lineshape_fwhm,
    rabi_lineshape,
    synth_copropagating,
    synth_counterpropagating,
    velocity_resolution,
    write_spectrum_csv,
)
from pumpsim.structure import Sublevel, raman_line_offset, state_index


def run_with_pumpsim(code):
    """Run `code` in a fresh interpreter that imports this checkout's pumpsim."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(pumpsim.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)


def polarized_populations(m: int = 0) -> np.ndarray:
    pop = np.zeros(43)
    pop[state_index(Sublevel("g", 4, m))] = 1.0
    return pop


def noisy_gaussian(seed: int) -> Spectrum:
    """A unit Gaussian of rms 20 kHz with seeded uniform noise of +-0.01,
    clipped at zero."""
    x = np.linspace(-1e5, 1e5, 801)
    rng = np.random.Generator(np.random.Philox(seed))
    noisy = np.exp(-0.5 * (x / 20e3) ** 2) + rng.uniform(-0.01, 0.01, x.size)
    return Spectrum(x, np.clip(noisy, 0.0, None))


def hypot_rabi_lineshape(delta, tau):
    # the reference line in angular units: P = (W0/W)^2 sin^2(W tau / 2),
    # W = hypot(W0, d), W0 = pi / tau, d = 2 pi delta
    d = 2.0 * np.pi * np.asarray(delta, dtype=float)
    w0 = np.pi / tau
    w = np.hypot(w0, d)
    return (w0 / w) ** 2 * np.sin(0.5 * w * tau) ** 2


class TestRabiLineshape:
    @pytest.mark.parametrize("tau", [1e-5, 1e-3, 0.007, 1.0, 7.3])
    def test_matches_the_hypot_form(self, tau):
        # the Rabi-unit form against the reference, within 1e-15 absolute,
        # over +-5e4 Hz and, finer, over the central lobes of each duration
        delta = np.concatenate([np.linspace(-5e4, 5e4, 200_001),
                                np.linspace(-20.0 / tau, 20.0 / tau, 20_001)])
        got = rabi_lineshape(delta, RamanPulse(tau))
        assert np.max(np.abs(got - hypot_rabi_lineshape(delta, tau))) <= 1e-15

    @pytest.mark.filterwarnings("error")
    def test_far_wings_nan_and_scalar(self):
        # past |2 tau delta| = 1.4e154, r^2 would overflow: the clamp keeps
        # P finite and below 1e-300, without a warning; a NaN detuning stays
        # NaN, and a scalar gives a Python float
        pulse = RamanPulse(1.0)
        far = np.array([7e153, -7e153, 1e200, -5e307])
        p = rabi_lineshape(far, pulse)
        assert np.all((p >= 0.0) & (p <= 1e-300)), p
        assert np.isnan(rabi_lineshape(np.array([0.0, np.nan]), pulse)).tolist() == [False, True]
        assert np.isnan(rabi_lineshape(float("nan"), pulse))
        for scalar in (0.3, 3, np.float64(0.3), np.array(0.3)):
            assert type(rabi_lineshape(scalar, pulse)) is float
        assert rabi_lineshape(0.0, RamanPulse(1e308)) == 1.0   # 2 tau alone is inf

    def test_pi_pulse_full_transfer(self):
        assert rabi_lineshape(0.0, RamanPulse(0.007)) == pytest.approx(1.0, abs=1e-12)

    @given(st_h.floats(min_value=-5e4, max_value=5e4, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_even_and_bounded(self, delta):
        pulse = RamanPulse(0.007)
        p = rabi_lineshape(delta, pulse)
        assert 0.0 <= p <= 1.0
        assert p == pytest.approx(rabi_lineshape(-delta, pulse), abs=1e-15)

    def test_fwhm_times_tau(self):
        for tau in (0.001, 0.007, 0.020):
            product = lineshape_fwhm(RamanPulse(tau)) * tau
            assert product == pytest.approx(0.799, abs=0.005)

    def test_fwhm_against_grid_scan(self):
        # independent oracle: dense scan + linear interpolation of the
        # half-maximum crossing
        pulse = RamanPulse(0.007)
        grid = np.linspace(0.0, 400.0, 400_001)
        values = rabi_lineshape(grid, pulse)
        below = np.nonzero(values < 0.5)[0][0]
        x0, x1 = grid[below - 1], grid[below]
        y0, y1 = values[below - 1], values[below]
        half = x0 + (0.5 - y0) / (y1 - y0) * (x1 - x0)
        assert lineshape_fwhm(pulse) == pytest.approx(2 * half, rel=1e-6)

    def test_fwhm_tau_is_the_half_maximum(self):
        # half a width from the center the line reads half its peak of 1,
        # to the last bit or two, at every duration
        for tau in (1e-5, 1e-3, 0.007, 0.02, 1.0, 7.3):
            p = rabi_lineshape(FWHM_TAU / (2 * tau), RamanPulse(tau))
            assert abs(p - 0.5) <= 2e-16, tau

    def test_pulse_validation(self):
        with pytest.raises(ValueError):
            RamanPulse(-1.0)

    @pytest.mark.parametrize("tau", [5e-324, 1e-310])
    def test_subnormal_pulse_rejected(self, tau):
        # pi / tau overflows: every line shape value would be NaN
        with pytest.raises(ValueError, match="finite Rabi frequency"):
            RamanPulse(tau)
        assert np.isfinite(lineshape_fwhm(RamanPulse(1e-300)))


class TestCopropagating:
    def test_polarized_single_line_at_zero(self):
        grid = np.arange(-2000.0, 2001.0, 1.0)
        spec = synth_copropagating(
            polarized_populations(), 0.1, RamanPulse(0.007), grid
        )
        assert spec.signal[np.argmin(np.abs(grid))] == pytest.approx(1.0, abs=1e-9)
        # away from the line the signal falls off; no other line in range
        assert spec.signal[0] < 0.01

    def test_line_areas_proportional_to_populations(self):
        pop = np.zeros(43)
        pop[state_index(Sublevel("g", 4, 1))] = 2.0 / 3.0
        pop[state_index(Sublevel("g", 4, -1))] = 1.0 / 3.0
        bias = 0.05
        offset = 0.5 * (9.2740100783e-24 / 6.62607015e-34 * 1e-4) * 0.05
        grid = np.linspace(-offset - 2e3, offset + 2e3, 40001)
        spec = synth_copropagating(pop, bias, RamanPulse(0.007), grid)
        mid = grid.size // 2
        area_plus = np.trapezoid(spec.signal[mid:], grid[mid:])
        area_minus = np.trapezoid(spec.signal[:mid], grid[:mid])
        assert area_plus / area_minus == pytest.approx(2.0, abs=1e-3)

    def test_degenerate_field_composite_width(self):
        # at zero field all lines coincide: composite width equals the
        # single-line Fourier width
        pop = np.zeros(43)
        for m in range(-3, 4):
            pop[state_index(Sublevel("g", 4, m))] = 1.0 / 7.0
        pulse = RamanPulse(0.007)
        grid = np.arange(-2000.0, 2001.0, 1.0)
        spec = synth_copropagating(pop, 0.0, pulse, grid)
        half = 0.5 * spec.signal.max()
        above = grid[spec.signal >= half]
        width = above[-1] - above[0]
        assert width == pytest.approx(lineshape_fwhm(pulse), abs=2.0)

    def test_area_linearity(self):
        # mixture spectrum equals the population-weighted sum of pure spectra
        bias = 0.02
        pulse = RamanPulse(0.007)
        grid = np.linspace(-20e3, 20e3, 2001)
        mix = np.zeros(43)
        parts = []
        for m, w in ((-1, 0.25), (0, 0.5), (2, 0.25)):
            mix[state_index(Sublevel("g", 4, m))] = w
            parts.append(w * synth_copropagating(
                polarized_populations(m), bias, pulse, grid).signal)
        combined = synth_copropagating(mix, bias, pulse, grid).signal
        assert np.max(np.abs(combined - sum(parts))) < 1e-6

    def test_field_fluctuation_smears_shifted_lines_only(self):
        bias = 0.1
        pulse = RamanPulse(0.007)
        grid = np.arange(-2000.0, 2001.0, 1.0)
        sharp = synth_copropagating(polarized_populations(0), bias, pulse, grid, 300e-6)
        assert sharp.signal[np.argmin(np.abs(grid))] == pytest.approx(1.0, abs=1e-9)
        offset = 69981.0
        grid_m1 = np.arange(offset - 2e3, offset + 2e3, 1.0)
        smeared = synth_copropagating(polarized_populations(1), bias, pulse, grid_m1, 300e-6)
        plain = synth_copropagating(polarized_populations(1), bias, pulse, grid_m1, 0.0)
        assert smeared.signal.max() < plain.signal.max()


class TestDopplerShift:
    def test_one_recoil(self):
        # independent arithmetic: 2 v_r / lambda with v_r = h / (M lambda)
        expected = 2 * 6.62607015e-34 / (2.20694650e-25 * 852e-9) / 852e-9
        assert doppler_shift(1.0) == pytest.approx(expected, rel=1e-12)
        assert doppler_shift(1.0) == pytest.approx(8272.0, abs=1.0)

    def test_zero_and_linear(self):
        assert doppler_shift(0.0) == 0.0
        assert doppler_shift(2.5) == pytest.approx(2.5 * doppler_shift(1.0), rel=1e-12)


class TestCounterpropagating:
    GRID = np.arange(-250e3, 250e3 + 1.0, 250.0)

    def synth(self, sigma_vr):
        return synth_counterpropagating(
            polarized_populations(),
            VelocityDistribution(sigma_vr),
            RamanPulse(0.007),
            self.GRID,
        )

    def test_width_at_4vr(self):
        fit = fit_gaussian(self.synth(4.0))
        expected = 2.3548200450309493 * 4.0 * cst.DOPPLER_HZ_PER_RECOIL
        assert fit.fwhm_hz == pytest.approx(expected, rel=1e-3)
        assert fit.fwhm_hz == pytest.approx(75.3e3, rel=0.05)

    def test_width_at_4p8vr(self):
        fit = fit_gaussian(self.synth(4.8))
        assert fit.fwhm_hz == pytest.approx(93.5e3, rel=1e-2)
        assert fit.fwhm_hz == pytest.approx(91.3e3, rel=0.05)

    def test_zero_spread_recovers_fourier_width(self):
        pulse = RamanPulse(0.007)
        grid = np.arange(-2000.0, 2001.0, 1.0)
        spec = synth_counterpropagating(
            polarized_populations(), VelocityDistribution(0.0), pulse, grid
        )
        half = 0.5 * spec.signal.max()
        above = grid[spec.signal >= half]
        assert above[-1] - above[0] == pytest.approx(
            lineshape_fwhm(RamanPulse(0.007)), abs=2.0
        )

    def test_convolution_widening(self):
        pulse = RamanPulse(0.007)
        grid = np.linspace(-50e3, 50e3, 4001)
        narrow = synth_counterpropagating(
            polarized_populations(), VelocityDistribution(0.0), pulse, grid
        )
        for sigma in (0.5, 1.0, 2.0):
            wide = synth_counterpropagating(
                polarized_populations(), VelocityDistribution(sigma), pulse, grid
            )
            def fwhm(spec):
                above = grid[spec.signal >= 0.5 * spec.signal.max()]
                return above[-1] - above[0]
            assert fwhm(wide) >= fwhm(narrow)

    def test_gaussian_limit_recovers_input_sigma(self):
        # Doppler width >= 20x Fourier width: fitted sigma within 1 percent
        fit = fit_gaussian(self.synth(1.0))
        assert fit.sigma_vr == pytest.approx(1.0, rel=0.01)

    def test_mean_velocity_shifts_line(self):
        spec = synth_counterpropagating(
            polarized_populations(),
            VelocityDistribution(1.0, mean=2.0),
            RamanPulse(0.007),
            self.GRID,
        )
        fit = fit_gaussian(spec)
        assert fit.center_hz == pytest.approx(2.0 * cst.DOPPLER_HZ_PER_RECOIL, rel=1e-2)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            VelocityDistribution(-1.0)


CLI_GRID = np.arange(-250e3, 250e3 + 1.0, 250.0)
CO_GRID = np.arange(-2000.0, 2000.0 + 0.5, 1.0)  # the CLI's copropagating grid
SUBSET = slice(None, None, 10)  # 201 of the 2001 CLI grid points


def direct_counterpropagating(populations, vdist, pulse, grid, bias_gauss):
    """Independent oracle: a dense velocity quadrature over +-6 sigma, one
    Rabi line per populated sublevel and velocity."""
    v = np.linspace(-6.0, 6.0, 20_001) * vdist.sigma + vdist.mean
    gauss = np.exp(-0.5 * ((v - vdist.mean) / vdist.sigma) ** 2)
    gauss /= gauss.sum()
    detunings = grid[:, None] - doppler_shift(v)[None, :]
    signal = np.zeros_like(grid)
    for m in range(-3, 4):
        weight = populations[state_index(Sublevel("g", 4, m))]
        if weight:
            offset = raman_line_offset(m, bias_gauss)
            signal += weight * (rabi_lineshape(detunings - offset, pulse) @ gauss)
    return signal


def untruncated_counterpropagating(populations, vdist, pulse, grid, bias_gauss):
    """Independent oracle without the +-6 sigma cut: a rectangle rule over
    +-12 sigma of the velocity distribution, at most 20 Hz of Doppler shift
    apart (the line is 114 Hz wide at 7 ms), normalized by the Gaussian's
    integral. Lines at one offset are evaluated once, with their summed
    population."""
    step = min(20.0, doppler_shift(vdist.sigma) / 100.0)
    v = np.arange(-12.0 * vdist.sigma, 12.0 * vdist.sigma, step / cst.DOPPLER_HZ_PER_RECOIL)
    gauss = np.exp(-0.5 * (v / vdist.sigma) ** 2) * step
    gauss /= np.sqrt(2.0 * np.pi) * doppler_shift(vdist.sigma)
    detunings = grid[:, None] - doppler_shift(v + vdist.mean)[None, :]
    weights = {}
    for m in range(-3, 4):
        offset = raman_line_offset(m, bias_gauss)
        weights[offset] = weights.get(offset, 0.0) + populations[state_index(Sublevel("g", 4, m))]
    return sum(weight * (rabi_lineshape(detunings - offset, pulse) @ gauss)
               for offset, weight in weights.items() if weight)


def untruncated_copropagating(populations, bias_gauss, pulse, grid, rms_gauss):
    """Independent oracle without a cut: each line m at its Zeeman offset,
    summed by a 20 Hz rectangle rule over +-14 sigma of the Gaussian spread
    of its Zeeman shift, normalized by the Gaussian's integral; the m = 0
    line is bare."""
    signal = np.zeros_like(grid)
    for m in range(-3, 4):
        weight = populations[state_index(Sublevel("g", 4, m))]
        offset, sigma_hz = raman_line_offset(m, bias_gauss), abs(raman_line_offset(m, rms_gauss))
        if not sigma_hz:
            signal += weight * rabi_lineshape(grid - offset, pulse)
            continue
        shifts = np.arange(-14.0 * sigma_hz, 14.0 * sigma_hz + 10.0, 20.0)
        gauss = np.exp(-0.5 * (shifts / sigma_hz) ** 2) * 20.0 / (np.sqrt(2.0 * np.pi) * sigma_hz)
        signal += weight * (rabi_lineshape(np.subtract.outer(grid - offset, shifts), pulse) @ gauss)
    return signal


class TestFold:
    PULSE = RamanPulse(0.007)

    @pytest.mark.parametrize(
        "sigma_vr, mean_vr, bias_gauss",
        [(0.5, 0.0, 0.0), (4.0, 0.0, 0.0), (5.2, 0.0, 0.0), (4.0, 0.0, 0.1), (1.0, 2.0, 0.0)],
    )
    def test_counterpropagating_matches_direct_quadrature(self, sigma_vr, mean_vr, bias_gauss):
        vdist = VelocityDistribution(sigma_vr, mean=mean_vr)
        populations = uniform_f4()
        got = synth_counterpropagating(populations, vdist, self.PULSE, CLI_GRID, bias_gauss)
        want = direct_counterpropagating(
            populations, vdist, self.PULSE, CLI_GRID[SUBSET], bias_gauss
        )
        assert np.max(np.abs(got.signal[SUBSET] - want)) <= 1e-6 * want.max()

    @pytest.mark.parametrize("sigma_vr, bias_gauss", [
        (4.0, 0.0), (4.0, 0.1), (4.8, 0.0), (4.8, 0.1), (5.2, 0.0), (5.2, 0.1),
        (0.5, 0.0), (0.1, 0.0), (0.1, 0.1),
    ])
    def test_counterpropagating_matches_untruncated_quadrature(self, sigma_vr, bias_gauss):
        # both routes cut the Gaussian at +-7.5 sigma, where it falls to
        # e^-28.1, so they hold 1e-10 of the peak everywhere, the grid's end
        # points included
        vdist = VelocityDistribution(sigma_vr)
        grid = CLI_GRID[::100]   # 21 points, -250 and +250 kHz among them
        got = synth_counterpropagating(uniform_f4(), vdist, self.PULSE, CLI_GRID, bias_gauss)
        want = untruncated_counterpropagating(uniform_f4(), vdist, self.PULSE, grid, bias_gauss)
        assert np.max(np.abs(got.signal[::100] - want)) <= 1e-10 * want.max()

    @pytest.mark.parametrize("synth, routes", [
        *((lambda pulse, v=sigma_vr: synth_counterpropagating(
            polarized_populations(), VelocityDistribution(v), pulse, CLI_GRID), [route])
          for sigma_vr, route in ((0.1, "fold"), (0.3, "fold"), (0.5, "fourier"),
                                  (4.0, "fourier"))),
        # fig3's field, 0.1 G, with a 3 mG smear: the widths of m = +-3 and
        # +-2 take the transform, and that of m = +-1 (2.1 kHz) the FFT fold
        (lambda pulse: synth_copropagating(uniform_f4(), 0.1, pulse, CO_GRID, 3e-3),
         ["fourier", "fourier", "fold"]),
    ], ids=["0.1-fold", "0.3-fold", "0.5-fourier", "4.0-fourier", "fig3-3mG"])
    def test_route_has_the_smaller_size(self, monkeypatch, synth, routes):
        # the FFT fold serves narrow widths, where F needs many nodes, and
        # the transform wide ones; on the CLI grid at 7 ms a Doppler width
        # switches near 0.36 v_r
        sizes, used = [], []

        def spy(name, plan):
            def wrapped(*args):
                folded = plan(*args)
                sizes.append(next(folded))
                yield sizes[-1]
                used.append(name)   # reached only by the route that folds
                yield from folded
            return wrapped

        monkeypatch.setattr(raman, "_fold", spy("fold", _fold))
        monkeypatch.setattr(raman, "_fourier", spy("fourier", _fourier))
        synth(self.PULSE)
        assert used == routes
        # each width sizes its FFT fold, then its Fourier route
        assert [("fold", "fourier")[int(fourier < fold)]
                for fold, fourier in zip(sizes[::2], sizes[1::2])] == routes

    @pytest.mark.parametrize("synth, plans", [
        # the smear widths |m| * 0.70 MHz/G * 300 uG: three widths, m and -m
        # in each of them, and the FFT fold folds each
        (lambda pulse: synth_copropagating(uniform_f4(), 0.1, pulse, CLI_GRID, 3e-4),
         {"fold": [2, 2, 2], "fourier": [1, 1, 1]}),
        # one Doppler width over seven positions: one plan on each route,
        # and the Fourier route folds
        (lambda pulse: synth_counterpropagating(uniform_f4(), VelocityDistribution(4.8), pulse,
                                                CLI_GRID, 0.1),
         {"fold": [1], "fourier": [2]}),
    ], ids=["copropagating", "counterpropagating"])
    def test_one_plan_per_folded_width(self, monkeypatch, synth, plans):
        # a plan yields its size and then, if chosen, the folded sum of all
        # the lines of its width, whatever their number of positions
        opened = {}

        def spy(name, plan):
            def wrapped(*args):
                opened.setdefault(name, []).append(0)
                for out in plan(*args):
                    opened[name][-1] += 1
                    yield out
            return wrapped

        monkeypatch.setattr(raman, "_fold", spy("fold", _fold))
        monkeypatch.setattr(raman, "_fourier", spy("fourier", _fourier))
        assert np.all(np.isfinite(synth(self.PULSE).signal))
        assert opened == plans

    def test_leggauss_nodes_are_cached_read_only(self, monkeypatch):
        # the Fourier route's nodes depend on n alone: a repeated n takes
        # them from the cache, which no caller can write into, and the
        # spectrum keeps the bits of freshly computed nodes
        from numpy.polynomial import legendre

        calls = []

        def spy(n):
            calls.append(n)
            return leggauss(n)

        leggauss = legendre.leggauss
        raman._leggauss.cache_clear()
        monkeypatch.setattr(legendre, "leggauss", spy)
        vdist = VelocityDistribution(4.8)
        first = synth_counterpropagating(uniform_f4(), vdist, self.PULSE, CLI_GRID).signal
        assert len(calls) == 2 and 16 in calls
        again = synth_counterpropagating(uniform_f4(), vdist, self.PULSE, CLI_GRID).signal
        assert len(calls) == 2
        for array in raman._leggauss(16):
            with pytest.raises(ValueError):
                array[0] = 0.0
        monkeypatch.setattr(raman, "_leggauss", raman._leggauss.__wrapped__)
        fresh = synth_counterpropagating(uniform_f4(), vdist, self.PULSE, CLI_GRID).signal
        assert len(calls) == 4
        assert first.tobytes() == again.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("sigma_vr", [0.1, 1.0, 4.8])
    def test_routes_agree(self, sigma_vr):
        # both routes, whichever of them a width takes, agree to the
        # rounding of their sums, here of two lines of unequal weights, and
        # each route's sum is the weighted sum of its single lines
        sigma_hz, lines = doppler_shift(sigma_vr), {0.0: 0.3, 70e3: 1.7}

        def folded(lines):
            plans = [_fold(self.PULSE, sigma_hz, CLI_GRID, lines),
                     _fourier(self.PULSE, sigma_hz, CLI_GRID, lines)]
            for plan in plans:
                next(plan)
            return [next(plan) for plan in plans]

        fold, fourier = folded(lines)
        assert np.max(np.abs(fold - fourier)) <= 1e-11 * fold.max()
        singles = [folded({s0: 1.0}) for s0 in lines]
        for i, route in enumerate((fold, fourier)):
            want = sum(w * single[i] for w, single in zip(lines.values(), singles))
            assert np.max(np.abs(route - want)) <= 1e-13 * fold.max()

    @pytest.mark.parametrize("m", [-3, -1, 1, 3])
    @pytest.mark.parametrize("rms_gauss", [5e-5, 3e-4])
    def test_copropagating_smear_matches_direct_sum(self, m, rms_gauss):
        # smear sigma = |m| * 0.70 MHz/G * rms: 35 Hz (m=1, 50 uG) to 630 Hz
        # (m=3, 300 uG); at 0.002 / |m| G the line sits at 1.4 kHz on the
        # CLI grid, where a Gaussian cut at +-6 sigma is off by 3.5e-9
        bias_gauss = 0.002 / abs(m)
        got = synth_copropagating(polarized_populations(m), bias_gauss, self.PULSE, CO_GRID,
                                  rms_gauss).signal[::20]
        want = untruncated_copropagating(polarized_populations(m), bias_gauss, self.PULSE,
                                         CO_GRID[::20], rms_gauss)
        assert np.max(np.abs(got - want)) <= 1e-12 * want.max()

    @pytest.mark.parametrize("bias_gauss, rms_gauss", [(0.002, 3e-4), (0.002, 1e-3),
                                                       (0.001, 1e-4)])
    def test_copropagating_matches_untruncated_quadrature(self, bias_gauss, rms_gauss):
        # all seven lines, the smeared ones on or near the CLI grid, where
        # Gaussians cut at +-6 sigma are off by up to 1.2e-9 of the peak
        got = synth_copropagating(uniform_f4(), bias_gauss, self.PULSE, CO_GRID,
                                  rms_gauss).signal[::20]
        want = untruncated_copropagating(uniform_f4(), bias_gauss, self.PULSE, CO_GRID[::20],
                                         rms_gauss)
        assert np.max(np.abs(got - want)) <= 1e-12 * want.max()

    def test_copropagating_m0_line_is_not_folded(self):
        grid = np.arange(-2000.0, 2000.0 + 0.5, 1.0)
        pulse = RamanPulse(0.007)
        spec = synth_copropagating(
            polarized_populations(0), 0.1, pulse, grid, 300e-6
        )
        assert np.array_equal(spec.signal, rabi_lineshape(grid, pulse))

    def test_shared_fold_is_weighted_after_folding(self):
        # at zero bias every line of uniform_f4 sits at one position with one
        # width: one fold of the weighted line, which is the single line's
        # fold times the summed population up to the rounding of the fold
        populations = uniform_f4()
        weight = 0.0
        for m in range(-3, 4):
            weight += populations[state_index(Sublevel("g", 4, m))]
        vdist = VelocityDistribution(4.0)
        shared = synth_counterpropagating(populations, vdist, self.PULSE, CLI_GRID)
        single = synth_counterpropagating(polarized_populations(0), vdist, self.PULSE, CLI_GRID)
        assert np.max(np.abs(shared.signal - weight * single.signal)) <= 1e-14 * shared.signal.max()

    @pytest.mark.parametrize("bias_gauss", [0.0, 0.1])
    def test_zero_spread_equals_unsmeared_copropagating(self, bias_gauss):
        grid = np.arange(-250e3, 250e3 + 1.0, 50.0)
        counter = synth_counterpropagating(
            uniform_f4(), VelocityDistribution(0.0), self.PULSE, grid, bias_gauss
        )
        co = synth_copropagating(uniform_f4(), bias_gauss, self.PULSE, grid)
        assert np.array_equal(counter.signal, co.signal)

    def test_nonuniform_grid_rejected(self):
        grid = np.concatenate([np.arange(-5e3, 0.0, 250.0), np.arange(0.0, 5e3, 100.0)])
        with pytest.raises(ValueError, match="uniform"):
            synth_counterpropagating(uniform_f4(), VelocityDistribution(1.0), self.PULSE, grid)
        with pytest.raises(ValueError, match="uniform"):
            synth_copropagating(
                polarized_populations(1), 0.1, RamanPulse(0.007), grid, 3e-4
            )

    def test_empty_grid(self):
        empty = np.zeros(0)
        counter = synth_counterpropagating(
            uniform_f4(), VelocityDistribution(4.0), self.PULSE, empty
        )
        co = synth_copropagating(uniform_f4(), 0.1, RamanPulse(0.007), empty, 3e-4)
        assert counter.signal.shape == co.signal.shape == (0,)

    def test_one_point_grid_matches_full_grid(self):
        full = synth_counterpropagating(
            uniform_f4(), VelocityDistribution(4.0), self.PULSE, CLI_GRID
        ).signal
        for i in (0, 800, 1000):
            one = synth_counterpropagating(
                uniform_f4(), VelocityDistribution(4.0), self.PULSE, CLI_GRID[i : i + 1]
            ).signal
            assert one.shape == (1,)
            assert one[0] == pytest.approx(full[i], abs=1e-9 * full.max())

    def test_zero_spread_is_the_bare_line(self):
        spec = synth_counterpropagating(
            polarized_populations(0), VelocityDistribution(0.0, mean=1.0), self.PULSE, CLI_GRID
        )
        shift = doppler_shift(1.0)
        assert np.array_equal(spec.signal, rabi_lineshape(CLI_GRID - 0.0 - shift, self.PULSE))

    def test_oversized_fold_rejected_before_allocating(self):
        # a width of 1e-6 v_r under a 10 s pulse overruns the bound on both
        # routes, 2.0e8 FFT nodes or n_t = 5e6 Fourier nodes; the cheaper
        # route is refused before any array is allocated
        vdist, pulse = VelocityDistribution(1e-6), RamanPulse(10.0)
        sigma_hz = doppler_shift(vdist.sigma)
        sizes = [next(_fold(pulse, sigma_hz, CLI_GRID, [0.0])),
                 next(_fourier(pulse, sigma_hz, CLI_GRID, [0.0]))]
        assert min(sizes) > _MAX_FOLD
        message = rf"fold needs {min(sizes):.0f} nodes, over the 8388608"
        with pytest.raises(ValueError, match=message):
            synth_counterpropagating(uniform_f4(), vdist, pulse, CLI_GRID)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sigma_vr, tau_s", [(1e305, 0.007), (4.8, 1e306)])
    def test_overflowing_fold_rejected(self, sigma_vr, tau_s):
        # 1e305 v_r is an infinite Doppler width, and at tau = 1e306 s the
        # transform's terms fall below the normal floats: both are refused
        # before any array exists, without a warning
        message = {1e305: r"the Doppler width of the velocity spread 1e\+305 v_r is not finite",
                   4.8: r"the transform of the tau = 1e\+306 s line underflows"}[sigma_vr]
        with pytest.raises(ValueError, match=message):
            synth_counterpropagating(
                uniform_f4(), VelocityDistribution(sigma_vr), RamanPulse(tau_s), CLI_GRID
            )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bias_gauss, tau_s, rms_gauss", [
        (1e3, 1e300, 0.0), (1e6, 1e300, 0.0), (1e9, 1e300, 0.0),  # bare lines
        (1e302, 1.0, 1e-3),                                       # folded by the field smear
    ])
    def test_overflowing_rabi_phase_rejected(self, bias_gauss, tau_s, rms_gauss):
        # sin of an overflowed Rabi phase is NaN, and the signal with it: the
        # spectrum is refused before any line is evaluated, without a warning;
        # at 1e302 G the line positions themselves are not finite, and no
        # pulse length would help, so the message names the field
        message = (f"at bias_gauss = {bias_gauss:g} G is not finite" if rms_gauss
                   else f"Rabi phase of the tau_s = {tau_s:g} s")
        with pytest.raises(ValueError, match=re.escape(message)):
            synth_copropagating(uniform_f4(), bias_gauss, RamanPulse(tau_s), CO_GRID, rms_gauss)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("synth", [
        lambda pulse: synth_counterpropagating(uniform_f4(), VelocityDistribution(4.0), pulse,
                                               CLI_GRID, 1e290),
        lambda pulse: synth_copropagating(uniform_f4(), 1e290, pulse, CO_GRID, 1e-3),
    ], ids=["counterpropagating", "copropagating"])
    def test_far_lines_size_the_fourier_route_without_a_warning(self, synth):
        # lines 1e296 Hz off the grid give the Fourier route a finite n_t
        # whose size overflows to inf: the FFT fold is taken, quietly
        signal = synth(self.PULSE).signal
        assert np.all(np.isfinite(signal))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bias_gauss, tau_s", [(0.1, 1e100), (1e3, 1e290), (0.1, 1e300)])
    def test_large_finite_rabi_phase_kept(self, bias_gauss, tau_s):
        grid = np.arange(-2000.0, 2000.0 + 0.5, 1.0)
        signal = synth_copropagating(uniform_f4(), bias_gauss, RamanPulse(tau_s), grid).signal
        assert np.all(np.isfinite(signal)) and np.all((signal >= 0.0) & (signal <= 1.0))

    @pytest.mark.filterwarnings("error")
    def test_huge_doppler_width_is_flat(self):
        # at 1e10 v_r the fold takes the Fourier route on 49 nodes and gives
        # the line's area spread over the Gaussian, flat on the grid: the
        # area is F(0) = (W0 / 4) int_0^pi J0, W0 = pi / tau
        from scipy.integrate import quad
        from scipy.special import j0

        vdist = VelocityDistribution(1e10)
        got = synth_counterpropagating(uniform_f4(), vdist, self.PULSE, CLI_GRID).signal
        area = np.pi / (4.0 * self.PULSE.duration) * quad(j0, 0.0, np.pi, epsabs=0.0)[0]
        want = 7.0 / 9.0 * area / (np.sqrt(2.0 * np.pi) * doppler_shift(vdist.sigma))
        assert np.max(np.abs(got - want)) <= 1e-12 * want

    @pytest.mark.filterwarnings("error")
    def test_infinite_doppler_position_rejected(self):
        # a finite mean of 1e305 v_r shifts the line by inf Hz, which would
        # turn every value of the spectrum into NaN
        with pytest.raises(ValueError, match="mean velocity 1e[+]305 v_r is not finite"):
            synth_counterpropagating(
                uniform_f4(), VelocityDistribution(5.2, 1e305), self.PULSE, CLI_GRID
            )

    def test_next_fast_len_matches_scipy(self):
        # the fold's transform sizes are the ones scipy.fft would pick
        from scipy.fft import next_fast_len

        sizes = list(range(1, 5000))
        sizes += np.random.default_rng(7).integers(5000, 10**7, 3000).tolist()
        assert [_next_fast_len(n) for n in sizes] == [next_fast_len(n, real=True)
                                                       for n in sizes]

    def test_import_leaves_scipy_signal_unloaded(self):
        # scipy.signal adds most of a second to every process start, and
        # nothing in the package uses it
        code = "import pumpsim, sys; sys.exit('scipy.signal' in sys.modules)"
        assert run_with_pumpsim(code).returncode == 0

    def test_import_loads_no_scipy_submodule(self):
        # the package imports no scipy, so no process pays for it
        code = (
            "import sys, pumpsim, pumpsim.cli\n"
            "mods = ('scipy.fft', 'scipy.optimize', 'scipy.linalg', 'scipy.signal')\n"
            "print(' '.join(m for m in mods if m in sys.modules))\n"
        )
        result = run_with_pumpsim(code)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == []


class TestGaussianFit:
    def test_noiseless_recovery(self):
        x = np.linspace(-1e5, 1e5, 2001)
        y = 0.7 * np.exp(-0.5 * ((x - 1234.0) / 20e3) ** 2)
        fit = fit_gaussian(Spectrum(x, y))
        assert fit.amplitude == pytest.approx(0.7, rel=1e-3)
        assert fit.center_hz == pytest.approx(1234.0, abs=20.0)
        assert fit.sigma_hz == pytest.approx(20e3, rel=1e-3)
        assert fit.rms_residual < 1e-12
        assert fit.converged

    def test_temperature_closure(self):
        # 4.0 and 4.8 recoil velocities map to 3.2 and 4.6 microkelvin
        for sigma_vr, temp in ((4.0, 3.2e-6), (4.8, 4.6e-6)):
            sigma_hz = sigma_vr * cst.DOPPLER_HZ_PER_RECOIL
            x = np.linspace(-6 * sigma_hz, 6 * sigma_hz, 1001)
            y = np.exp(-0.5 * (x / sigma_hz) ** 2)
            fit = fit_gaussian(Spectrum(x, y))
            assert fit.temperature_K == pytest.approx(temp, rel=0.03)

    def test_noise_robustness_hundred_seeds(self):
        sigmas = [fit_gaussian(noisy_gaussian(seed)).sigma_hz for seed in range(100)]
        assert np.median(np.abs(np.array(sigmas) - 20e3)) / 20e3 < 0.02

    def test_too_few_samples_rejected(self):
        x = np.linspace(-1.0, 1.0, 5)
        with pytest.raises(ValueError):
            fit_gaussian(Spectrum(x, np.exp(-x**2)))

    # least_squares stops on its own tolerances, up to about 1e-8 of sigma
    # short of the minimum on the noisy spectra; both fits must agree to that
    @pytest.mark.parametrize("spectrum", [
        *(synth_counterpropagating(uniform_f4(), VelocityDistribution(sigma_vr),
                                   RamanPulse(0.007), CLI_GRID)
          for sigma_vr in (4.8, 4.0, 5.2)),   # fig4, table1 and the 5.2 v_r row
        *(noisy_gaussian(seed) for seed in range(20)),
    ], ids=["fig4", "table1", "5.2vr", *(f"seed{seed}" for seed in range(20))])
    def test_matches_least_squares(self, spectrum):
        from scipy.optimize import least_squares

        x, y = spectrum.detunings, spectrum.signal
        c0 = x[np.argmax(y)]
        start = [y.max(), c0, np.sqrt(np.sum(y * (x - c0) ** 2) / np.sum(y))]
        want = least_squares(lambda p: p[0] * np.exp(-0.5 * ((x - p[1]) / p[2]) ** 2) - y,
                             x0=start, xtol=1e-8, ftol=1e-12, gtol=1e-12, max_nfev=2000)
        assert want.status > 0
        a, c, sigma = want.x[0], want.x[1], abs(want.x[2])
        fit = fit_gaussian(spectrum)
        assert fit.converged
        assert fit.sigma_hz == pytest.approx(sigma, rel=1e-8, abs=0)
        assert fit.amplitude == pytest.approx(a, rel=1e-8, abs=0)
        assert abs(fit.center_hz - c) <= 1e-6 * sigma

    @pytest.mark.parametrize("mean_vr, on_grid", [(20.0, True), (100.0, False)])
    def test_center_off_grid_not_converged(self, mean_vr, on_grid):
        # 20 v_r puts the line at 165 kHz, inside the +-250 kHz grid; 100 v_r
        # puts it at 827 kHz, where only the far tail of the line is sampled
        spectrum = synth_counterpropagating(uniform_f4(), VelocityDistribution(5.2, mean_vr),
                                            RamanPulse(0.007), CLI_GRID)
        fit = fit_gaussian(spectrum)
        assert bool(CLI_GRID[0] <= fit.center_hz <= CLI_GRID[-1]) is on_grid
        assert fit.converged is on_grid
        if on_grid:
            assert fit.center_hz == pytest.approx(mean_vr * cst.DOPPLER_HZ_PER_RECOIL, rel=1e-2)

    def test_nonconvergence_reported_not_raised(self):
        x = np.linspace(-1e5, 1e5, 801)
        y = np.exp(-0.5 * (x / 20e3) ** 2)
        fit = fit_gaussian(Spectrum(x, y), max_nfev=2)
        assert not fit.converged
        assert np.isfinite(fit.sigma_hz)


class TestVelocityResolution:
    def test_measured_polarized_line(self):
        res = velocity_resolution(160.0)
        assert res.recoil_units == pytest.approx(0.0193, abs=2e-4)
        assert res.meters_per_second == pytest.approx(68e-6, abs=1e-6)
        assert 1 / res.recoil_units == pytest.approx(51.7, abs=0.2)

    def test_one_recoil_identity(self):
        res = velocity_resolution(cst.DOPPLER_HZ_PER_RECOIL)
        assert res.recoil_units == pytest.approx(1.0, rel=1e-12)

    def test_improvement_factor(self):
        wide = velocity_resolution(3500.0)
        narrow = velocity_resolution(160.0)
        factor = wide.recoil_units / narrow.recoil_units
        assert factor == pytest.approx(21.875, rel=1e-12)
        assert factor == pytest.approx(22.0, abs=0.5)

    def test_unit_closure(self):
        for v in (0.01, 0.4, 1.0, 5.0):
            res = velocity_resolution(doppler_shift(v))
            assert res.recoil_units == pytest.approx(v, rel=1e-12)

    def test_positive_width_required(self):
        with pytest.raises(ValueError):
            velocity_resolution(0.0)


def test_spectrum_csv_round_trip(tmp_path):
    grid = np.linspace(-1e3, 1e3, 11)
    spec = synth_copropagating(
        polarized_populations(), 0.1, RamanPulse(0.007), grid
    )
    fit = fit_gaussian(
        Spectrum(grid, np.exp(-0.5 * (grid / 300.0) ** 2))
    )
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(spec, path, fit)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "detuning_hz,signal"
    data = [ln for ln in lines[1:] if not ln.startswith("#")]
    comments = [ln for ln in lines if ln.startswith("#")]
    assert len(data) == 11
    back = np.array([[float(v) for v in ln.split(",")] for ln in data])
    assert np.array_equal(back[:, 0], grid)
    assert np.array_equal(back[:, 1], spec.signal)
    assert any(ln.startswith("# sigma_hz=") for ln in comments)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "make, field_name",
    [
        (lambda: RamanPulse(NAN), "duration"),
        (lambda: RamanPulse(INF), "duration"),
        (lambda: RamanPulse(0.0), "duration"),
        (lambda: VelocityDistribution(NAN), "sigma"),
        (lambda: VelocityDistribution(INF), "sigma"),
        (lambda: VelocityDistribution(-1.0), "sigma"),
        (lambda: VelocityDistribution(4.0, mean=NAN), "mean"),
        (lambda: VelocityDistribution(4.0, mean=INF), "mean"),
        (lambda: raman_line_offset(1, NAN), "bias_gauss"),
        (lambda: raman_line_offset(1, -INF), "bias_gauss"),
        (lambda: synth_copropagating(uniform_f4(), NAN, RamanPulse(0.007), CLI_GRID),
         "bias_gauss"),
        (lambda: synth_counterpropagating(uniform_f4(), VelocityDistribution(4.0),
                                          RamanPulse(0.007), CLI_GRID, INF), "bias_gauss"),
        (lambda: synth_copropagating(uniform_f4(), 0.1, RamanPulse(0.007), CLI_GRID, NAN),
         "field_rms_gauss"),
        (lambda: synth_copropagating(uniform_f4(), 0.1, RamanPulse(0.007), CLI_GRID, INF),
         "field_rms_gauss"),
        (lambda: synth_copropagating(uniform_f4(), 0.1, RamanPulse(0.007), CLI_GRID, -3e-4),
         "field_rms_gauss"),
        (lambda: velocity_resolution(NAN), "fwhm_hz"),
        (lambda: velocity_resolution(INF), "fwhm_hz"),
    ],
)
def test_non_finite_raman_input_rejected(make, field_name):
    # a nan duration used to give a nan line, and a nan or infinite
    # spread failed later inside the fold; a
    # nan bias dropped every m != 0 line, an infinite one gave a nan
    # spectrum, and a nan mean velocity an all-zero one
    with pytest.raises(ValueError, match=field_name):
        make()
