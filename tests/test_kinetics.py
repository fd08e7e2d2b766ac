"""Rate-matrix assembly, pruning, and the fixed-step integrator."""

import gc
import logging
import math
import os
import subprocess
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_h

from pumpsim import constants as cst
from pumpsim import kinetics
from pumpsim.kinetics import (
    LIBRARY_DT,
    STACKED_POWERS,
    TERM,
    Beam,
    RateMatrix,
    Trajectory,
    _channels,
    _conserving,
    _from_terms,
    _layout,
    _rk4_step_matrix,
    _spontaneous_part,
    _step_powers,
    assemble_rate_matrix,
    first_crossing,
    integrate_rk4,
    polarization_weights,
    prune,
    pump_metrics,
    single_sublevel,
    stationary_state,
    transition_overlap,
    uniform_f4,
    with_depolarization,
)
from pumpsim.structure import (
    EXCITED_INDICES,
    GROUND_INDICES,
    Sublevel,
    branching_table,
    state_index,
)

DT = 0.01 / cst.GAMMA


def fig5_beams(alpha=0.013):
    return [Beam(4, 4, 0.019, -0.5, alpha), Beam(3, 4, 0.023, 0.0, alpha)]


class TestPolarizationWeights:
    def test_pure_pi(self):
        assert polarization_weights(0.0) == (0.0, 1.0, 0.0)

    def test_fitted_contamination(self):
        # direct arithmetic: a2 = 1.69e-4, w = a2/(1+2 a2)
        w_minus, w_pi, w_plus = polarization_weights(0.013)
        assert w_plus == pytest.approx(1.6894e-4, rel=1e-4)
        assert w_minus == w_plus
        assert w_pi == pytest.approx(0.999662, abs=1e-6)

    @given(st_h.floats(min_value=0.0, max_value=50.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_weights_normalized(self, alpha):
        w = polarization_weights(alpha)
        assert min(w) >= 0.0
        assert sum(w) == pytest.approx(1.0, abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            polarization_weights(-0.1)

    @pytest.mark.parametrize("alpha", [2.0, 1e100, 1e154, 1e200, 1.7e308])
    def test_huge_contamination_finite(self, alpha):
        # a2 overflows to inf above about 1.3e154; the weights used to come
        # back as (nan, 0, nan) and the beam was dropped
        w = polarization_weights(alpha)
        assert all(math.isfinite(x) and x >= 0.0 for x in w)
        assert sum(w) == pytest.approx(1.0, abs=1e-15)
        assert w[0] == w[2] == pytest.approx(alpha**2 / (1 + 2 * alpha**2)
                                             if alpha < 1e100 else 0.5, rel=1e-15)
        rm = assemble_rate_matrix([Beam(4, 4, 0.019, -0.5, alpha)])
        assert rm.terms.size > 0 and np.all(np.isfinite(rm.matrix))

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, alpha):
        # nan used to come back as (nan, nan, nan), inf as (nan, 0, nan)
        with pytest.raises(ValueError, match="depolarization"):
            polarization_weights(alpha)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "field_name, value",
    [
        ("intensity_ratio", NAN),
        ("intensity_ratio", INF),
        ("detuning", NAN),
        ("detuning", INF),
        ("detuning", -INF),
        ("depolarization", NAN),
        ("depolarization", INF),
        ("linewidth", NAN),
        ("linewidth", INF),
    ],
)
def test_non_finite_beam_rejected(field_name, value):
    # such a beam used to build, and assemble_rate_matrix then dropped all
    # of its stimulated terms without a word
    with pytest.raises(ValueError, match=field_name.split("_")[0]):
        replace(Beam(4, 4, 0.019, -0.5, 0.013), **{field_name: value})


@pytest.mark.parametrize("change", [{"linewidth": 2.0 * math.pi * 1e-300},
                                    {"intensity_ratio": 1e308}])
def test_overflowing_rate_rejected(change):
    # such a beam used to give infinite rates, and NaN ones where its
    # polarization weight is 0, so every population came out NaN
    with pytest.raises(ValueError, match="rate of Beam.* is not finite"):
        assemble_rate_matrix([replace(Beam(4, 4, 0.019, -0.5, 0.0), **change)])


class TestTransitionOverlap:
    def test_linewidth_bounded_by_the_optical_frequency(self):
        # a 1e300 Hz line used to overflow a float power here; no line is
        # wider than its optical frequency, and at that width every overlap
        # is finite and just under 1
        widest = 2.0 * math.pi * cst.OPTICAL_FREQUENCY
        bm = Beam(4, 4, 0.019, 0.0, linewidth=widest)
        for excited_f in (3, 4, 5):
            assert 0.99 < transition_overlap(excited_f, bm) < 1.0
        with pytest.raises(ValueError, match="linewidth"):
            Beam(4, 4, 0.019, 0.0, linewidth=math.nextafter(widest, math.inf))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_detuning_bounded_by_the_optical_frequency(self, sign):
        # a detuning of 5.8e76 linewidths used to overflow a float power
        # here; no laser sits further from a line than its optical
        # frequency, and there every overlap is finite and tiny
        farthest = sign * 2.0 * math.pi * cst.OPTICAL_FREQUENCY / cst.GAMMA
        bm = Beam(4, 4, 0.019, farthest)
        for excited_f in (3, 4, 5):
            assert 0.0 < transition_overlap(excited_f, bm) < 1e-15
        with pytest.raises(ValueError, match="detuning"):
            Beam(4, 4, 0.019, math.nextafter(farthest, sign * math.inf))

    def test_on_resonance_closed_form(self):
        # on resonance the general form reduces to mu/(mu+1)
        bm = Beam(4, 4, 0.019, 0.0, linewidth=0.2 * cst.GAMMA)
        assert transition_overlap(4, bm) == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_default_linewidth_on_resonance(self):
        bm = Beam(4, 4, 0.019, 0.0)
        mu = cst.LASER_LINEWIDTH / cst.GAMMA
        assert transition_overlap(4, bm) == pytest.approx(mu / (mu + 1), rel=1e-12)
        assert transition_overlap(4, bm) == pytest.approx(0.1608, abs=5e-5)

    def test_far_detuned_limit(self):
        values = [
            transition_overlap(4, Beam(4, 4, 0.019, detuning))
            for detuning in (1e3, 1e5, 1e7)
        ]
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-12

    def test_removable_singularity_at_unit_linewidth(self):
        bm = Beam(4, 4, 0.019, 0.0, linewidth=cst.GAMMA)
        assert transition_overlap(4, bm) == pytest.approx(0.5, rel=1e-9)

    def test_neighbor_ratio_scale(self):
        # off-resonant excitation is weaker by up to four orders of magnitude
        pb = Beam(4, 4, 0.019, -0.5)
        rep = Beam(3, 4, 0.023, 0.0)
        overlaps = [transition_overlap(fe, pb) for fe in (3, 4, 5)]
        overlaps += [transition_overlap(fe, rep) for fe in (3, 4)]
        ratio = max(overlaps) / min(overlaps)
        assert 1e3 < ratio < 1e4 * 2

    def test_rejects_forbidden_transition(self):
        with pytest.raises(ValueError):
            transition_overlap(5, Beam(3, 4, 0.023))


def stimulated_rates(bm, ground, excited):
    """Rates of the ground -> excited terms in the table of `bm` alone."""
    terms = assemble_rate_matrix([bm]).terms
    hit = (terms["ground"] == state_index(ground)) & (terms["excited"] == state_index(excited))
    return terms["rate"][hit]


class TestStimulatedRate:
    def test_forbidden_channel_is_zero(self):
        bm = Beam(4, 4, 0.019, -0.5)
        assert stimulated_rates(bm, Sublevel("g", 4, 0), Sublevel("e", 4, 0)).size == 0
        assert stimulated_rates(bm, Sublevel("g", 4, 1), Sublevel("e", 4, 1)).size == 1

    def test_linear_in_intensity(self):
        g, e = Sublevel("g", 4, 1), Sublevel("e", 4, 1)
        (w1,) = stimulated_rates(Beam(4, 4, 0.019, -0.5), g, e)
        (w2,) = stimulated_rates(Beam(4, 4, 0.038, -0.5), g, e)
        assert w2 == pytest.approx(2.0 * w1, rel=1e-12)

    def test_si_form_identity(self):
        # the saturation-intensity form equals the SI form with
        # I = ratio * pi h c Gamma / (3 lambda^3), to 1e-12 relative
        g, e = Sublevel("g", 4, 2), Sublevel("e", 4, 2)
        bm = Beam(4, 4, 0.019, -0.5)
        from pumpsim.structure import branching_ratio

        ratio = 0.019
        intensity = ratio * cst.SATURATION_INTENSITY
        overlap = transition_overlap(4, bm)
        a = branching_ratio(e, g)
        si_form = (
            1.5
            * cst.WAVELENGTH**3
            / (math.pi * cst.PLANCK * cst.SPEED_OF_LIGHT)
            * intensity
            / bm.linewidth
            * overlap
            * a
            * cst.GAMMA
            * polarization_weights(bm.depolarization)[1]
        )
        (rate,) = stimulated_rates(bm, g, e)
        assert rate == pytest.approx(si_form, rel=1e-12)

    def test_saturation_intensity_value(self):
        assert cst.SATURATION_INTENSITY == pytest.approx(11.0, rel=5e-3)


class TestAssembly:
    def test_no_beams_spontaneous_only(self):
        rm = assemble_rate_matrix([])
        for gi in GROUND_INDICES:
            assert np.all(rm.matrix[:, gi] == 0.0)
        for ei in EXCITED_INDICES:
            assert rm.matrix[ei, ei] == pytest.approx(-cst.GAMMA, rel=1e-12)

    def test_columns_conserve_population(self):
        rm = assemble_rate_matrix(fig5_beams())
        colsums = rm.matrix.sum(axis=0)
        assert np.max(np.abs(colsums)) < 1e-9 * rm.max_rate

    def test_off_diagonal_nonnegative(self):
        rm = assemble_rate_matrix(fig5_beams())
        off = rm.matrix - np.diag(np.diag(rm.matrix))
        assert off.min() >= 0.0

    def test_dark_state_decoupled_for_pure_pi(self):
        # in the reduced system (weak neighbor lines dropped) nothing drives
        # population out of g,F=4,m=0: its column is exactly zero
        rm, _ = prune(assemble_rate_matrix(fig5_beams(alpha=0.0)), 1e-3)
        dark = state_index(Sublevel("g", 4, 0))
        assert np.all(rm.matrix[:, dark] == 0.0)
        # the full system leaks out of it only through far-off-resonant lines,
        # orders of magnitude below the pumping rates
        full = assemble_rate_matrix(fig5_beams(alpha=0.0))
        leak = -full.matrix[dark, dark]
        assert 0.0 < leak < 1e-3 * full.terms["rate"].max()

    def test_stimulated_symmetry(self):
        # absorption and stimulated emission enter with the same rate
        rm = assemble_rate_matrix(fig5_beams())
        stim = np.zeros_like(rm.matrix)
        np.add.at(stim, (rm.terms["excited"], rm.terms["ground"]), rm.terms["rate"])
        np.add.at(stim, (rm.terms["ground"], rm.terms["excited"]), rm.terms["rate"])
        assert np.array_equal(stim, stim.T)
        # and the assembled matrix carries exactly spontaneous + stimulated
        spont = assemble_rate_matrix([]).matrix
        off = rm.matrix - spont - stim
        np.fill_diagonal(off, 0.0)
        assert np.max(np.abs(off)) < 1e-7 * rm.max_rate

    def test_rejects_unknown_transition(self):
        with pytest.raises(ValueError):
            Beam(4, 2, 0.019)
        with pytest.raises(ValueError):
            Beam(2, 3, 0.019)


class TestPrune:
    def test_tiny_threshold_is_noop(self):
        rm = assemble_rate_matrix(fig5_beams())
        pruned, active = prune(rm, 1e-7)
        assert active == 43
        assert np.array_equal(pruned.matrix, rm.matrix)

    def test_default_threshold_keeps_target_lines(self):
        # the two driven transitions survive; every F'=3 and F'=5 coupling
        # is dropped, leaving both ground manifolds plus F'=4 in play
        rm = assemble_rate_matrix(fig5_beams())
        pruned, active = prune(rm, 1e-3)
        assert active == 25
        kept_fs = {_states()[i].f for i in np.unique(pruned.terms["excited"])}
        assert kept_fs == {4}

    def test_pruned_dynamics_close_to_full(self):
        rm = assemble_rate_matrix(fig5_beams())
        pruned, _ = prune(rm, 1e-3)
        full = integrate_rk4(rm, uniform_f4(), DT, 0.05)
        reduced = integrate_rk4(pruned, uniform_f4(), DT, 0.05)
        m0_full = pump_metrics(full).m0_fraction[-1]
        m0_reduced = pump_metrics(reduced).m0_fraction[-1]
        assert abs(m0_full - m0_reduced) < 1e-2

    def test_threshold_validated(self):
        rm = assemble_rate_matrix(fig5_beams())
        with pytest.raises(ValueError):
            prune(rm, 0.0)
        with pytest.raises(ValueError):
            prune(rm, 1.5)


def _states():
    from pumpsim.structure import STATES

    return STATES


class TestIntegration:
    def test_spontaneous_decay_oracle(self):
        # single excited sublevel, no light: N(t) = exp(-Gamma t)
        rm = assemble_rate_matrix([])
        level = Sublevel("e", 4, 2)
        traj = integrate_rk4(rm, single_sublevel(level), DT, 3.0 / cst.GAMMA)
        expected = np.exp(-cst.GAMMA * traj.times)
        actual = traj.populations[:, state_index(level)]
        assert np.max(np.abs(actual - expected) / expected) < 1e-8

    def test_population_conserved(self):
        rm = assemble_rate_matrix(fig5_beams())
        traj = integrate_rk4(rm, uniform_f4(), DT, 0.005)
        totals = traj.populations.sum(axis=1) + 0.0
        assert np.max(np.abs(totals - 1.0)) < 1e-9

    def test_populations_stay_nonnegative(self):
        rm = assemble_rate_matrix(fig5_beams())
        traj = integrate_rk4(rm, uniform_f4(), DT, 0.005)
        assert traj.populations.min() >= 0.0

    def test_scattered_photons_nondecreasing(self):
        rm = assemble_rate_matrix(fig5_beams())
        traj = integrate_rk4(rm, uniform_f4(), DT, 0.005)
        assert np.all(np.diff(traj.scattered_photons) >= 0.0)

    def test_default_initial_condition(self):
        n0 = uniform_f4()
        assert n0.sum() == pytest.approx(1.0, abs=1e-15)
        for m in range(-4, 5):
            assert n0[state_index(Sublevel("g", 4, m))] == pytest.approx(1.0 / 9.0)
        assert np.count_nonzero(n0) == 9

    def test_unstable_step_rejected(self):
        rm = assemble_rate_matrix(fig5_beams())
        with pytest.raises(ValueError, match="stability"):
            integrate_rk4(rm, uniform_f4(), 1.0 / cst.GAMMA, 0.001)

    @pytest.mark.parametrize("dt, t_end", [
        (DT, float("inf")), (DT, float("nan")), (float("nan"), 0.001),
        (float("inf"), 0.001), (0.0, 0.001), (DT, -0.001),
    ])
    def test_bad_times_rejected(self, dt, t_end):
        # an infinite t_end used to raise OverflowError, a nan one "cannot
        # convert float NaN to integer"
        with pytest.raises(ValueError, match="dt and t_end must be finite and positive"):
            integrate_rk4(assemble_rate_matrix([]), uniform_f4(), dt, t_end)

    @pytest.mark.parametrize("steps", [2**53 - 1, 2**53])
    def test_step_count_bound(self, steps):
        # t_end / dt is exact at dt = 2**-30 s; below 2**53 steps every grid
        # time is dt times an exact step index, and at 2**53 the run is
        # refused before a float step count skips steps
        dt, t_end = 2.0**-30, steps * 2.0**-30
        if steps == 2**53:
            with pytest.raises(ValueError, match=r"takes 9.0072e\+15 steps; it must take "
                                                 r"fewer than 2\*\*53"):
                integrate_rk4(assemble_rate_matrix([]), uniform_f4(), dt, t_end)
            return
        traj = integrate_rk4(assemble_rate_matrix([]), uniform_f4(), dt, t_end)
        stride = -(-steps // 1200)
        grid = np.arange(steps // stride + 1) * stride
        assert np.array_equal(traj.times, dt * np.append(grid, steps))
        assert traj.times[-1] == t_end and np.all(np.diff(traj.times) > 0)

    def test_negative_initial_rejected(self):
        rm = assemble_rate_matrix([])
        n0 = uniform_f4()
        n0[0] = -0.01
        n0[1] += 0.01
        with pytest.raises(ValueError):
            integrate_rk4(rm, n0, DT, 0.001)

    def test_mirror_symmetry_preserved(self):
        # pure pi light and m-symmetric start: N(m) == N(-m) at all times
        rm = assemble_rate_matrix(fig5_beams(alpha=0.0))
        traj = integrate_rk4(rm, uniform_f4(), DT, 0.002)
        states = _states()
        for i, level in enumerate(states):
            j = state_index(Sublevel(level.s, level.f, -level.m))
            assert np.max(
                np.abs(traj.populations[:, i] - traj.populations[:, j])
            ) < 1e-9

    def test_step_halving_order(self):
        # measured in the short-time regime where the stiff decay modes still
        # carry amplitude; at longer times their truncation error has damped
        # away and only rounding noise is left
        rm = assemble_rate_matrix([])
        level = Sublevel("e", 4, 1)
        t_end = 4.0 / cst.GAMMA
        finals = []
        dts = [0.08 / cst.GAMMA / d for d in (1, 2, 4)]
        for dt in dts:
            traj = integrate_rk4(rm, single_sublevel(level), dt, t_end, max_samples=2)
            finals.append(traj.populations[-1])
        diffs = [
            np.max(np.abs(a - b)) for a, b in zip(finals, finals[1:])
        ]
        order = math.log2(diffs[0] / diffs[1])
        assert order >= 3.5

    def test_monotone_contamination(self):
        finals = []
        for alpha in (0.0, 0.005, 0.013, 0.05, 0.1):
            rm, _ = prune(assemble_rate_matrix(fig5_beams(alpha)), 1e-3)
            traj = integrate_rk4(rm, uniform_f4(), DT, 0.05)
            finals.append(pump_metrics(traj).m0_fraction[-1])
        assert all(a >= b for a, b in zip(finals, finals[1:]))


def block_starts():
    return [uniform_f4()] + [
        single_sublevel(Sublevel("g", f, m)) for f, m in ((4, -4), (4, 2), (3, 1))
    ]


class TestBlockIntegration:
    """A (43, k) start runs k columns through one integration."""

    def test_single_column_bit_equal(self):
        rm = assemble_rate_matrix(fig5_beams())
        flat = integrate_rk4(rm, uniform_f4(), DT, 0.005)
        column = integrate_rk4(rm, uniform_f4()[:, None], DT, 0.005)
        assert column.populations.shape == flat.populations.shape + (1,)
        assert np.array_equal(column.times, flat.times)
        assert np.array_equal(column.populations[:, :, 0], flat.populations)
        assert np.array_equal(column.scattered_photons[:, 0], flat.scattered_photons)

    # the second case ends on a shorter remainder step: 1003 = 9 * 101 + 94
    @pytest.mark.parametrize("t_end, max_samples", [(0.005, 1201), (1003 * DT, 11)])
    def test_columns_match_single_runs(self, t_end, max_samples):
        rm, _ = prune(assemble_rate_matrix(fig5_beams()), 1e-3)
        starts = block_starts()
        block = integrate_rk4(rm, np.column_stack(starts), DT, t_end, max_samples)
        for j, n0 in enumerate(starts):
            single = integrate_rk4(rm, n0, DT, t_end, max_samples)
            assert np.array_equal(block.times, single.times)
            np.testing.assert_allclose(
                block.populations[:, :, j], single.populations, rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(
                block.scattered_photons[:, j], single.scattered_photons, rtol=1e-12
            )

    @pytest.mark.parametrize(
        "fault, match",
        [("sum 0.9", "sum to one"), ("negative", "nonnegative"), ("nan", "nonnegative")],
    )
    def test_one_bad_column_rejected(self, fault, match):
        bad = uniform_f4()
        i, j = np.nonzero(bad)[0][:2]
        if fault == "sum 0.9":
            bad *= 0.9
        elif fault == "negative":
            bad[i] -= 0.12  # -0.0089, and the column still sums to one
            bad[j] += 0.12
        else:
            bad[i] = float("nan")
        starts = np.column_stack(block_starts())
        starts[:, 2] = bad
        with pytest.raises(ValueError, match=match):
            integrate_rk4(assemble_rate_matrix([]), starts, DT, 0.001)

    @pytest.mark.parametrize("shape", [(43, 2, 1), (43, 0), (44,), (2, 43)])
    def test_start_shape_rejected(self, shape):
        n0 = np.full(shape, 1.0 / 43.0)
        with pytest.raises(ValueError, match="shape"):
            integrate_rk4(assemble_rate_matrix([]), n0, DT, 0.001)

    @staticmethod
    def draining(rate):
        # not a generator: state 1 loses what state 0 gains, so it goes
        # negative by rate * t
        rates = np.zeros((43, 43))
        rates[0, 0], rates[1, 0] = rate, -rate
        return RateMatrix(rates, np.empty(0, TERM))

    @pytest.mark.parametrize("k", [None, 2])
    def test_slight_negatives_clipped(self, k, caplog):
        n0 = single_sublevel(_states()[0])
        if k:
            n0 = np.column_stack([n0] * k)
        with caplog.at_level(logging.DEBUG, logger="pumpsim.kinetics"):
            traj = integrate_rk4(self.draining(1e-10), n0, 1e-6, 1e-3, max_samples=11)
        assert traj.populations.min() == 0.0
        assert np.all(traj.populations[:, 1] == 0.0)
        assert f"clipped {10 * (k or 1)} slightly negative populations" in caplog.text

    def test_large_negative_raises(self):
        with pytest.raises(RuntimeError, match="too coarse"):
            integrate_rk4(self.draining(1e-6), single_sublevel(_states()[0]),
                          1e-6, 1e-3, max_samples=11)


class TestSampledRows:
    """With `at`, integrate_rk4 computes only the rows interpolation reads."""

    # 3,280,000 steps fill 2000 strides of 1640; 4.8 ms ends on a 7022-step remainder
    @pytest.mark.parametrize("t_end", [3_280_000 * DT, 4.8e-3])
    @pytest.mark.parametrize("alpha", [0.0, 0.013, 0.2])
    @pytest.mark.parametrize("block", [False, True])
    def test_rows_bit_equal_to_full_run(self, t_end, alpha, block):
        rm = with_depolarization(prune(assemble_rate_matrix(fig5_beams()))[0], alpha)
        n0 = uniform_f4()
        if block:
            n0 = np.column_stack(block_starts() + [single_sublevel(Sublevel("g", 4, 0))])
        full = integrate_rk4(rm, n0, DT, t_end, max_samples=2001)
        # at 0, on grid points, duplicated, unsorted and beyond t_end
        at = np.concatenate([[0.0, full.times[7], full.times[7], full.times[-1], 2 * t_end],
                             np.linspace(t_end, 1e-5, 25)])
        part = integrate_rk4(rm, n0, DT, t_end, max_samples=2001, at=at)

        hi = np.clip(np.searchsorted(full.times, at, side="right"), 1, len(full.times) - 1)
        rows = np.unique(np.r_[0, hi - 1, hi])
        assert np.array_equal(part.times, full.times[rows])
        assert np.array_equal(part.populations, full.populations[rows])
        assert np.array_equal(part.scattered_photons, full.scattered_photons[rows])
        if not block:
            level = Sublevel("g", 4, 0)
            assert np.array_equal(np.interp(at, part.times, part.sublevel_fraction(level)),
                                  np.interp(at, full.times, full.sublevel_fraction(level)))
            assert np.array_equal(np.interp(at, part.times, part.scattered_photons),
                                  np.interp(at, full.times, full.scattered_photons))

    @pytest.mark.parametrize("k", [None, 2])
    def test_slight_negatives_clipped(self, k, caplog):
        n0 = single_sublevel(_states()[0])
        if k:
            n0 = np.column_stack([n0] * k)
        with caplog.at_level(logging.DEBUG, logger="pumpsim.kinetics"):
            traj = integrate_rk4(TestBlockIntegration.draining(1e-10), n0, 1e-6, 1e-3,
                                 max_samples=11, at=[4.5e-4])
        assert np.allclose(traj.times, [0.0, 4e-4, 5e-4], rtol=1e-12, atol=0)
        assert traj.populations.min() == 0.0
        assert np.all(traj.populations[:, 1] == 0.0)
        # rows 4 and 5 bracket the time; the last row, 10, is computed too
        assert f"clipped {3 * (k or 1)} slightly negative populations" in caplog.text

    def test_large_negative_in_unreturned_row_raises(self):
        # row 1 (-5e-13) is returned and within tolerance; row 10 (-5e-12)
        # is computed but not returned, and it is checked all the same
        with pytest.raises(RuntimeError, match="too coarse"):
            integrate_rk4(TestBlockIntegration.draining(5e-9), single_sublevel(_states()[0]),
                          1e-6, 1e-3, max_samples=11, at=[0.5e-4])


class TestStopAtLevel:
    """With `until`, a full run stops once every column reaches the level."""

    M0 = Sublevel("g", 4, 0)

    @staticmethod
    def run(n0, alpha=0.0, pruned=False, t_end=0.02, **kwargs):
        rm = assemble_rate_matrix(fig5_beams(alpha))
        if pruned:
            rm, _ = prune(rm)
        return integrate_rk4(rm, n0, LIBRARY_DT, t_end, max_samples=4001, **kwargs)

    @staticmethod
    def starts(block):
        if not block:
            return single_sublevel(Sublevel("g", 4, 3))
        return np.column_stack([single_sublevel(Sublevel("g", 4, m)) for m in range(-4, 1)])

    @pytest.mark.parametrize("pruned", [False, True])
    @pytest.mark.parametrize("block", [False, True])
    def test_first_rows_of_full_run(self, block, pruned):
        n0 = self.starts(block)
        full = self.run(n0, pruned=pruned)
        part = self.run(n0, until=0.95, pruned=pruned)
        n = part.times.size
        # the crossing lies about 2 ms into the 20 ms window
        assert STACKED_POWERS < n < 500 and full.times.size == 4001
        assert np.array_equal(part.times, full.times[:n])
        assert np.array_equal(part.populations, full.populations[:n])
        assert np.array_equal(part.scattered_photons, full.scattered_photons[:n])
        # the chunk before the last one had not reached the level in every column
        fraction = part.sublevel_fraction(self.M0).reshape(n, -1)
        assert np.all(fraction[-1] >= 0.95)
        assert np.any(fraction[n - 1 - STACKED_POWERS] < 0.95)

    @pytest.mark.parametrize("alpha, pruned, t_end", [(0.05, True, 0.02), (0.0, False, 2e-5)])
    def test_unreached_level_runs_to_t_end(self, alpha, pruned, t_end):
        # pruned at alpha = 0.05 the stationary m0 fraction is 0.922; 2e-5 s
        # is too short, and ends on a remainder step
        n0 = self.starts(True)
        full = self.run(n0, alpha=alpha, pruned=pruned, t_end=t_end)
        part = self.run(n0, until=0.95, alpha=alpha, pruned=pruned, t_end=t_end)
        assert full.times[-1] == pytest.approx(t_end, rel=1e-4)
        assert np.array_equal(part.times, full.times)
        assert np.array_equal(part.populations, full.populations)
        assert np.array_equal(part.scattered_photons, full.scattered_photons)

    @pytest.mark.parametrize("block", [False, True])
    def test_stop_reads_the_returned_bits(self, block):
        # a level equal to the smallest fraction a reader gets at a chunk's
        # last row stops the run there; one ulp above it does not
        n0 = self.starts(block)
        full = self.run(n0)
        populations = full.populations.reshape(full.times.size, 43, -1)
        # a reader of a block's rows takes one column at a time
        fraction = np.column_stack([
            Trajectory(full.times, populations[:, :, j], None).sublevel_fraction(self.M0)
            for j in range(populations.shape[2])
        ]).min(axis=1)
        stops = 0
        for r in range(STACKED_POWERS, 600, STACKED_POWERS):
            if fraction[r] > fraction[:r].max():
                assert self.run(n0, until=fraction[r]).times.size == r + 1
                assert self.run(n0, until=np.nextafter(fraction[r], 1.0)).times.size > r + 1
                stops += 1
        assert stops > 10

    def test_stop_reads_clipped_rows(self):
        # g4 m0 gains what g4 m1 loses, so m1 goes slightly negative; read
        # unclipped, the m0 fraction would exceed 1 and stop the run at once
        m0, m1 = state_index(self.M0), state_index(Sublevel("g", 4, 1))
        rates = np.zeros((43, 43))
        rates[m0, m0], rates[m1, m0] = 1e-10, -1e-10
        traj = integrate_rk4(RateMatrix(rates, np.empty(0, TERM)), single_sublevel(self.M0),
                             1e-6, 1e-3, max_samples=101, until=np.nextafter(1.0, 2.0))
        assert traj.times.size == 101
        assert traj.populations[-1, m1] == 0.0

    @pytest.mark.parametrize("kwargs", [{}, {"until": 0.95}, {"at": [1e-3]}])
    def test_row_zero_counts_no_photons(self, kwargs):
        # rows come from an uninitialized array: row 0's photon entry is set
        np.full((41, 44, 5), np.nan)  # leave a dirty block of the run's size
        traj = self.run(self.starts(True), t_end=40 * LIBRARY_DT, **kwargs)
        assert np.all(traj.scattered_photons[0] == 0.0)
        assert np.array_equal(traj.populations[0], self.starts(True))

    def test_at_and_until_exclusive(self):
        with pytest.raises(ValueError, match="`at` or `until`"):
            self.run(uniform_f4(), until=0.95, t_end=1e-5, at=[1e-6])


def sample_by_sample(rm, n0, n_steps, stride):
    """Reference: the corrected block applied once per output sample."""
    step = _rk4_step_matrix(rm.matrix, DT)
    block = _conserving(np.linalg.matrix_power(step, stride))
    state = np.zeros((44,) + np.shape(n0)[1:])
    state[:43] = n0
    samples = [state]
    for _ in range(n_steps // stride):
        samples.append(block @ samples[-1])
    if n_steps % stride:
        last = _conserving(np.linalg.matrix_power(step, n_steps % stride))
        samples.append(last @ samples[-1])
    return np.array(samples)


class TestStackedPowers:
    """integrate_rk4 fills STACKED_POWERS samples per matrix product."""

    # (n_steps, max_samples) -> stride, output blocks, remainder steps
    @pytest.mark.parametrize("n_steps, max_samples, stride, n_blocks, remainder", [
        (20, 1201, 1, 20, 0),        # fewer blocks than one stack
        (64, 1201, 1, 64, 0),        # exactly two stacks
        (1003, 101, 11, 91, 2),      # 91 = 2 * 32 + 27, plus a remainder
        (1003, 2, 1003, 1, 0),       # max_samples=2: one block
        (5000, 41, 125, 40, 0),      # one stack and a partial one
    ])
    @pytest.mark.parametrize("k", [None, 5])
    def test_matches_sample_by_sample(self, n_steps, max_samples, stride, n_blocks,
                                      remainder, k):
        assert STACKED_POWERS == 32
        rm, _ = prune(assemble_rate_matrix(fig5_beams()), 1e-3)
        n0 = np.column_stack(block_starts() + [uniform_f4()]) if k else uniform_f4()
        traj = integrate_rk4(rm, n0, DT, n_steps * DT, max_samples)
        expected_steps = list(range(0, n_blocks * stride + 1, stride))
        if remainder:
            expected_steps.append(n_steps)
        np.testing.assert_array_equal(traj.times, DT * np.array(expected_steps, float))
        reference = sample_by_sample(rm, n0, n_steps, stride)
        assert reference.shape[0] == traj.times.size
        np.testing.assert_allclose(traj.populations, reference[:, :43], rtol=0, atol=1e-12)
        np.testing.assert_allclose(traj.scattered_photons, reference[:, 43],
                                   rtol=1e-12, atol=1e-15)

    def test_powers_conserve(self):
        rm, _ = prune(assemble_rate_matrix(fig5_beams()), 1e-3)
        power = np.linalg.matrix_power(_rk4_step_matrix(rm.matrix, DT), 997)
        photons = power[43].copy()
        # uncorrected, the column sums are off by about one rounding per step
        assert np.max(np.abs(power[:43, :43].sum(axis=0) - 1.0)) > 1e-14
        _conserving(power)
        assert np.max(np.abs(power[:43, :43].sum(axis=0) - 1.0)) <= 4.5e-16
        assert np.array_equal(power[43], photons)


def reference_rows(rm, n0, dt, t_end, max_samples):
    """Times and every grid row of a run by the integrator's defining calls:
    `np.linalg.matrix_power`, a `put` and `.sum(axis=0)` reset, and one
    `np.matmul` of the (k*44, 44) power stack per chunk; clipped at the end."""
    def reset(power):
        power.put(np.arange(43) * 45, 0.0)
        power.put(np.arange(43) * 45, 1.0 - power[:43, :43].sum(axis=0))
        return power
    n_steps = max(1, int(np.ceil(t_end / dt - 1e-9)))
    stride = -(-n_steps // (max_samples - 1))
    n_blocks, remainder = divmod(n_steps, stride)
    step = _rk4_step_matrix(rm.matrix, dt)
    powers = [reset(np.linalg.matrix_power(step, stride))]
    while len(powers) < min(STACKED_POWERS, n_blocks):
        powers.append(reset(np.matmul(powers[-1], powers[0])))
    stack = np.array(powers).reshape(-1, 44)
    data = np.zeros((n_blocks + 1 + (remainder > 0), 44) + n0.shape[1:])
    data[0, :43] = n0
    for i in range(0, n_blocks, len(powers)):
        k = min(len(powers), n_blocks - i)
        data[i + 1:i + 1 + k] = np.matmul(stack[:k * 44], data[i]).reshape(data[i + 1:i + 1 + k].shape)
    if remainder:
        data[-1] = np.matmul(reset(np.linalg.matrix_power(step, remainder)), data[-2])
    data[:, :43][data[:, :43] < 0] = 0.0
    times = dt * (stride * np.arange(n_blocks + 1))
    return (np.append(times, dt * n_steps) if remainder else times), data


class TestReferenceBits:
    """Full, `at` and `until` runs return the reference integrator's bits."""

    # the fit's own times: two series of 60 observation times, concatenated
    FIT_AT = np.concatenate([np.round(np.linspace(1e-4, 4.8e-3, 60), 7)] * 2)

    @staticmethod
    def assert_same_bits(rm, n0, dt, t_end, max_samples, at):
        times, data = reference_rows(rm, n0, dt, t_end, max_samples)
        hi = np.clip(np.searchsorted(times, at, side="right"), 1, len(times) - 1)
        until = integrate_rk4(rm, n0, dt, t_end, max_samples, until=0.95)
        for traj, rows in [(integrate_rk4(rm, n0, dt, t_end, max_samples), slice(None)),
                           (integrate_rk4(rm, n0, dt, t_end, max_samples, at=at),
                            np.unique(np.r_[0, hi - 1, hi])),
                           (until, slice(until.times.size))]:
            assert np.array_equal(traj.times, times[rows])
            assert np.array_equal(traj.populations, data[rows, :43])
            assert np.array_equal(traj.scattered_photons, data[rows, 43])

    @staticmethod
    def starts(columns):
        if columns == 1:
            return uniform_f4()
        return np.column_stack(block_starts() + [single_sublevel(Sublevel("g", 4, 0))])

    @pytest.mark.parametrize("alpha", [0.0, 0.013, 0.05, 0.2])
    @pytest.mark.parametrize("pruned", [False, True])
    @pytest.mark.parametrize("columns", [1, 5])
    def test_fit_window(self, alpha, pruned, columns):
        # 4.8 ms at LIBRARY_DT: 2000 strides of 7872 steps and a 7022-step remainder
        rm = assemble_rate_matrix(fig5_beams(alpha))
        if pruned:
            rm, _ = prune(rm)
        self.assert_same_bits(rm, self.starts(columns), LIBRARY_DT, 4.8e-3, 2001, self.FIT_AT)

    # (n_steps, max_samples) -> (stride, remainder): (1, 0), (2, 1), (3, 2),
    # (4, 3) and (11, 2), where matrix_power special-cases exponents <= 3
    @pytest.mark.parametrize("n_steps, max_samples",
                             [(40, 101), (41, 31), (98, 34), (131, 34), (1003, 101)])
    @pytest.mark.parametrize("columns", [1, 5])
    def test_small_powers(self, n_steps, max_samples, columns):
        rm, _ = prune(assemble_rate_matrix(fig5_beams()))
        at = n_steps * DT * np.array([0.0, 0.31, 0.5, 0.97, 1.0, 2.0])
        self.assert_same_bits(rm, self.starts(columns), DT, n_steps * DT, max_samples, at)


class TestLayoutReuse:
    """Runs with one (dt, t_end, max_samples, at) share one cached layout,
    and nothing a caller gets back is shared with it."""

    SECOND_AT = np.array([3.1e-3, 2e-5, 1.7e-3, 1.7e-3, 0.0, 2.2e-3])

    def test_interleaved_runs_keep_the_reference_bits(self):
        matrices = [prune(assemble_rate_matrix(fig5_beams(alpha)))[0] for alpha in (0.0, 0.05)]
        ats = [TestReferenceBits.FIT_AT, self.SECOND_AT]
        for _ in range(2):
            for rm in matrices:
                for at in ats:
                    for columns in (1, 5):
                        TestReferenceBits.assert_same_bits(
                            rm, TestReferenceBits.starts(columns), LIBRARY_DT, at.max(), 2001, at)

    @pytest.mark.parametrize("kwargs", [{}, {"until": 0.95}, {"at": SECOND_AT}])
    def test_returned_arrays_are_fresh(self, kwargs):
        rm = prune(assemble_rate_matrix(fig5_beams()))[0]
        first = integrate_rk4(rm, uniform_f4(), LIBRARY_DT, 4e-3, 2001, **kwargs)
        expected = integrate_rk4(rm, uniform_f4(), LIBRARY_DT, 4e-3, 2001, **kwargs)
        for array in (first.times, first.populations, first.scattered_photons):
            assert array.flags.writeable
            array[...] = -1.0
        again = integrate_rk4(rm, uniform_f4(), LIBRARY_DT, 4e-3, 2001, **kwargs)
        assert np.array_equal(again.times, expected.times)
        assert np.array_equal(again.populations, expected.populations)
        assert np.array_equal(again.scattered_photons, expected.scattered_photons)

    @pytest.mark.parametrize("at", [None, SECOND_AT.tobytes()])
    def test_cached_arrays_refuse_writes(self, at):
        layout = _layout(LIBRARY_DT, 4e-3, 2001, at)
        arrays = [layout.times] + [a for a in (layout.rows, layout.keep)
                                   if isinstance(a, np.ndarray)]
        assert len(arrays) == (1 if at is None else 3)
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_cache_stays_bounded(self):
        rm = assemble_rate_matrix([])
        maxsize = _layout.cache_info().maxsize
        for i in range(3 * maxsize):
            integrate_rk4(rm, uniform_f4(), DT, 1e-4, 101, at=[i * 1e-6])
            assert _layout.cache_info().currsize <= maxsize
        assert _layout.cache_info().currsize == maxsize

    def test_step_count_bound_raises_on_every_call(self):
        dt = 2.0**-30
        for _ in range(3):
            for at in (None, [1.0]):
                with pytest.raises(ValueError, match=r"fewer than 2\*\*53"):
                    integrate_rk4(assemble_rate_matrix([]), uniform_f4(), dt, 2**53 * dt, at=at)


class TestStepPowers:
    STEP = _rk4_step_matrix(prune(assemble_rate_matrix(fig5_beams()))[0].matrix, DT)

    def test_matrix_power_bits(self):
        for n in range(1, 70):
            for r in sorted({0, 1, 2, 3, n // 2, n - 1} - {n}):
                block, last = _step_powers(self.STEP, (n, r))
                assert np.array_equal(block, np.linalg.matrix_power(self.STEP, n))
                if r:
                    assert np.array_equal(last, np.linalg.matrix_power(self.STEP, r))
                else:
                    assert last is None

    @pytest.mark.parametrize("exponents", [(1, 0), (2, 1), (3, 1), (4, 1), (8, 3), (5, 4)])
    def test_step_left_alone(self, exponents):
        # matrix_power returns its argument itself for an exponent of 1
        step = self.STEP.copy()
        for power in _step_powers(step, exponents):
            if power is not None:
                _conserving(power)
                assert not np.shares_memory(power, step)
        assert np.array_equal(step, self.STEP)


class TestKeptStack:
    """A rate matrix keeps the power stack of its last run."""

    @staticmethod
    def builds(monkeypatch):
        # the calls of _step_powers, one for each stack built
        calls = []

        def spy(step, exponents):
            calls.append(exponents)
            return _step_powers(step, exponents)

        monkeypatch.setattr(kinetics, "_step_powers", spy)
        return calls

    @staticmethod
    def same_bits(a, b):
        return all(x.tobytes() == y.tobytes() for x, y in (
            (a.times, b.times), (a.populations, b.populations),
            (a.scattered_photons, b.scattered_photons)))

    @pytest.mark.parametrize("kwargs", [{}, {"until": 0.95}, {"at": [1e-3, 3.3e-3]}])
    def test_second_run_reuses_the_stack(self, monkeypatch, kwargs):
        # the second run on one matrix builds nothing and keeps the bits of
        # a run on a fresh matrix, whose stack is built afresh
        calls = self.builds(monkeypatch)
        rm = prune(assemble_rate_matrix(fig5_beams()))[0]
        starts = np.column_stack([uniform_f4(), single_sublevel(Sublevel("g", 4, 4))])
        first = integrate_rk4(rm, starts, LIBRARY_DT, 4e-3, 2001, **kwargs)
        second = integrate_rk4(rm, starts[:, ::-1], LIBRARY_DT, 4e-3, 2001, **kwargs)
        assert len(calls) == 1
        fresh = integrate_rk4(prune(assemble_rate_matrix(fig5_beams()))[0], starts[:, ::-1],
                              LIBRARY_DT, 4e-3, 2001, **kwargs)
        assert len(calls) == 2 and self.same_bits(second, fresh)
        assert self.same_bits(first, integrate_rk4(rm, starts, LIBRARY_DT, 4e-3, 2001, **kwargs))

    @pytest.mark.parametrize("dt, t_end", [(LIBRARY_DT / 2, 4e-3), (LIBRARY_DT, 4.1e-3)])
    def test_other_step_or_layout_builds_a_new_stack(self, monkeypatch, dt, t_end):
        # another dt, or a t_end that moves the stride or remainder, builds
        # again, and the matrix keeps only the last stack
        calls = self.builds(monkeypatch)
        rm = prune(assemble_rate_matrix(fig5_beams()))[0]
        integrate_rk4(rm, uniform_f4(), LIBRARY_DT, 4e-3, 2001)
        other = integrate_rk4(rm, uniform_f4(), dt, t_end, 2001)
        assert len(calls) == 2 and len(rm._kept) == 1
        fresh = integrate_rk4(prune(assemble_rate_matrix(fig5_beams()))[0], uniform_f4(),
                              dt, t_end, 2001)
        assert self.same_bits(other, fresh)
        integrate_rk4(rm, uniform_f4(), LIBRARY_DT, 4e-3, 2001)
        assert len(calls) == 4

    def test_kept_arrays_refuse_writes(self):
        rm = assemble_rate_matrix(fig5_beams())
        integrate_rk4(rm, uniform_f4(), DT, 1.01e-3, 201)  # a run with a remainder step
        (powers, last), = rm._kept.values()
        assert powers.shape == (STACKED_POWERS, 44, 44) and last.shape == (44, 44)
        for array in (powers, last):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1.0

    def test_matrices_refuse_writes(self):
        full = assemble_rate_matrix(fig5_beams())
        for table in (full, prune(full)[0], with_depolarization(full, 0.2),
                      _from_terms(full.terms)):
            with pytest.raises(ValueError, match="read-only"):
                table.matrix[0, 0] = 1.0

    def test_stack_is_not_compared_or_printed(self):
        rm = assemble_rate_matrix(fig5_beams())
        text = repr(rm)
        integrate_rk4(rm, uniform_f4(), DT, 1e-3)
        assert rm._kept and repr(rm) == text and "_kept" not in text
        assert rm == RateMatrix(rm.matrix, rm.terms)

    def test_stack_goes_with_its_matrix(self):
        # nothing but the matrix holds its stack
        rm = assemble_rate_matrix(fig5_beams())
        integrate_rk4(rm, uniform_f4(), DT, 1e-3)
        kept = weakref.ref(next(iter(rm._kept.values()))[0])
        del rm
        gc.collect()
        assert kept() is None


def test_uniform_f4_is_fresh():
    expected = np.zeros(43)
    for m in range(-4, 5):
        expected[state_index(Sublevel("g", 4, m))] = 1.0 / 9.0
    first = uniform_f4()
    first[:] = 7.0
    second = uniform_f4()
    assert second.flags.writeable and not np.shares_memory(first, second)
    assert np.array_equal(second, expected)


FIG5_ALPHAS = (0.013, 0.11402)


class TestLongRuns:
    """Population is conserved at any run length, and long runs reach the
    kernel of R."""

    @pytest.mark.parametrize("alpha", FIG5_ALPHAS)
    def test_stationary_state_is_kernel(self, alpha):
        rm, _ = prune(assemble_rate_matrix(fig5_beams(alpha)), 1e-3)
        n = stationary_state(rm)
        assert n.shape == (43,)
        assert n.sum() == pytest.approx(1.0, abs=1e-15)
        assert n.min() >= -1e-15
        assert np.max(np.abs(rm.matrix @ n)) <= 1e-12 * rm.max_rate

    @pytest.mark.parametrize("t_end", [0.05, 5.0])
    @pytest.mark.parametrize("alpha", FIG5_ALPHAS)
    def test_conserved_and_converged(self, alpha, t_end):
        # without the diagonal reset the drift grows with the step count:
        # 1.5e-8 at 50 ms and 1.5e-6 at 5 s for alpha = 0.013
        rm, _ = prune(assemble_rate_matrix(fig5_beams(alpha)), 1e-3)
        traj = integrate_rk4(rm, uniform_f4(), LIBRARY_DT, t_end)
        assert np.max(np.abs(traj.populations.sum(axis=1) - 1.0)) < 1e-9
        np.testing.assert_allclose(traj.populations[-1], stationary_state(rm),
                                   rtol=0, atol=1e-9)


class TestPumpMetrics:
    def test_dark_state_accumulates_monotonically(self):
        rm, _ = prune(assemble_rate_matrix(fig5_beams(alpha=0.0)), 1e-3)
        traj = integrate_rk4(rm, uniform_f4(), DT, 0.02)
        metrics = pump_metrics(traj)
        assert np.all(np.diff(metrics.m0_fraction) >= -1e-12)
        assert metrics.m0_fraction[-1] > 0.999

    def test_no_light_no_milestone(self):
        rm = assemble_rate_matrix(
            [Beam(4, 4, 0.0, -0.5), Beam(3, 4, 0.0, 0.0)]
        )
        traj = integrate_rk4(rm, uniform_f4(), DT, 0.001)
        metrics = pump_metrics(traj)
        assert metrics.tau_50 is None
        assert metrics.photons_to_tau50 is None
        assert np.allclose(metrics.m0_fraction, 1.0 / 9.0)

    def test_doubling_intensity_speeds_pumping(self):
        base = fig5_beams(alpha=0.0)
        doubled = [
            Beam(4, 4, 0.038, -0.5, 0.0),
            Beam(3, 4, 0.046, 0.0, 0.0),
        ]
        t1 = pump_metrics(
            integrate_rk4(assemble_rate_matrix(base), uniform_f4(), DT, 0.005)
        ).tau_50
        t2 = pump_metrics(
            integrate_rk4(assemble_rate_matrix(doubled), uniform_f4(), DT, 0.005)
        ).tau_50
        assert t2 < t1

    def test_photons_at_halfway(self):
        rm, _ = prune(assemble_rate_matrix(fig5_beams()), 1e-3)
        traj = integrate_rk4(rm, uniform_f4(), DT, 0.005)
        metrics = pump_metrics(traj)
        assert metrics.tau_50 is not None
        assert 0.0 < metrics.photons_to_tau50 < traj.scattered_photons[-1]
        # interior crossing: between the samples that bracket 0.5, where the
        # linear interpolation of the fraction reads 0.5
        k = int(np.searchsorted(traj.times, metrics.tau_50))
        assert traj.times[k - 1] < metrics.tau_50 <= traj.times[k]
        f = np.interp(metrics.tau_50, traj.times, metrics.m0_fraction)
        assert f == pytest.approx(0.5, abs=1e-12)

    def test_already_polarized_start(self):
        # first-sample crossing: the start already holds every atom in m=0
        rm, _ = prune(assemble_rate_matrix(fig5_beams()), 1e-3)
        traj = integrate_rk4(rm, single_sublevel(Sublevel("g", 4, 0)), DT, 0.001)
        metrics = pump_metrics(traj)
        assert metrics.tau_50 == 0.0
        assert metrics.photons_to_tau50 == 0.0

    def test_first_crossing_cases(self):
        traj = Trajectory(np.array([0.0, 1.0, 2.0, 3.0]), np.zeros((4, 43)),
                          np.array([0.0, 10.0, 20.0, 30.0]))
        fraction = np.array([0.1, 0.3, 0.7, 0.9])
        assert first_crossing(traj, fraction, 0.05) == (0.0, 0.0)
        t, photons = first_crossing(traj, fraction, 0.5)
        assert t == pytest.approx(1.5, rel=1e-15)
        assert photons == pytest.approx(15.0, rel=1e-15)
        assert first_crossing(traj, fraction, 0.9) == (3.0, 30.0)
        assert first_crossing(traj, fraction, 0.95) is None

    def test_block_trajectory_rejected(self):
        # a (43, k) block's trajectory used to fail with an unrelated TypeError
        rm = assemble_rate_matrix(fig5_beams())
        traj = integrate_rk4(rm, np.column_stack([uniform_f4()] * 2), DT, 0.005)
        with pytest.raises(ValueError, match="one-column trajectory"):
            pump_metrics(traj)
        fraction = traj.sublevel_fraction(Sublevel("g", 4, 0))
        with pytest.raises(ValueError, match="one-column trajectory"):
            first_crossing(traj, fraction, 0.5)
        column = Trajectory(traj.times, traj.populations[:, :, 1],
                            traj.scattered_photons[:, 1])
        with pytest.raises(ValueError, match="one-column trajectory"):
            first_crossing(column, fraction, 0.5)
        assert pump_metrics(column).tau_50 is not None


def test_with_depolarization_rebuilds_weights():
    # a beam copied with a new contamination is the beam built with it
    rebuilt = [replace(b, depolarization=0.013) for b in fig5_beams(alpha=0.0)]
    assert rebuilt == fig5_beams(alpha=0.013)
    assert np.array_equal(assemble_rate_matrix(rebuilt).matrix,
                          assemble_rate_matrix(fig5_beams(alpha=0.013)).matrix)
    with pytest.raises(ValueError, match="depolarization"):
        replace(rebuilt[0], depolarization=-0.1)
    # re-weighting a term table, full or pruned, is assembling those beams
    for template_alpha in (0.0, 0.013):
        full = assemble_rate_matrix(fig5_beams(template_alpha))
        pruned, _ = prune(full)
        for alpha in (0.0, 1e-300, 0.013, 0.11402, 1e200):
            fresh = assemble_rate_matrix(fig5_beams(alpha))
            assert np.array_equal(with_depolarization(full, alpha).matrix, fresh.matrix)
            assert np.array_equal(with_depolarization(pruned, alpha).matrix,
                                  prune(fresh)[0].matrix)
    with pytest.raises(ValueError, match="depolarization"):
        with_depolarization(full, float("nan"))


def test_with_depolarization_leaves_input_unchanged():
    # each fit candidate re-weights its own copy of the one shared table
    full = assemble_rate_matrix(fig5_beams(0.0))
    for table in (full, prune(full)[0]):
        terms, matrix = table.terms.copy(), table.matrix.copy()
        reweighted = with_depolarization(table, 0.013)
        assert not np.shares_memory(reweighted.terms, table.terms)
        assert not np.array_equal(reweighted.terms["rate"], terms["rate"])
        assert np.array_equal(table.terms, terms)
        assert np.array_equal(table.matrix, matrix)


def test_cached_spontaneous_part_keeps_every_matrix():
    # reference: the spontaneous part built afresh for each matrix
    def rebuilt(terms):
        mat = np.zeros((43, 43))
        block = np.ix_(GROUND_INDICES, EXCITED_INDICES)
        mat[block] = cst.GAMMA * branching_table().T[block]
        np.add.at(mat, (terms["excited"], terms["ground"]), terms["rate"])
        np.add.at(mat, (terms["ground"], terms["excited"]), terms["rate"])
        np.fill_diagonal(mat, -mat.sum(axis=0))
        return mat

    full = assemble_rate_matrix(fig5_beams(0.0))
    tables = [assemble_rate_matrix([]), full, prune(full)[0],
              with_depolarization(full, 0.013), with_depolarization(prune(full)[0], 0.2)]
    for table in tables:
        assert np.array_equal(table.matrix, rebuilt(table.terms))
        assert not np.shares_memory(table.matrix, _spontaneous_part())
    assert not _spontaneous_part().flags.writeable


def test_prune_of_empty_table_is_spontaneous_only():
    spontaneous = assemble_rate_matrix([])
    pruned, active = prune(spontaneous)
    assert pruned.terms.size == 0 and active == 0
    assert np.array_equal(pruned.matrix, spontaneous.matrix)


def test_prune_counts_live_terms_only():
    # at alpha = 0 the table keeps the zero-rate sigma terms, which couple
    # nothing; the same table counts 25 once they carry weight
    table = assemble_rate_matrix(fig5_beams(0.0))
    assert prune(table)[1] == 24
    assert prune(with_depolarization(table, 0.013))[1] == 25


@pytest.mark.parametrize("threshold", [1e-3, 0.5])
def test_zero_intensity_beam_adds_nothing(threshold):
    # a dead beam has no terms, so its overlap cannot raise prune's cutoff;
    # the broad one (overlap 0.5, against fig5's largest 0.16) would drop
    # both driven lines at threshold 0.5
    for alpha in (0.0, 0.013):
        beams = fig5_beams(alpha)
        pruned, active = prune(assemble_rate_matrix(beams), threshold)
        for dead in (Beam(4, 5, 0.0), Beam(4, 5, 0.0, linewidth=cst.GAMMA)):
            with_dead, dead_active = prune(assemble_rate_matrix(beams + [dead]), threshold)
            assert np.array_equal(with_dead.matrix, pruned.matrix)
            assert dead_active == active


def reference_terms(beams):
    """The stimulated terms by the per-channel loop that the cached channel
    tables replaced: one scalar product per channel, in order of beam, F',
    m and q."""
    table = branching_table()
    terms = []
    for bm in beams:
        weights = polarization_weights(bm.depolarization)
        for fe in cst.EXCITED_F:
            if abs(fe - bm.ground_f) > 1:
                continue
            overlap = transition_overlap(fe, bm)
            base = 0.5 * cst.GAMMA * (cst.GAMMA / bm.linewidth) * bm.intensity_ratio * overlap
            for m in range(-bm.ground_f, bm.ground_f + 1):
                gi = state_index(Sublevel("g", bm.ground_f, m))
                for q in (-1, 0, 1):
                    if abs(m + q) > fe:
                        continue
                    ei = state_index(Sublevel("e", fe, m + q))
                    unit = base * table[ei, gi]
                    if unit > 0.0:
                        terms.append((gi, ei, q, unit, overlap, unit * weights[q + 1]))
    return np.array(terms, dtype=TERM)


class TestAssemblyBits:
    """The assembly's terms and matrix carry the reference loop's bits."""

    PAIRS = [(3, 3), (3, 4), (4, 3), (4, 4), (4, 5)]

    @staticmethod
    def random_beams(seed, alpha, n=4, pairs=PAIRS):
        rng = np.random.default_rng(seed)
        return [Beam(*pairs[rng.integers(len(pairs))],
                     intensity_ratio=10.0 ** rng.uniform(-4, 1), detuning=rng.uniform(-30, 30),
                     depolarization=alpha, linewidth=cst.GAMMA * 10.0 ** rng.uniform(-3, 1))
                for _ in range(n)]

    @staticmethod
    def assert_same_bits(beams):
        terms = reference_terms(beams)
        rm = assemble_rate_matrix(beams)
        assert rm.terms.dtype == TERM
        assert rm.terms.tobytes() == terms.tobytes()
        assert rm.matrix.tobytes() == _from_terms(terms).matrix.tobytes()
        return rm

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("alpha", [0.0, 0.013, 0.2, 7.5, 1e200])
    def test_random_beams(self, seed, alpha):
        self.assert_same_bits(self.random_beams(seed, alpha))

    @pytest.mark.parametrize("pair", PAIRS)
    def test_each_line(self, pair):
        for alpha in (0.0, 0.05):
            rm = self.assert_same_bits(self.random_beams(11, alpha, n=2, pairs=[pair]))
            assert set(rm.terms["ground"]) <= set(GROUND_INDICES)

    def test_alpha_zero_keeps_the_zero_weight_sigma_terms(self):
        rm = self.assert_same_bits(fig5_beams(0.0))
        sigma = rm.terms[rm.terms["q"] != 0]
        assert sigma.size > 0 and np.all(sigma["rate"] == 0.0) and np.all(sigma["unit"] > 0.0)

    def test_zero_intensity_and_no_beams_make_no_terms(self):
        dead = [Beam(4, 4, 0.0, depolarization=0.1), Beam(3, 4, 0.0)]
        assert self.assert_same_bits(dead).terms.size == 0
        assert self.assert_same_bits([]).terms.size == 0
        # a dead beam between live ones leaves their terms as they were
        live = self.random_beams(3, 0.013, n=2)
        assert np.array_equal(self.assert_same_bits(live[:1] + dead + live[1:]).terms,
                              assemble_rate_matrix(live).terms)

    def test_channel_tables_refuse_writes(self):
        assemble_rate_matrix(fig5_beams())
        channels = _channels(4, 4)
        with pytest.raises(ValueError, match="read-only"):
            channels["branching"][0] = 1.0
        assert _channels(4, 4) is channels

    def test_import_builds_no_channel_table(self):
        package = os.path.dirname(os.path.dirname(os.path.abspath(cst.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package, env.get("PYTHONPATH")]))
        code = ("import pumpsim.kinetics as k\n"
                "print(k._channels.cache_info().currsize)\n"
                "k.assemble_rate_matrix([k.Beam(4, 4, 0.019)])\n"
                "print(k._channels.cache_info().currsize)\n")
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        # F=4 -> F'=3, 4 and 5: one table per line, on first use
        assert result.stdout == "0\n3\n"
