"""Fluorescence-cycle counting and the recoil random walk."""

import numpy as np
import pytest

from pumpsim.heating import (
    CycleReport,
    RecoilGeometry,
    default_geometry,
    expected_cycles,
    heating_summary,
    recoil_walk,
    write_heating_summary,
)
from pumpsim.kinetics import (
    LIBRARY_DT,
    assemble_rate_matrix,
    beam,
    integrate_rk4,
    prune,
    single_sublevel,
)
from pumpsim.structure import STATES, Sublevel, branching_table, state_index


def ideal_pump_beams():
    # ideal pi polarization: the heating estimate concerns the pumping
    # transient, not the residual contamination
    return [beam(4, 4, 0.019, -0.5, 0.0), beam(3, 4, 0.023, 0.0, 0.0)]


class TestGeometry:
    def test_default_axes_orthogonal(self):
        geo = default_geometry()
        assert abs(np.dot(geo.pb_axis, geo.detection_axis)) < 1e-12
        assert geo.backreflected

    def test_unit_norm_enforced(self):
        with pytest.raises(ValueError):
            RecoilGeometry((0.0, 1.0, 1.0), (1.0, 0.0, 0.0))


class TestRecoilWalk:
    def test_zero_cycles_zero_spread(self):
        result = recoil_walk(0, default_geometry(), samples=1000, seed=3)
        assert result.delta_vrms == 0.0

    def test_emission_only_isotropic_walk(self):
        # closed form: rms along any axis = sqrt(N/3) recoil velocities
        result = recoil_walk(
            12, default_geometry(), samples=100_000, seed=5, include_absorption=False
        )
        assert result.delta_vrms == pytest.approx(np.sqrt(12 / 3), rel=0.02)

    def test_absorption_invisible_on_orthogonal_axis(self):
        # back-reflected pump orthogonal to the detection axis adds nothing
        result = recoil_walk(12, default_geometry(), samples=100_000, seed=5)
        assert result.delta_vrms == pytest.approx(np.sqrt(12 / 3), rel=0.02)

    def test_absorption_visible_along_pump_axis(self):
        s = 1.0 / np.sqrt(2.0)
        aligned = RecoilGeometry((0.0, s, s), (0.0, s, s), True)
        result = recoil_walk(12, aligned, samples=100_000, seed=5)
        # absorption adds a full recoil variance per cycle on this axis
        assert result.delta_vrms == pytest.approx(np.sqrt(12 * (1 + 1 / 3)), rel=0.02)

    def test_seed_determinism(self):
        a = recoil_walk(9, default_geometry(), samples=20_000, seed=42)
        b = recoil_walk(9, default_geometry(), samples=20_000, seed=42)
        assert a.delta_vrms == b.delta_vrms
        assert np.array_equal(a.projected, b.projected)
        c = recoil_walk(9, default_geometry(), samples=20_000, seed=43)
        assert c.delta_vrms != a.delta_vrms

    def test_sqrt_n_scaling(self):
        rms = [
            recoil_walk(n, default_geometry(), samples=100_000, seed=11).delta_vrms
            for n in (4, 16, 64, 256)
        ]
        slope = np.polyfit(np.log([4, 16, 64, 256]), np.log(rms), 1)[0]
        assert slope == pytest.approx(0.5, abs=0.03)

    def test_doubling_cycles_scales_sqrt2(self):
        r1 = recoil_walk(8, default_geometry(), samples=100_000, seed=17)
        r2 = recoil_walk(16, default_geometry(), samples=100_000, seed=18)
        assert r2.delta_vrms / r1.delta_vrms == pytest.approx(np.sqrt(2.0), rel=0.03)

    def test_isotropy_without_absorption(self):
        axes = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
        values = []
        for axis in axes:
            geo = RecoilGeometry((0.0, 1.0, 0.0), axis, True)
            r = recoil_walk(
                10, geo, samples=100_000, seed=23, include_absorption=False
            )
            values.append((r.delta_vrms, r.standard_error))
        spread = max(v for v, _ in values) - min(v for v, _ in values)
        assert spread < 3.0 * max(se for _, se in values) * 2

    def test_standard_error_scales_with_samples(self):
        small = recoil_walk(10, default_geometry(), samples=25_000, seed=29)
        large = recoil_walk(10, default_geometry(), samples=100_000, seed=29)
        assert large.standard_error == pytest.approx(
            small.standard_error / 2.0, rel=0.2
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            recoil_walk(5, default_geometry(), samples=0)
        with pytest.raises(ValueError):
            recoil_walk(5, default_geometry(), samples=1)
        with pytest.raises(ValueError):
            recoil_walk(-1, default_geometry())


@pytest.fixture(scope="module")
def report() -> CycleReport:
    return expected_cycles(ideal_pump_beams(), prune_threshold=1e-3)


class TestExpectedCycles:

    def test_dark_start_needs_no_photons(self, report):
        assert report.per_sublevel[0] == 0.0

    def test_edge_states_cost_more(self, report):
        assert report.per_sublevel[4] > report.per_sublevel[1]
        assert report.per_sublevel[-4] > report.per_sublevel[-1]

    def test_mirror_symmetry(self, report):
        for m in (1, 2, 3, 4):
            assert report.per_sublevel[m] == pytest.approx(
                report.per_sublevel[-m], rel=1e-9
            )

    def test_threshold_reached(self, report):
        assert all(report.reached.values())
        assert report.uniform_reached

    def test_interior_crossing_interpolated(self, report):
        # the count falls between the photons of the two samples that
        # bracket the threshold crossing
        rm, _ = prune(assemble_rate_matrix(ideal_pump_beams()), 1e-3)
        traj = integrate_rk4(rm, single_sublevel(Sublevel("g", 4, 2)), LIBRARY_DT,
                             report.t_end, max_samples=4001)
        k = int(np.argmax(traj.sublevel_fraction(Sublevel("g", 4, 0)) >= report.threshold))
        assert k > 0
        photons = traj.scattered_photons
        assert photons[k - 1] < report.per_sublevel[2] <= photons[k]

    def test_against_first_passage_oracle(self, report):
        # independent oracle: expected jumps of the embedded Markov chain.
        # Every ground sublevel is excited to e(4',m) by its pi beam; the
        # branching row then redistributes it. One photon per jump, absorbing
        # at g(4,0). The kinetics photon count must agree.
        table = branching_table()
        ground = [lv for lv in STATES if lv.is_ground and not (lv.f == 4 and lv.m == 0)]
        index = {lv: i for i, lv in enumerate(ground)}
        P = np.zeros((len(ground), len(ground)))
        for lv, i in index.items():
            row = table[state_index(Sublevel("e", 4, lv.m))]
            for target, j in index.items():
                P[i, j] = row[state_index(target)]
        jumps = np.linalg.solve(np.eye(len(ground)) - P, np.ones(len(ground)))
        for m in range(-4, 5):
            if m == 0:
                continue
            oracle = jumps[index[Sublevel("g", 4, m)]]
            # the 95% threshold stops just short of the full expectation,
            # so the count approaches the oracle from below
            assert 0.9 * oracle < report.per_sublevel[m] < oracle * (1 + 1e-6)
        uniform_oracle = (
            sum(jumps[index[Sublevel("g", 4, m)]] for m in range(-4, 5) if m != 0) / 9.0
        )
        assert 0.9 * uniform_oracle < report.uniform < uniform_oracle * (1 + 1e-6)

    def test_unreached_threshold_reported(self):
        report = expected_cycles(ideal_pump_beams(), t_end=2e-5, prune_threshold=1e-3)
        assert not report.uniform_reached
        assert report.uniform > 0.0


class TestHeatingSummary:
    def test_composition_and_quadrature(self):
        summary = heating_summary(
            ideal_pump_beams(), samples=50_000, seed=101, initial_vrms=4.0
        )
        delta = summary.result.delta_vrms
        assert summary.final_vrms_quadrature == pytest.approx(
            np.sqrt(16.0 + delta**2), rel=1e-12
        )
        assert summary.final_vrms_additive == pytest.approx(4.0 + delta, rel=1e-12)
        # rms follows the mean cycle count through the isotropic-walk formula
        assert delta == pytest.approx(
            np.sqrt(summary.result.mean_cycles / 3.0), rel=0.02
        )

    def test_seeded_reproducibility(self):
        a = heating_summary(ideal_pump_beams(), samples=20_000, seed=7)
        b = heating_summary(ideal_pump_beams(), samples=20_000, seed=7)
        assert a.result.delta_vrms == b.result.delta_vrms

    @pytest.mark.parametrize("samples", [0, 1])
    def test_too_few_samples_rejected(self, samples):
        # one sample has no standard error and none has no rms: both used to
        # come back as NaN
        with pytest.raises(ValueError, match="at least two samples"):
            heating_summary(ideal_pump_beams(), samples=samples)

    def test_export(self, tmp_path):
        summary = heating_summary(ideal_pump_beams(), samples=5_000, seed=7)
        path = tmp_path / "heating.txt"
        write_heating_summary(summary, path)
        text = path.read_text()
        assert "# delta_vrms_vr=" in text
        assert "v_over_vr,count" in text
        hist_rows = [
            ln for ln in text.splitlines() if ln and not ln.startswith("#")
        ][1:]
        counts = sum(int(r.split(",")[1]) for r in hist_rows)
        assert counts == 5_000
