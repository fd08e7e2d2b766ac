"""State enumeration, branching ratios, and Zeeman line positions."""

import glob
import os

import numpy as np
import pytest

from pumpsim import constants as cst
from pumpsim.config import load_config
from pumpsim.raman import RamanPulse, lineshape_fwhm
from pumpsim.structure import (
    EXCITED_INDICES,
    GROUND_INDICES,
    N_STATES,
    STATES,
    Sublevel,
    branching_ratio,
    branching_table,
    clock_line_shift,
    parse_label,
    raman_line_offset,
    state_index,
    write_branching_csv,
)


class TestEnumeration:
    def test_counts(self):
        states = STATES
        assert len(states) == 43
        assert sum(1 for s in states if s.is_ground) == 16      # 7 + 9
        assert sum(1 for s in states if not s.is_ground) == 27  # 7 + 9 + 11

    def test_index_round_trip(self):
        for i, level in enumerate(STATES):
            assert state_index(level) == i

    def test_stable_ordering(self):
        a = [s.label() for s in STATES]
        b = [s.label() for s in STATES]
        assert a == b

    def test_label_round_trip(self):
        for level in STATES:
            assert parse_label(level.label()) == level

    def test_invalid_levels_rejected(self):
        with pytest.raises(ValueError):
            Sublevel("g", 5, 0)      # no ground F=5
        with pytest.raises(ValueError):
            Sublevel("e", 2, 0)      # excited manifold starts at F'=3
        with pytest.raises(ValueError):
            Sublevel("g", 4, 5)      # |m| > F
        with pytest.raises(ValueError):
            Sublevel("x", 4, 0)


class TestBranching:
    def test_rows_normalized(self):
        table = branching_table()
        sums = table[EXCITED_INDICES].sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-12

    def test_entries_in_unit_interval(self):
        table = branching_table()
        assert table.min() >= 0.0
        assert table.max() <= 1.0

    def test_selection_rules(self):
        states = STATES
        table = branching_table()
        for ei in EXCITED_INDICES:
            for gi in GROUND_INDICES:
                e, g = states[ei], states[gi]
                if abs(e.f - g.f) > 1 or abs(e.m - g.m) > 1:
                    assert table[ei, gi] == 0.0

    def test_dark_state_coupling_vanishes(self):
        assert branching_ratio(Sublevel("e", 4, 0), Sublevel("g", 4, 0)) == 0.0

    def test_stretched_state_single_channel(self):
        assert branching_ratio(Sublevel("e", 5, 5), Sublevel("g", 4, 4)) == pytest.approx(
            1.0, abs=1e-12
        )
        assert branching_ratio(Sublevel("e", 5, -5), Sublevel("g", 4, -4)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_reflection_symmetry(self):
        states = STATES
        table = branching_table()
        for ei in EXCITED_INDICES:
            for gi in GROUND_INDICES:
                e, g = states[ei], states[gi]
                mirrored = table[
                    state_index(Sublevel("e", e.f, -e.m)),
                    state_index(Sublevel("g", g.f, -g.m)),
                ]
                assert table[ei, gi] == pytest.approx(mirrored, abs=1e-12)

    def test_known_hyperfine_shares(self):
        # decay shares of the excited levels into the two ground levels
        table = branching_table()
        g3 = [state_index(Sublevel("g", 3, m)) for m in range(-3, 4)]
        g4 = [state_index(Sublevel("g", 4, m)) for m in range(-4, 5)]
        e40 = state_index(Sublevel("e", 4, 0))
        e30 = state_index(Sublevel("e", 3, 0))
        e50 = state_index(Sublevel("e", 5, 0))
        assert table[e40, g4].sum() == pytest.approx(7 / 12, abs=1e-12)
        assert table[e40, g3].sum() == pytest.approx(5 / 12, abs=1e-12)
        assert table[e30, g3].sum() == pytest.approx(3 / 4, abs=1e-12)
        assert table[e50, g4].sum() == pytest.approx(1.0, abs=1e-12)

    def test_direction_validated(self):
        with pytest.raises(ValueError):
            branching_ratio(Sublevel("g", 4, 0), Sublevel("g", 3, 0))
        with pytest.raises(ValueError):
            branching_ratio(Sublevel("e", 4, 0), Sublevel("e", 3, 0))

    def test_csv_dump(self, tmp_path):
        path = tmp_path / "branching.csv"
        write_branching_csv(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + 27
        assert lines[0].startswith("excited,g3_m-3,")
        assert len(lines[0].split(",")) == 17


class TestRamanLineOffset:
    def test_m0_insensitive(self):
        for bias in (0.0, 0.05, 0.3, 2.0):
            assert raman_line_offset(0, bias) == 0.0

    def test_antisymmetric_in_m(self):
        bias = 0.137
        for m in range(1, 4):
            assert raman_line_offset(-m, bias) == pytest.approx(-raman_line_offset(m, bias))

    def test_derived_value_at_100_milligauss(self):
        # independent arithmetic: 0.5 * (mu_B/h in Hz/G) * 0.1 G
        mu_b_hz_per_gauss = 9.2740100783e-24 / 6.62607015e-34 * 1e-4
        expected = 0.5 * mu_b_hz_per_gauss * 0.1
        value = raman_line_offset(1, 0.100)
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(69.98e3, rel=1e-3)

    def test_linear_in_field_and_m(self):
        bias1, bias2 = 0.1, 0.2
        assert raman_line_offset(2, bias1) == pytest.approx(2 * raman_line_offset(1, bias1))
        assert raman_line_offset(1, bias2) == pytest.approx(2 * raman_line_offset(1, bias1))

    def test_rejects_out_of_range_m(self):
        with pytest.raises(ValueError):
            raman_line_offset(4, 0.1)
        with pytest.raises(ValueError):
            raman_line_offset(-4, 0.1)


def breit_rabi_offset(m, bias_gauss):
    """Exact offset from the hyperfine frequency, in Hz, of the
    g,F=3,m <-> g,F=4,m line: nu_hfs (sqrt(1 + m x/2 + x^2) - 1) for
    J = 1/2, I = 7/2, with g_J = 2 and g_I neglected as in the model."""
    nu_hfs = 9_192_631_770.0                                   # Hz, the SI second
    x = 2.0 * 9.2740100783e-24 / 6.62607015e-34 * bias_gauss * 1e-4 / nu_hfs
    e = m * x / 2.0 + x * x
    return nu_hfs * e / (np.sqrt(1.0 + e) + 1.0)                # sqrt(1 + e) - 1


class TestBreitRabiOracle:
    @pytest.mark.parametrize("m", range(-3, 4))
    def test_first_order_is_the_zero_field_slope(self, m):
        bias = 1e-9
        unit = raman_line_offset(1, 1.0)
        assert breit_rabi_offset(m, bias) / bias == pytest.approx(
            raman_line_offset(m, 1.0), rel=1e-9, abs=1e-9 * unit)

    @pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(
        os.path.dirname(__file__), "..", "scenarios", "*.ini"))), ids=os.path.basename)
    def test_neglected_shift_within_the_fourier_width(self, path):
        # the m = 0 line is the worst: 4.26 Hz of 114.1 Hz at fig3's 0.1 G, 7 ms
        cfg = load_config(path)
        fwhm = lineshape_fwhm(RamanPulse(cfg.tau_s))
        for m in range(-3, 4):
            shift = breit_rabi_offset(m, cfg.bias_gauss) - raman_line_offset(m, cfg.bias_gauss)
            assert abs(shift) < 0.05 * fwhm


def test_clock_line_shift_is_the_breit_rabi_m0_offset():
    # 426 Hz/G^2 with g_J = 2; x^2 corrections are below 1e-7 at 1 G
    for bias in (-1.0, 0.1, 0.2, 0.5, 1.0):
        assert clock_line_shift(bias) == pytest.approx(breit_rabi_offset(0, bias), rel=1e-7)
    assert clock_line_shift(1.0) == pytest.approx(426.2, abs=0.1)
    assert clock_line_shift(0.0) == 0.0


def test_physical_scales():
    # recoil velocity and Doppler factor against independent arithmetic
    assert cst.RECOIL_VELOCITY == pytest.approx(3.524e-3, rel=1e-3)
    assert cst.DOPPLER_HZ_PER_RECOIL == pytest.approx(8272.0, rel=1e-3)
    assert cst.SATURATION_INTENSITY == pytest.approx(11.0, rel=5e-3)
    assert cst.excited_level_offset(3) == 0.0
    assert cst.excited_level_offset(4) == pytest.approx(201.2e6)
    assert cst.excited_level_offset(5) == pytest.approx(452.2e6)
    assert N_STATES == 43
