"""Scenario parsing and the command-line surface."""

import argparse
import json
import math
import os
import re
import stat
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_h

from pumpsim import _g17, cli
from pumpsim.cli import main
from pumpsim.config import ConfigError, load_config
from pumpsim.constants import MAX_DETUNING, OPTICAL_FREQUENCY, SPEED_OF_LIGHT, WAVELENGTH
from pumpsim.kinetics import (
    Beam,
    assemble_rate_matrix,
    polarization_weights,
    prune,
    stationary_state,
)
from pumpsim.output import atomic_write, blocks, header, rows
from pumpsim.structure import GROUND_INDICES, Sublevel, state_index, write_branching_csv

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIOS = os.path.join(REPO, "scenarios")


def run_python(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
    )


def run_cli(*args, env_extra=None):
    return run_python("-m", "pumpsim", *args, env_extra=env_extra)


def write_config(tmp_path, body):
    path = tmp_path / "scenario.ini"
    path.write_text(body)
    return str(path)


GOOD = """
[beams.pb]
target = 4->4
intensity_ratio = 0.019
detuning_gamma = -0.5
alpha = 0.013

[beams.repumper]
target = 3->4
intensity_ratio = 0.023

[integration]
dt_gamma = 0.01
t_end_s = 0.001

[output]
directory = {out}
"""


# every bounded scenario input, one value just past each of its bounds: (section,
# key, value, the key or Beam field its message names, the value as printed)
PAST_BOUNDS = [
    ("constants", "laser_linewidth_hz", "0", "laser_linewidth_hz", "got 0.0"),
    ("constants", "laser_linewidth_hz", repr(math.nextafter(OPTICAL_FREQUENCY, math.inf)),
     "laser_linewidth_hz", f"got {math.nextafter(OPTICAL_FREQUENCY, math.inf)!r}"),
    ("pulse", "tau_s", "0", "tau_s", "got 0.0"),
    # the largest duration whose Rabi frequency pi / tau overflows is about 1.75e-308
    ("pulse", "tau_s", "1.7e-308", "tau_s", "got 1.7e-308"),
    ("field", "rms_fluct_gauss", "-5e-324", "rms_fluct_gauss", "got -5e-324"),
    ("velocity", "sigma_vr", "-5e-324", "sigma_vr", "got -5e-324"),
    ("integration", "dt_gamma", "0", "dt_gamma", "got 0.0"),
    ("integration", "dt_gamma", repr(math.nextafter(0.1, 1.0)), "dt_gamma",
     f"got {math.nextafter(0.1, 1.0)!r}"),
    ("integration", "t_end_s", "0", "t_end_s", "got 0.0"),
    ("mc", "samples", "1", "samples", "got 1"),
    ("mc", "samples", "10000001", "samples", "got 10000001"),
    ("mc", "seed", "-1", "seed", "got -1"),
    ("beams.pb", "target", "2->3", "ground_f", "F=2"),
    ("beams.pb", "target", "5->5", "ground_f", "F=5"),
    ("beams.pb", "target", "4->2", "excited_f", "F'=2"),
    ("beams.pb", "target", "4->6", "excited_f", "F'=6"),
    ("beams.pb", "target", "3->5", "excited_f", "3->5'"),
    ("beams.pb", "intensity_ratio", "-5e-324", "intensity_ratio", "got -5e-324"),
    ("beams.pb", "detuning_gamma", repr(-math.nextafter(MAX_DETUNING, math.inf)), "detuning",
     f"got {-math.nextafter(MAX_DETUNING, math.inf)!r}"),
    ("beams.pb", "detuning_gamma", repr(math.nextafter(MAX_DETUNING, math.inf)), "detuning",
     f"got {math.nextafter(MAX_DETUNING, math.inf)!r}"),
    ("beams.pb", "alpha", "-5e-324", "depolarization", "got -5e-324"),
]
# every floating-point scenario key
FLOAT_KEYS = [("constants", "laser_linewidth_hz"), ("pulse", "tau_s"), ("field", "bias_gauss"),
              ("field", "rms_fluct_gauss"), ("velocity", "sigma_vr"), ("integration", "dt_gamma"),
              ("integration", "t_end_s"), ("beams.pb", "intensity_ratio"),
              ("beams.pb", "detuning_gamma"), ("beams.pb", "alpha")]


class TestConfig:
    def test_shipped_scenarios_parse(self):
        for name in (
            "fig3_polarized",
            "fig4_velocimetry",
            "fig5_dynamics",
            "table1_widths",
            "heating_paper",
        ):
            cfg = load_config(os.path.join(SCENARIOS, f"{name}.ini"))
            assert cfg.t_end_s > 0

    def test_beam_values(self, tmp_path):
        cfg = load_config(write_config(tmp_path, GOOD.format(out="out")))
        assert len(cfg.beams) == 2
        pb = cfg.beams[0]
        assert (pb.ground_f, pb.excited_f) == (4, 4)
        assert pb.intensity_ratio == 0.019
        assert pb.detuning == -0.5
        assert polarization_weights(pb.depolarization)[1] == pytest.approx(0.999662, abs=1e-6)

    def test_unknown_key_named(self, tmp_path):
        bad = GOOD.format(out="out") + "\n[pulse]\nwavelength = 852\n"
        with pytest.raises(ConfigError, match="wavelength"):
            load_config(write_config(tmp_path, bad))

    def test_unknown_section_named(self, tmp_path):
        bad = GOOD.format(out="out") + "\n[lasers]\npower = 1\n"
        with pytest.raises(ConfigError, match=r"\[lasers\]"):
            load_config(write_config(tmp_path, bad))

    def test_range_checks(self, tmp_path, capsys):
        # every bounded scenario input, just past each of its bounds, fails
        # at load with a message that names its section, its key or Beam
        # field, and the value; main prints that message and exits 2
        assert len({(section, key) for section, key, *_ in PAST_BOUNDS}) >= 10
        for section, key, value, names, shown in PAST_BOUNDS:
            items = {key: value}
            if section == "beams.pb":
                items = {"target": "4->4", "intensity_ratio": "0.019"} | items
            body = f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items())
            path = write_config(tmp_path, body)
            with pytest.raises(ConfigError) as raised:
                load_config(path)
            message = str(raised.value)
            assert message.startswith(f"[{section}] {names}: ") and shown in message, message
            assert main(["pump", "--config", path, "--out", str(tmp_path / "out")]) == 2
            assert capsys.readouterr() == ("", f"config error: {message}\n")
            assert not (tmp_path / "out").exists()

    def test_non_finite_rejected(self, tmp_path):
        # NaN passes every range comparison and infinity passes a lone minimum
        assert len(FLOAT_KEYS) >= 10
        for section, key in FLOAT_KEYS:
            for value in ("nan", "inf", "-inf"):
                items = {key: value}
                if section == "beams.pb":
                    items = {"target": "4->4", "intensity_ratio": "0.019"} | items
                body = f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items())
                with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: .*not finite"):
                    load_config(write_config(tmp_path, body))

    def test_bad_target(self, tmp_path):
        # a Beam error names the section and the Beam field that failed
        bad = GOOD.format(out="out").replace("target = 4->4", "target = 4->2")
        with pytest.raises(ConfigError, match=r"\[beams\.pb\] excited_f: no excited"):
            load_config(write_config(tmp_path, bad))
        bad = GOOD.format(out="out").replace("target = 4->4", "target = 3->5")
        with pytest.raises(ConfigError, match=r"\[beams\.pb\] excited_f: 3->5' .*dipole"):
            load_config(write_config(tmp_path, bad))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/path.ini")


@pytest.mark.parametrize("argv, needs", [
    (["states", "--prune"], "--prune"), (["pump"], "pump"), (["heat"], "heat"),
    (["fit"], "fit"), (["spectrum", "--prune"], "--prune"),
], ids=["states", "pump", "heat", "fit", "spectrum"])
def test_beamless_scenario_rejected(tmp_path, capsys, argv, needs):
    table1 = os.path.join(SCENARIOS, "table1_widths.ini")
    assert main(argv + ["--config", table1, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"config error: {needs} needs at least one [beams.*] section\n")
    assert not (tmp_path / "out").exists()


class TestStatesCommand:
    def test_lists_43_rows(self):
        result = run_cli("states")
        assert result.returncode == 0
        rows = [ln for ln in result.stdout.splitlines() if "," in ln and not ln.startswith("#")]
        assert len(rows) == 1 + 43  # header + states
        assert "# total=43" in result.stdout

    def test_byte_identical_reruns(self):
        a = run_cli("states")
        b = run_cli("states")
        assert a.stdout == b.stdout

    def test_prune_reports_active_count(self):
        result = run_cli(
            "states", "--config", os.path.join(SCENARIOS, "fig5_dynamics.ini"), "--prune"
        )
        assert result.returncode == 0
        assert "# active_after_prune=25" in result.stdout


class TestPumpCommand:
    def test_writes_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, GOOD.format(out=str(tmp_path / "out")))
        result = run_cli("pump", "--config", cfg, "--prune")
        assert result.returncode == 0, result.stderr
        trajectory = tmp_path / "out" / "trajectory.csv"
        metrics = tmp_path / "out" / "pump_metrics.txt"
        assert trajectory.exists() and metrics.exists()
        header = trajectory.read_text().splitlines()[0]
        assert header.startswith("time_s,n_g3_m-3,")
        assert header.endswith(",n_e5_m5,scattered_photons")
        assert len(header.split(",")) == 45

    def test_zero_intensity_flat_curve(self, tmp_path):
        body = GOOD.format(out=str(tmp_path / "out")).replace(
            "intensity_ratio = 0.019", "intensity_ratio = 0.0"
        ).replace("intensity_ratio = 0.023", "intensity_ratio = 0.0")
        cfg = write_config(tmp_path, body)
        result = run_cli("pump", "--config", cfg)
        assert result.returncode == 0
        assert "tau_50: not reached" in result.stdout
        metrics = (tmp_path / "out" / "pump_metrics.txt").read_text()
        rows = [
            ln for ln in metrics.splitlines()
            if ln and not ln.startswith("#") and not ln.startswith("time_s")
        ]
        fractions = np.array([float(r.split(",")[1]) for r in rows])
        assert np.allclose(fractions, 1.0 / 9.0, atol=1e-12)

    def test_config_error_exit_code_and_message(self, tmp_path):
        bad = GOOD.format(out="out").replace(
            "t_end_s = 0.001", "t_end_s = 0.001\nstep = 1"
        )
        cfg = write_config(tmp_path, bad)
        result = run_cli("pump", "--config", cfg)
        assert result.returncode == 2
        assert "step" in result.stderr

    def test_duplicate_section_is_config_error(self, tmp_path):
        bad = GOOD.format(out="out") + "\n[integration]\ndt_gamma = 0.02\n"
        cfg = write_config(tmp_path, bad)
        result = run_cli("pump", "--config", cfg)
        assert result.returncode == 2
        assert "integration" in result.stderr

    def test_missing_config(self):
        result = run_cli("pump")
        assert result.returncode == 2

    def test_overflowing_linewidth_named(self, tmp_path, capsys):
        # 2 pi x 1e308 Hz is infinite; the beam check used to take the blame
        body = (GOOD.format(out=str(tmp_path / "out"))
                + "\n[constants]\nlaser_linewidth_hz = 1e308\n")
        assert main(["pump", "--config", write_config(tmp_path, body)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: [constants] laser_linewidth_hz: ")
        assert not (tmp_path / "out").exists()

    def test_seed_flag_rejected(self, tmp_path):
        # pump draws no random numbers; only heat takes --seed
        cfg = write_config(tmp_path, GOOD.format(out=str(tmp_path / "out")))
        result = run_cli("pump", "--seed", "1", "--config", cfg)
        assert result.returncode == 2
        assert "--seed" in result.stderr


@pytest.mark.parametrize("command, old, new", [
    ("pump", "t_end_s = 0.005", "t_end_s = 1e300"),
    ("pump", "t_end_s = 0.005", "t_end_s = 1e7"),
    ("pump", "t_end_s = 0.005", "t_end_s = 1e8"),
    ("pump", "dt_gamma = 0.01", "dt_gamma = 1e-12"),
    ("pump", "dt_gamma = 0.01", "dt_gamma = 1e-300"),
    ("fit", "", ""),
], ids=["t_end_1e300", "t_end_1e7", "t_end_1e8", "dt_1e-12", "dt_1e-300", "fit_1e300"])
def test_oversized_integration_window_exit_2(tmp_path, capsys, command, old, new):
    # a window of 2**53 steps or more used to end in an OverflowError, a
    # negative population or a reshape error; it is a config error now
    with open(os.path.join(SCENARIOS, "fig5_dynamics.ini")) as fh:
        body = fh.read().replace(old, new).replace("out/fig5_dynamics", str(tmp_path / "out"))
    argv = [command, "--config", write_config(tmp_path, body)]
    if command == "fit":  # an observation at 1e300 s, integrated at 0.01/Gamma
        data = tmp_path / "obs.csv"
        data.write_text("# observable = g4_m0\n0.001,0.5\n1e300,0.9\n")
        argv.append(str(data))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: t_end = "), err
    assert err.endswith("steps; it must take fewer than 2**53\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["pump", "spectrum", "heat", "fit"])
def test_detuning_beyond_the_light_exit_2(tmp_path, capsys, command):
    # 5.8e76 linewidths used to end in an OverflowError inside the line
    # overlap on every command with beams; the Beam built at load bounds it
    with open(os.path.join(SCENARIOS, "heating_paper.ini")) as fh:
        body = fh.read().replace("detuning_gamma = -0.5", "detuning_gamma = 5.78960446186581e+76")
    data = tmp_path / "obs.csv"
    data.write_text("# observable = g4_m0\n0.001,0.5\n")
    argv = [command, "--config", write_config(tmp_path, body), "--out", str(tmp_path / "out")]
    assert main(argv + [str(data)] * (command == "fit")) == 2
    assert capsys.readouterr().err == ("config error: [beams.pb] detuning: must not pass the "
                                       "optical frequency, got 5.78960446186581e+76\n")
    assert not (tmp_path / "out").exists()


SUBNORMAL_PULSE = ("config error: [pulse] tau_s: pulse duration must be finite and positive, "
                   "with a finite Rabi frequency pi / duration, got 5e-324\n")


@pytest.mark.parametrize("command, scenario", [("pump", "fig3_polarized"),
                                               ("heat", "heating_paper"),
                                               ("fit", "fig5_dynamics")],
                         ids=["pump", "heat", "fit"])
def test_subnormal_pulse_exit_2(tmp_path, capsys, command, scenario):
    # the commands that read no [pulse] used to take a subnormal tau_s and
    # exit 0 (spectrum exited 2, after its pump run); each now fails at load
    with open(os.path.join(SCENARIOS, f"{scenario}.ini")) as fh:
        body = fh.read()
    body = (body.replace("tau_s = 0.007", "tau_s = 5e-324") if "[pulse]" in body
            else body + "\n[pulse]\ntau_s = 5e-324\n")
    data = tmp_path / "obs.csv"
    data.write_text("# observable = g4_m0\n0.001,0.5\n")
    argv = [command, "--config", write_config(tmp_path, body), "--out", str(tmp_path / "out")]
    assert main(argv + [str(data)] * (command == "fit")) == 2
    assert capsys.readouterr() == ("", SUBNORMAL_PULSE)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["pump", "spectrum", "heat", "fit"])
def test_linewidth_wider_than_the_light_exit_2(tmp_path, capsys, command):
    # 1e300 Hz used to end in an OverflowError inside the line overlap on
    # every command with beams; the line cannot be wider than its optical
    # frequency, and the load says so before any integration or walk
    with open(os.path.join(SCENARIOS, "heating_paper.ini")) as fh:
        body = fh.read().replace("[velocity]", "[constants]\nlaser_linewidth_hz = 1e300\n\n"
                                 "[velocity]")
    data = tmp_path / "obs.csv"
    data.write_text("# observable = g4_m0\n0.001,0.5\n")
    argv = [command, "--config", write_config(tmp_path, body), "--out", str(tmp_path / "out")]
    assert main(argv + [str(data)] * (command == "fit")) == 2
    assert capsys.readouterr().err == (
        "config error: [constants] laser_linewidth_hz: must be at most "
        f"{SPEED_OF_LIGHT / WAVELENGTH}, got 1e+300\n")
    assert not (tmp_path / "out").exists()


class TestSpectrumCommand:
    def test_counterpropagating_report(self, tmp_path):
        result = run_cli(
            "spectrum",
            "--config", os.path.join(SCENARIOS, "fig4_velocimetry.ini"),
            "--out", str(tmp_path / "out"),
        )
        assert result.returncode == 0, result.stderr
        assert "uK" in result.stdout
        assert "1.12" in result.stdout  # measured product quoted for comparison
        csv = (tmp_path / "out" / "spectrum.csv").read_text()
        assert csv.startswith("detuning_hz,signal")
        assert "# temperature_K=" in csv

    def test_copropagating_writes_spectrum(self, tmp_path):
        result = run_cli(
            "spectrum",
            "--config", os.path.join(SCENARIOS, "fig3_polarized.ini"),
            "--out", str(tmp_path / "out"),
            "--prune",
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "out" / "spectrum.csv").exists()

    def test_traced_run_writes_the_same_bytes(self, tmp_path, monkeypatch):
        # the benchmark's tracer wraps the synthesis functions by name and
        # reads their populations and grid arguments by position
        monkeypatch.syspath_prepend(os.path.join(REPO, "perfbench"))
        import spans

        def argv(out):
            return ["spectrum", "--config", os.path.join(SCENARIOS, "table1_widths.ini"),
                    "--out", str(tmp_path / out)]

        assert main(argv("plain")) == 0
        tracer = spans.Tracer()
        tracer.install()
        try:
            assert tracer.job("table1", main, argv("traced")) == 0
        finally:
            tracer.restore()
        traced = (tmp_path / "traced" / "spectrum.csv").read_bytes()
        assert traced == (tmp_path / "plain" / "spectrum.csv").read_bytes()
        # seven populated lines of uniform_f4 on the 2001-point grid
        assert tracer.counts["raman.synth_counterpropagating.line_grid_points"] == 7 * 2001


    def test_final_row_alone_writes_the_full_run_bytes(self, tmp_path, monkeypatch):
        # spectrum integrates only the final row it reads; the last row of a
        # full trajectory gives the same files
        from pumpsim import cli

        def argv(out):
            return ["spectrum", "--config", os.path.join(SCENARIOS, "fig3_polarized.ini"),
                    "--prune", "--out", str(tmp_path / out)]

        assert main(argv("final")) == 0
        full_run = cli.integrate_rk4
        monkeypatch.setattr(cli, "integrate_rk4",
                            lambda *args, at=None, **kwargs: full_run(*args, **kwargs))
        assert main(argv("full")) == 0
        names = sorted(os.listdir(tmp_path / "full"))
        assert names == sorted(os.listdir(tmp_path / "final")) and names
        for name in names:
            assert (tmp_path / "final" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()

    @pytest.mark.parametrize("scenario, bias, warns", [
        ("fig3_polarized.ini", None, False),       # 0.1 G: a 4.3 Hz shift of 114.1 Hz
        ("fig3_polarized.ini", "0.200", True),     # 0.2 G: 17 Hz
        ("fig3_polarized.ini", "-0.200", True),
        ("fig4_velocimetry.ini", None, False),     # bias 0
        ("table1_widths.ini", None, False),        # bias 0
    ])
    def test_clock_line_shift_warning(self, tmp_path, capsys, scenario, bias, warns):
        # one stderr line once the m = 0 line's neglected second-order shift
        # passes 10% of the Fourier line width, about 0.16 G at 7 ms
        with open(os.path.join(SCENARIOS, scenario)) as fh:
            body = fh.read()
        if bias:
            body = body.replace("bias_gauss = 0.100", f"bias_gauss = {bias}")
        cfg = write_config(tmp_path, body)
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err == ([f"warning: at {float(bias):g} G the m=0 line's second-order Zeeman "
                        "shift, 17 Hz, exceeds 10% of the 114.1 Hz line width; line "
                        "positions are first order in the field"] if warns else [])
        assert (tmp_path / "out" / "spectrum.csv").exists()

    def test_overflowing_clock_line_shift_warning(self, tmp_path, capsys):
        # at 1e290 G the neglected shift is past a double's range: the warning
        # says so rather than printing "inf Hz"
        with open(os.path.join(SCENARIOS, "fig4_velocimetry.ini")) as fh:
            body = fh.read().replace("bias_gauss = 0.0", "bias_gauss = 1e290")
        cfg = write_config(tmp_path, body)
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: at 1e+290 G the m=0 line's second-order Zeeman shift overflows a "
            "double and exceeds 10% of the 114.1 Hz line width; line positions are first "
            "order in the field"]

    def test_counterpropagating_field_spread_rejected(self, tmp_path):
        # the field spread smears copropagating lines only; a
        # counterpropagating run used to ignore it without a word
        with open(os.path.join(SCENARIOS, "table1_widths.ini")) as fh:
            body = fh.read().replace("bias_gauss = 0.0",
                                     "bias_gauss = 0.0\nrms_fluct_gauss = 1e-3")
        cfg = write_config(tmp_path, body)
        result = run_cli("spectrum", "--config", cfg, "--out", str(tmp_path / "out"))
        assert result.returncode == 2
        assert "[field] rms_fluct_gauss" in result.stderr
        assert not (tmp_path / "out").exists()

    def test_oversized_fold_exit_2(self, tmp_path):
        # a fold too large on both routes (1e-6 v_r under a 10 s pulse) is
        # a config error, raised before any array exists and before any
        # file is written
        with open(os.path.join(SCENARIOS, "table1_widths.ini")) as fh:
            body = (fh.read().replace("sigma_vr = 4.0", "sigma_vr = 1e-6")
                    .replace("tau_s = 0.007", "tau_s = 10"))
        cfg = write_config(tmp_path, body)
        result = run_cli("spectrum", "--config", cfg, "--out", str(tmp_path / "out"))
        assert result.returncode == 2
        assert "fold needs" in result.stderr and "tau = 10 s" in result.stderr
        assert "Traceback" not in result.stderr and "Warning" not in result.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("old, new", [("sigma_vr = 4.0", "sigma_vr = 1e305"),
                                          ("tau_s = 0.007", "tau_s = 1e306")])
    def test_overflowing_fold_exit_2(self, tmp_path, old, new):
        # an infinite Doppler width, or a transform that underflows, is
        # refused before any array exists, without a warning
        message = {"sigma_vr = 1e305": "the Doppler width of the velocity spread 1e+305 v_r "
                                       "is not finite",
                   "tau_s = 1e306": "the transform of the tau = 1e+306 s line underflows"}[new]
        with open(os.path.join(SCENARIOS, "table1_widths.ini")) as fh:
            body = fh.read().replace(old, new)
        cfg = write_config(tmp_path, body)
        result = run_cli("spectrum", "--config", cfg, "--out", str(tmp_path / "out"))
        assert result.returncode == 2, result.stderr
        assert f"config error: {message}" in result.stderr
        assert "Traceback" not in result.stderr and "Warning" not in result.stderr
        assert not (tmp_path / "out").exists()

    def test_subnormal_pulse_exit_2(self, tmp_path, capsys):
        # a subnormal tau_s used to write an all-NaN copropagating spectrum
        # and exit 0, after printing an infinite FWHM*tau; RamanPulse now
        # refuses it at load, before the pump run
        with open(os.path.join(SCENARIOS, "fig3_polarized.ini")) as fh:
            body = fh.read().replace("tau_s = 0.007", "tau_s = 5e-324")
        cfg = write_config(tmp_path, body)
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == ("", SUBNORMAL_PULSE)
        assert not (tmp_path / "out").exists()

    def test_huge_doppler_width_exit_4(self, tmp_path):
        # at 1e10 v_r the spectrum is flat on the grid, computed and
        # written; only the Gaussian fit fails, so the run exits 4
        with open(os.path.join(SCENARIOS, "table1_widths.ini")) as fh:
            body = fh.read().replace("sigma_vr = 4.0", "sigma_vr = 1e10")
        cfg = write_config(tmp_path, body)
        result = run_cli("spectrum", "--config", cfg, "--out", str(tmp_path / "out"))
        assert result.returncode == 4, result.stderr
        assert result.stderr == "gaussian fit did not converge\n"
        text = (tmp_path / "out" / "spectrum.csv").read_text()
        assert "# converged=false" in text
        signal = np.loadtxt(text.splitlines()[1:2002], delimiter=",")[:, 1]
        assert np.ptp(signal) <= 1e-12 * signal.max() and signal.min() > 0.0

    def test_counterpropagating_bytes_identical_across_blas_threads(self, tmp_path):
        # the Fourier route ends in a BLAS matrix product, where the FFT
        # fold ended in pocketfft; a biased fig4 spectrum runs it at seven
        # line positions
        with open(os.path.join(SCENARIOS, "fig4_velocimetry.ini")) as fh:
            body = fh.read().replace("bias_gauss = 0.0", "bias_gauss = 0.1")
        cfg = write_config(tmp_path, body)
        spectra = []
        for threads in ("1", "4"):
            out = tmp_path / f"out{threads}"
            env = {var: threads for var in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
            result = run_cli("spectrum", "--config", cfg, "--out", str(out), env_extra=env)
            assert result.returncode == 0, result.stderr
            spectra.append((out / "spectrum.csv").read_bytes())
        assert spectra[0] == spectra[1]


class TestHeatCommand:
    @pytest.mark.parametrize("integration, notes", [
        ("", False),                                              # the shipped file
        ("[integration]\ndt_gamma = 0.01\nt_end_s = 1e-6\n", False),   # the window is fixed
        ("[integration]\ndt_gamma = 0.05\nt_end_s = 1e-6\n", True),
    ])
    def test_integration_step_note(self, tmp_path, capsys, integration, notes):
        # heat integrates a 20 ms window at dt_gamma = 0.01 whatever
        # [integration] holds: a different step gets one stderr note, and
        # heating.txt keeps the shipped scenario's bytes
        with open(os.path.join(SCENARIOS, "heating_paper.ini")) as fh:
            body = fh.read().replace("samples = 100000", "samples = 20000")
        outputs, errs = [], []
        edited = body.replace("[mc]", integration + "\n[mc]")
        for name, text in (("shipped", body), ("edited", edited)):
            cfg = write_config(tmp_path, text)
            assert main(["heat", "--config", cfg, "--out", str(tmp_path / name)]) == 0
            outputs.append((tmp_path / name / "heating.txt").read_bytes())
            errs.append(capsys.readouterr().err)
        assert outputs[0] == outputs[1]
        assert errs == ["", "note: heat integrates a 20 ms window at dt_gamma = 0.01; it ignores "
                       "[integration] dt_gamma = 0.05\n" if notes else ""]

    def test_summary_and_histogram(self, tmp_path):
        cfg = write_config(
            tmp_path,
            GOOD.format(out=str(tmp_path / "out"))
            + "\n[mc]\nsamples = 20000\nseed = 99\n",
        )
        result = run_cli("heat", "--config", cfg, "--prune")
        assert result.returncode == 0, result.stderr
        text = (tmp_path / "out" / "heating.txt").read_text()
        assert "# delta_vrms_vr=" in text
        assert "v_over_vr,count" in text

    def test_huge_velocity_spread_composes(self, tmp_path, capsys):
        # sigma_vr = 1e300 used to end in an OverflowError at initial_vrms**2,
        # after the whole walk; the quadrature of two finite spreads is finite
        with open(os.path.join(SCENARIOS, "heating_paper.ini")) as fh:
            body = (fh.read().replace("sigma_vr = 4.0", "sigma_vr = 1e300")
                    .replace("samples = 100000", "samples = 2000"))
        cfg = write_config(tmp_path, body)
        assert main(["heat", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""
        text = (tmp_path / "out" / "heating.txt").read_text()
        assert "# final_vrms_quadrature_vr=1.0000000000000001e+300\n" in text
        assert "# final_vrms_additive_vr=1.0000000000000001e+300\n" in text

    @pytest.mark.parametrize("sigma_vr, line", [
        ("4.0", r"initial 4\.00 v_r -> quadrature \d\.\d{3} v_r, additive \d\.\d{3} v_r"),
        ("1e300", r"initial 1e\+300 v_r -> quadrature 1e\+300 v_r, additive 1e\+300 v_r"),
    ])
    def test_spread_line_stays_short(self, tmp_path, capsys, sigma_vr, line):
        # ordinary spreads print in fixed point as they always have; from 1e6
        # up in 4 significant digits, not as a 301-digit number
        with open(os.path.join(SCENARIOS, "heating_paper.ini")) as fh:
            body = (fh.read().replace("sigma_vr = 4.0", f"sigma_vr = {sigma_vr}")
                    .replace("samples = 100000", "samples = 2000"))
        cfg = write_config(tmp_path, body)
        assert main(["heat", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert re.fullmatch(line, printed[2])
        assert max(len(text) for text in printed[:3]) < 80

    def test_negative_seed_named(self, tmp_path, capsys):
        # the same rule as [mc] seed, in a message that names the flag
        cfg = write_config(tmp_path, GOOD.format(out=str(tmp_path / "out")))
        assert main(["heat", "--config", cfg, "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "config error: --seed: must be at least 0, got -1\n"
        assert not (tmp_path / "out").exists()

    def test_oversized_sample_count_exit_2(self, tmp_path, capsys):
        # rejected at load, before the walk allocates its per-sample arrays
        cfg = write_config(tmp_path, GOOD.format(out=str(tmp_path / "out"))
                           + "\n[mc]\nsamples = 10000000000000\n")
        assert main(["heat", "--config", cfg]) == 2
        assert capsys.readouterr().err == ("config error: [mc] samples: must be at most "
                                           "10000000, got 10000000000000\n")
        assert not (tmp_path / "out").exists()

    def test_seeded_byte_identical(self, tmp_path):
        cfg = write_config(
            tmp_path,
            GOOD.format(out=str(tmp_path / "out"))
            + "\n[mc]\nsamples = 20000\nseed = 99\n",
        )
        run_cli("heat", "--config", cfg, "--prune")
        first = (tmp_path / "out" / "heating.txt").read_bytes()
        run_cli("heat", "--config", cfg, "--prune")
        second = (tmp_path / "out" / "heating.txt").read_bytes()
        assert first == second


    def test_unreached_threshold_warns(self, tmp_path, capsys):
        # heating_paper.ini with both beams at alpha = 0.05, on a small sample
        with open(os.path.join(SCENARIOS, "heating_paper.ini")) as f:
            text = f.read().replace("alpha = 0.0", "alpha = 0.05")
        cfg = write_config(tmp_path, text.replace("samples = 100000", "samples = 2000"))
        assert main(["heat", "--config", cfg, "--prune", "--out", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert err == ("warning: the F=4, m=0 fraction never reaches 0.95 by t_end=0.02 s "
                       "from the start(s) m=-4, m=-3, m=-2, m=-1, m=1, m=2, m=3, m=4, "
                       "uniform F=4; their cycle counts are the photons scattered by t_end\n")
        assert "warning" not in (tmp_path / "heating.txt").read_text()

    def test_unreachable_at_alpha_005(self):
        # the warning is not a matter of the window: pruned at alpha = 0.05
        # the long-run m0 fraction itself stays below 0.95
        alpha = 0.05
        beams = [Beam(4, 4, 0.019, -0.5, alpha), Beam(3, 4, 0.023, 0.0, alpha)]
        state = stationary_state(prune(assemble_rate_matrix(beams))[0])
        m0 = state[state_index(Sublevel("g", 4, 0))] / state[GROUND_INDICES].sum()
        assert 0.92 < m0 < 0.95

    @pytest.mark.parametrize("flags", [[], ["--prune"]])
    def test_shipped_scenario_does_not_warn(self, tmp_path, capsys, flags):
        cfg = os.path.join(SCENARIOS, "heating_paper.ini")
        assert main(["heat", "--config", cfg, "--out", str(tmp_path), *flags]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="needs os.sched_setaffinity")
    @pytest.mark.parametrize("flags", [[], ["--prune"]])
    def test_one_cpu_run_writes_the_same_bytes(self, tmp_path, flags):
        # on one CPU the recoil walk runs as one part, here as one per CPU;
        # the bits must not depend on the number of parts
        one_cpu = ("import os, sys\n"
                   "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
                   "from pumpsim.cli import main\n"
                   "sys.exit(main(sys.argv[1:]))\n")
        cfg = os.path.join(SCENARIOS, "heating_paper.ini")
        result = run_python("-c", one_cpu, "heat", "--config", cfg,
                            "--out", str(tmp_path / "one"), *flags)
        assert result.returncode == 0, result.stderr
        assert main(["heat", "--config", cfg, "--out", str(tmp_path / "all"), *flags]) == 0
        assert ((tmp_path / "one" / "heating.txt").read_bytes()
                == (tmp_path / "all" / "heating.txt").read_bytes())


class TestScipyLoadedOnUse:
    # runs the given commands in one process, then prints the scipy
    # modules they loaded as its last line; the package runs on numpy
    # alone, so every command should print none
    SCRIPT = (
        "import json, sys\n"
        "from pumpsim.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    if main(argv) != 0:\n"
        "        sys.exit(f'{argv[0]} failed')\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )

    def loaded_after(self, *runs):
        result = run_python("-c", self.SCRIPT, json.dumps(runs))
        assert result.returncode == 0, result.stderr
        return result.stdout.splitlines()[-1].split()

    def test_states_pump_heat_never_load_scipy(self, tmp_path):
        # a module-level scipy import would add about 0.5 s to each of these
        fig5 = os.path.join(SCENARIOS, "fig5_dynamics.ini")
        heat = os.path.join(SCENARIOS, "heating_paper.ini")
        loaded = self.loaded_after(
            ["states", "--config", fig5, "--prune", "--out", str(tmp_path / "states")],
            ["pump", "--config", fig5, "--prune", "--out", str(tmp_path / "pump")],
            ["heat", "--config", heat, "--prune", "--out", str(tmp_path / "heat")],
        )
        assert loaded == []

    def test_counterpropagating_spectrum_loads_no_scipy(self, tmp_path):
        # the folds run on numpy.fft and numpy.polynomial, and the Gaussian fit is the package's
        # own Levenberg-Marquardt
        fig4 = os.path.join(SCENARIOS, "fig4_velocimetry.ini")
        loaded = self.loaded_after(["spectrum", "--config", fig4, "--out", str(tmp_path)])
        assert loaded == []

    def test_fit_loads_no_scipy(self, tmp_path):
        # the depolarization search is the package's own bounded Brent search
        from pumpsim.fitting import simulate_observable

        fig5 = os.path.join(SCENARIOS, "fig5_dynamics.ini")
        times = np.linspace(2e-4, 4e-3, 20)
        truth = simulate_observable(load_config(fig5).beams, 0.013, times)
        data = tmp_path / "m0.csv"
        data.write_text("".join(f"{t:.12g},{v:.12g}\n" for t, v in zip(times, truth)))
        loaded = self.loaded_after(
            ["fit", "--config", fig5, "--out", str(tmp_path / "fit"), str(data)])
        assert loaded == []

    def test_copropagating_spectrum_loads_no_scipy(self, tmp_path):
        # the line width is a constant over tau and the folds run on
        # numpy.fft
        fig3 = os.path.join(SCENARIOS, "fig3_polarized.ini")
        loaded = self.loaded_after(
            ["spectrum", "--config", fig3, "--prune", "--out", str(tmp_path)])
        assert loaded == []


class TestFitCommand:
    def test_round_trip_through_files(self, tmp_path):
        from pumpsim.fitting import simulate_observable
        from pumpsim.kinetics import Beam

        times = np.linspace(1e-4, 4.8e-3, 50)
        truth = simulate_observable(
            [Beam(4, 4, 0.019, -0.5), Beam(3, 4, 0.023, 0.0)], 0.013, times
        )
        data = tmp_path / "m0.csv"
        data.write_text(
            "# observable = g4_m0\n"
            + "\n".join(f"{t:.12g},{v:.12g}" for t, v in zip(times, truth))
            + "\n"
        )
        cfg = write_config(tmp_path, GOOD.format(out=str(tmp_path / "out")))
        result = run_cli("fit", "--config", cfg, str(data))
        assert result.returncode == 0, result.stderr
        report = (tmp_path / "out" / "fit_report.txt").read_text()
        alpha_line = [ln for ln in report.splitlines() if ln.startswith("# alpha_hat=")][0]
        assert abs(float(alpha_line.split("=")[1]) - 0.013) < 1e-4

    @pytest.mark.parametrize("truth, warns", [(0.35, True), (0.19, False)])
    def test_alpha_hat_at_upper_bound_warns(self, tmp_path, capsys, truth, warns):
        # observations beyond the search range fit to the upper bound 0.2;
        # the fit still converges and exits 0, so only stderr can say so
        from pumpsim.fitting import simulate_observable

        beams = load_config(os.path.join(SCENARIOS, "fig5_dynamics.ini")).beams
        times = np.linspace(4e-3 / 25, 4e-3, 25)
        truth_m0 = simulate_observable(beams, truth, times)
        data = tmp_path / "m0.csv"
        data.write_text("# observable = g4_m0\n" + "".join(
            f"{t:.12g},{v:.12g}\n" for t, v in zip(times, truth_m0)))
        cfg = os.path.join(SCENARIOS, "fig5_dynamics.ini")
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "out"), str(data)]) == 0
        err = capsys.readouterr().err
        report = (tmp_path / "out" / "fit_report.txt").read_text()
        assert "# converged=true" in report and "warning" not in report
        if warns:
            assert err == ("warning: alpha_hat=0.199987 lies within the search tolerance "
                           "2e-05 of the upper bound 0.2; the data may call for a larger "
                           "contamination than the search range holds\n")
        else:
            assert err == ""
            assert "# alpha_hat=0.18999" in report

    @pytest.mark.parametrize("dt_gamma, notes", [("0.01", False), ("0.02", True)])
    def test_integration_step_note(self, tmp_path, capsys, dt_gamma, notes):
        # fit integrates up to its last observation at dt_gamma = 0.01:
        # fig5's t_end_s = 0.005 stays quiet, a different step gets one
        # stderr note and the report keeps its bytes
        from pumpsim.fitting import simulate_observable

        fig5 = os.path.join(SCENARIOS, "fig5_dynamics.ini")
        times = np.linspace(2e-4, 4e-3, 20)
        truth = simulate_observable(load_config(fig5).beams, 0.013, times)
        data = tmp_path / "m0.csv"
        data.write_text("".join(f"{t:.12g},{v:.12g}\n" for t, v in zip(times, truth)))
        with open(fig5) as fh:
            body = fh.read().replace("dt_gamma = 0.01", f"dt_gamma = {dt_gamma}")
        cfg = write_config(tmp_path, body)
        reports = []
        for path, out in ((fig5, "shipped"), (cfg, "edited")):
            assert main(["fit", "--config", path, "--out", str(tmp_path / out), str(data)]) == 0
            reports.append((tmp_path / out / "fit_report.txt").read_bytes())
        assert reports[0] == reports[1]
        assert capsys.readouterr().err == (
            f"note: fit integrates up to the last observation time at dt_gamma = 0.01; it "
            f"ignores [integration] dt_gamma = {dt_gamma}\n" if notes else "")

    def test_empty_data_file_exit_3(self, tmp_path):
        data = tmp_path / "empty.csv"
        data.write_text("# observable = g4_m0\n")
        cfg = write_config(tmp_path, GOOD.format(out=str(tmp_path / "out")))
        result = run_cli("fit", "--config", cfg, str(data))
        assert result.returncode == 3
        assert "empty.csv" in result.stderr

    def test_non_finite_data_exit_3(self, tmp_path):
        data = tmp_path / "m0.csv"
        data.write_text("0.001,0.1\n0.002,nan\n")
        cfg = write_config(tmp_path, GOOD.format(out=str(tmp_path / "out")))
        result = run_cli("fit", "--config", cfg, str(data))
        assert result.returncode == 3
        assert "m0.csv" in result.stderr and "finite" in result.stderr
        assert not (tmp_path / "out").exists()

    def test_excited_observable_exit_3(self, tmp_path, capsys):
        # an excited population is no fraction of the ground atoms; the fit
        # used to score it against a flat model and exit 0
        data = tmp_path / "obs.csv"
        data.write_text("# observable = e5_m0\n0.001,0.5\n0.002,0.6\n")
        cfg = write_config(tmp_path, GOOD.format(out=str(tmp_path / "out")))
        assert main(["fit", "--config", cfg, str(data)]) == 3
        assert capsys.readouterr().err == (
            f"data error: {data}:1: observable e5_m0 is not a ground sublevel\n")
        assert not (tmp_path / "out").exists()

    def test_no_data_files_exit_3(self, tmp_path):
        cfg = write_config(tmp_path, GOOD.format(out=str(tmp_path / "out")))
        result = run_cli("fit", "--config", cfg)
        assert result.returncode == 3

    def test_report_residuals_match_residual_report(self, tmp_path):
        from pumpsim.fitting import load_observations, residual_report, simulate_observable
        from pumpsim.kinetics import Beam

        times = np.linspace(1e-4, 4.8e-3, 40)
        truth = simulate_observable(
            [Beam(4, 4, 0.019, -0.5), Beam(3, 4, 0.023, 0.0)], 0.013, times
        )
        noise = np.random.Generator(np.random.Philox(4)).uniform(-0.01, 0.01, times.size)
        data = tmp_path / "m0.csv"
        data.write_text(
            "# observable = g4_m0\n"
            + "\n".join(f"{t:.12g},{v:.12g}" for t, v in zip(times, 0.95 * truth + noise))
            + "\n"
        )
        cfg = write_config(tmp_path, GOOD.format(out=str(tmp_path / "out")))
        result = run_cli("fit", "--config", cfg, "--fit-scale", str(data))
        assert result.returncode == 0, result.stderr
        lines = (tmp_path / "out" / "fit_report.txt").read_text().splitlines()
        header = dict(ln[2:].split("=", 1) for ln in lines if ln.startswith("# "))
        rows = lines[lines.index("series,time_s,residual") + 1:]
        written = np.array([float(row.split(",")[2]) for row in rows])

        report = residual_report([load_observations(data)], load_config(cfg).beams,
                                 float(header["alpha_hat"]), fit_scale=True)
        assert np.array_equal(written, report.residuals[0])
        assert float(header["sse"]) == report.sse
        assert float(header["scale[m0.csv]"]) == report.scales[0]

    def test_report_identical_across_blas_threads(self, tmp_path):
        # each candidate runs (44 x 44) matrix-vector products from every
        # chunk's start, a BLAS path the pump and heat determinism criterion
        # does not cover
        from pumpsim.fitting import simulate_observable

        fig5 = os.path.join(SCENARIOS, "fig5_dynamics.ini")
        times = np.linspace(1e-4, 4.8e-3, 60)
        truth = simulate_observable(load_config(fig5).beams, 0.013, times)
        noise = np.random.Generator(np.random.Philox(11)).normal(0.0, 0.005, times.size)
        data = tmp_path / "m0.csv"
        data.write_text(
            "# observable = g4_m0\n"
            + "\n".join(f"{t:.12g},{v:.12g}"
                        for t, v in zip(times, np.clip(truth + noise, 0.0, 1.0)))
            + "\n"
        )
        reports = []
        for threads in ("1", "4"):
            out = tmp_path / f"out{threads}"
            env = {var: threads for var in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
            result = run_cli("fit", "--config", fig5, "--out", str(out), str(data),
                             env_extra=env)
            assert result.returncode == 0, result.stderr
            reports.append((out / "fit_report.txt").read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("fit_scale", [False, True])
    def test_sse_bit_equal_to_residual_report(self, tmp_path, fit_scale):
        # the fit re-weights the terms it assembled once, residual_report
        # assembles the scenario's beams (alpha 0.013) anew: a check of
        # sse(alpha_hat) <= sse(alpha_true) may flip unless both give the
        # same bits
        from pumpsim.fitting import load_observations, residual_report, simulate_observable

        fig5 = os.path.join(SCENARIOS, "fig5_dynamics.ini")
        beams = load_config(fig5).beams
        times = np.linspace(1e-4, 4.8e-3, 60)
        truth = simulate_observable(beams, 0.03, times)
        noise = np.random.Generator(np.random.Philox(12)).normal(0.0, 0.005, times.size)
        data = tmp_path / "m0.csv"
        data.write_text(
            "# observable = g4_m0\n"
            + "\n".join(f"{t:.12g},{v:.12g}"
                        for t, v in zip(times, np.clip(0.9 * truth + noise, 0.0, 1.0)))
            + "\n"
        )
        out = tmp_path / "out"
        flags = ["--fit-scale"] if fit_scale else []
        assert main(["fit", "--config", fig5, "--out", str(out), *flags, str(data)]) == 0
        lines = (out / "fit_report.txt").read_text().splitlines()
        header = dict(ln[2:].split("=", 1) for ln in lines if ln.startswith("# "))
        report = residual_report([load_observations(data)], beams,
                                 float(header["alpha_hat"]), fit_scale=fit_scale)
        assert float(header["sse"]).hex() == report.sse.hex()

    def test_shared_file_name_rejected(self, tmp_path, capsys):
        # the report labels each series by its file name; two files of one
        # name used to give two scale lines and rows of one label
        cfg = write_config(tmp_path, GOOD.format(out=str(tmp_path / "out")))
        paths = []
        for d in ("d1", "d2"):
            (tmp_path / d).mkdir()
            path = tmp_path / d / "obs.csv"
            path.write_text("# observable = g4_m0\n0.001,0.5\n0.002,0.6\n")
            paths.append(str(path))
        assert main(["fit", "--config", cfg, "--fit-scale", *paths]) == 3
        assert capsys.readouterr().err == (
            "data error: two observation files share the name 'obs.csv'\n")
        assert not (tmp_path / "out").exists()

    def test_prune_flag_rejected(self, tmp_path):
        # fit always works on the reduced equation set; it takes no --prune
        cfg = write_config(tmp_path, GOOD.format(out=str(tmp_path / "out")))
        result = run_cli("fit", "--config", cfg, "--prune")
        assert result.returncode == 2
        assert "--prune" in result.stderr


class TestSharedParser:
    """`main` parses every call with one parser; no call leaves state in it."""

    @staticmethod
    def pump(cfg, out, *flags):
        assert main(["pump", "--config", cfg, "--out", str(out), *flags]) == 0
        return (out / "trajectory.csv").read_bytes() + (out / "pump_metrics.txt").read_bytes()

    @staticmethod
    def heat(cfg, out, *flags):
        assert main(["heat", "--config", cfg, "--out", str(out), *flags]) == 0
        return (out / "heating.txt").read_bytes()

    def test_calls_in_one_process_match_lone_calls(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, GOOD.format(out=str(tmp_path / "out"))
                           + "\n[mc]\nsamples = 2000\nseed = 99\n")
        lone = {}
        for name in ("pump", "heat"):
            result = run_cli(name, "--config", cfg, "--out", str(tmp_path / f"lone-{name}"))
            assert result.returncode == 0, result.stderr
        lone["pump"] = ((tmp_path / "lone-pump" / "trajectory.csv").read_bytes()
                        + (tmp_path / "lone-pump" / "pump_metrics.txt").read_bytes())
        lone["heat"] = (tmp_path / "lone-heat" / "heating.txt").read_bytes()

        built = []
        init = argparse.ArgumentParser.__init__

        def spy(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        cli.build_parser.cache_clear()
        # a flag given to one call is not a default of the next
        assert self.heat(cfg, tmp_path / "seed7", "--seed", "7") != lone["heat"]
        assert self.heat(cfg, tmp_path / "heat") == lone["heat"]
        assert self.pump(cfg, tmp_path / "pruned", "--prune") != lone["pump"]
        assert self.pump(cfg, tmp_path / "pump") == lone["pump"]
        # nor is a call that argparse rejected after reading --prune
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["pump", "--config", cfg, "--prune", "--bogus"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        assert self.pump(cfg, tmp_path / "after-error") == lone["pump"]
        assert built.count("pumpsim") == 1
        assert cli.build_parser.cache_info().misses == 1

    def test_help_reads_the_width_when_printed(self, capsys, monkeypatch):
        helps = []
        for columns in ("40", "160"):
            monkeypatch.setenv("COLUMNS", columns)
            with pytest.raises(SystemExit) as exc:
                main(["pump", "--help"])
            assert exc.value.code == 0
            helps.append(capsys.readouterr().out)
        narrow, wide = (max(map(len, text.splitlines())) for text in helps)
        assert narrow <= 40 < wide


class TestAtomicWrite:
    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "report.txt"
        atomic_write(path, ["old"])
        with pytest.raises(UnicodeEncodeError):
            atomic_write(path, ["new \udc80"])  # lone surrogate: not UTF-8
        assert path.read_text() == "old\n"
        assert sorted(os.listdir(tmp_path)) == ["report.txt"]

    def test_failed_table_keeps_previous_file(self, tmp_path, monkeypatch):
        # an error between two blocks of a table leaves the old file and no
        # temporary file
        path = tmp_path / "trajectory.csv"
        atomic_write(path, ["old"])
        block = _g17._block
        done = []

        def failing(x, *layout):
            if done:
                raise MemoryError("second block")
            done.append(x.size)
            return block(x, *layout)

        monkeypatch.setattr(_g17, "_block", failing)
        table = np.arange(3.0 * _VALUES_PER_BLOCK).reshape(-1, 3)
        with pytest.raises(MemoryError):
            atomic_write(path, ["a,b,c", blocks(table)])
        assert done == [_VALUES_PER_BLOCK // 3 * 3]
        assert path.read_text() == "old\n"
        assert sorted(os.listdir(tmp_path)) == ["trajectory.csv"]

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
    def test_mode_follows_umask(self, tmp_path, umask):
        cfg = write_config(tmp_path, GOOD.format(out=str(tmp_path / "out")))
        previous = os.umask(umask)
        try:
            assert main(["pump", "--config", cfg, "--prune"]) == 0
            write_branching_csv(tmp_path / "branching.csv")
        finally:
            os.umask(previous)
        for path in (tmp_path / "out" / "trajectory.csv",
                     tmp_path / "out" / "pump_metrics.txt",
                     tmp_path / "branching.csv"):
            assert stat.S_IMODE(os.stat(path).st_mode) == 0o666 & ~umask, path


# values in a block of a table without a skipped column: 32-byte slots
_VALUES_PER_BLOCK = _g17._BLOCK_BYTES // 32


def _oracle(*columns):
    # the text of every value as Python's own format spec writes it
    return [",".join(f"{x:.17g}" for x in row) for row in np.column_stack(columns).tolist()]


def _reference_rows(*columns):
    # the reference writer: each row through one `%.17g` format string
    table = np.column_stack(columns)
    fmt = ",".join(["%.17g"] * table.shape[1])
    return [fmt % tuple(row.tolist()) for row in table]


def _kernel_table(values, ncols=3):
    # `values` repeated into a table of at least 600 values, so that `rows`
    # takes its numpy kernel rather than the per-value path of small tables
    values = np.asarray(values, dtype=float)
    return np.resize(values, (-(-max(values.size, 600) // ncols), ncols))


def _awkward_doubles():
    values = [2.0 ** -25, -2.0 ** -25,       # exact ties at the 17th digit,
              3 * 2.0 ** -25, -3 * 2.0 ** -25,  # rounded to even down and up
              9.9999999999999995e-05,        # rounds up across the notation change
              5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
              1.7976931348623157e308, -0.0, 0.0, float("nan"), float("inf"),
              -float("inf"), 0.1 + 0.2, 1e16 + 2, 123456789.0, 7.0]
    values += [s * 1.2345678901234567 * 10.0 ** p for p in (279, 285, 295, 305) for s in (1, -1)]
    values += [s * 1.2345678901234567 * 10.0 ** -p for p in (279, 285, 295, 305) for s in (1, -1)]
    for v in [1e-4, 1e16, 1e17, 1e-280, 1e280] + [float(f"1e{p}") for p in range(-40, 41)]:
        values += [v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)]
    return np.array(values)


def test_rows_match_format_spec():
    # `%.17g` gives the text of f"{x:.17g}" on awkward doubles, and a 2-D
    # argument contributes one column per column
    a = np.array([0.1 + 0.2, -0.0, float("nan"), float("inf"), -float("inf"),
                  1e-300, 5e-324, 1e16 + 2, 123456789.0, 7.0])
    b = a[::-1].copy()
    assert rows(a, np.column_stack([b, a])) == [
        f"{x:.17g},{y:.17g},{x:.17g}" for x, y in zip(a, b)
    ]
    # integer counts beside float columns print as integers
    centers = np.linspace(-5.0, 5.0, 51)
    counts = np.arange(51, dtype=np.int64) * 1999
    assert rows(centers, counts) == [f"{c:.17g},{int(n)}" for c, n in zip(centers, counts)]
    assert rows(np.array([]), np.array([])) == []

    # the same text from the kernel that formats tables of 512 values and
    # more: ties, powers of ten and their neighbours, subnormals, signed
    # zeros and non-finite values, in every column position
    edges = _awkward_doubles()
    for shift in range(3):
        table = _kernel_table(np.roll(edges, shift))
        assert rows(table) == _oracle(table)
    # int64 count columns, alone and beside floats
    centers = np.linspace(-5.0, 5.0, 701)
    counts = np.arange(701, dtype=np.int64) * 1999 - 2 ** 62
    assert rows(centers, counts) == _oracle(centers, counts)
    assert rows(counts) == _oracle(counts)
    # one row, one column, and either side of the kernel's size threshold
    line = _kernel_table(edges, ncols=1).ravel()
    assert rows(line[None, :]) == _oracle(line[None, :])
    assert rows(line) == _oracle(line)
    for n in (511, 512):
        assert rows(line[:n]) == _oracle(line[:n])
    # a non-contiguous slice of a table
    wide = _kernel_table(edges * 0.37, ncols=9)
    assert rows(wide[::2, 1::3]) == _oracle(wide[::2, 1::3])
    # a table with no columns gives empty lines, as the format spec does
    assert rows(np.empty((3, 0))) == ["", "", ""]


def _file_bytes(path, items):
    # what atomic_write puts in a file for these lines and tables
    atomic_write(path, items)
    with open(path, "rb") as fh:
        return fh.read()


def _oracle_bytes(*columns):
    return "".join(line + "\n" for line in _oracle(*columns)).encode("ascii")


@pytest.mark.parametrize("ncols", [1, 3, 45])
def test_table_blocks_straddle_the_block_size(tmp_path, ncols):
    # tables a row short of one block, of exactly one, a row over and two
    # blocks and a row, with the awkward doubles spread through every block
    step = _VALUES_PER_BLOCK // ncols
    values = np.resize(_awkward_doubles() * 0.73, (2 * step + 1) * ncols)
    for nrows in (step - 1, step, step + 1, 2 * step + 1):
        table = values[:nrows * ncols].reshape(nrows, ncols)
        assert len(list(blocks(table))) == -(-nrows // step)
        assert _file_bytes(tmp_path / "t.csv", [blocks(table)]) == _oracle_bytes(table)
        assert rows(table) == _oracle(table)


def test_table_one_column_either_side_of_the_kernel(tmp_path):
    # a one-column table takes the kernel from 512 values on
    line = _kernel_table(_awkward_doubles(), ncols=1).ravel()
    for n in (511, 512, line.size):
        assert _file_bytes(tmp_path / "t.csv", [blocks(line[:n])]) == _oracle_bytes(line[:n])


def test_table_fallback_values_inside_a_block(tmp_path):
    # ties at 2^-25, subnormals, nan, +-inf and -0.0 take Python's format in
    # the middle of a block of ordinary values, and the lines around them
    # keep their places
    awkward = np.array([2.0 ** -25, -3 * 2.0 ** -25, 5e-324, -5e-324,
                        2.2250738585072009e-308, float("nan"), float("inf"),
                        -float("inf"), -0.0, 0.0])
    table = np.linspace(-1.0, 2.0, 3 * 1200).reshape(1200, 3) * np.pi
    table[600:600 + awkward.size, 1] = awkward
    table[700, :] = awkward[5:8]
    assert _file_bytes(tmp_path / "t.csv", [blocks(table)]) == _oracle_bytes(table)
    assert rows(table) == _oracle(table)


def _spy_blocks(monkeypatch):
    # the (values, suffix words) of each block the kernel formats
    block, calls = _g17._block, []

    def spy(x, tail, suffixes):
        calls.append((x.size, suffixes.shape[1]))
        return block(x, tail, suffixes)

    monkeypatch.setattr(_g17, "_block", spy)
    return calls


# the columns a pruned fig5 trajectory holds at +0.0: F'=3 and F'=5
_PRUNED_ZEROS = list(range(17, 24)) + list(range(33, 44))


def _table_with_zeros(nrows, ncols, zeros):
    table = np.resize(_awkward_doubles() * 0.73, (nrows, ncols))
    table[:, zeros] = 0.0
    return table


@pytest.mark.parametrize("ncols, zeros", [
    (9, [0, 1, 2]),           # first, column 0 among them
    (9, [4]),                 # inside
    (45, _PRUNED_ZEROS),      # in runs
    (9, [7, 8]),              # last
    (9, list(range(1, 9))),   # in every column but the first
], ids=["first", "inside", "runs", "last", "all-but-first"])
def test_all_zero_columns_skip_the_kernel(tmp_path, monkeypatch, ncols, zeros):
    # a column of +0.0 in every row writes its 0s from the suffix of the
    # value before it; column 0 always goes through the kernel
    table = _table_with_zeros(700, ncols, zeros)
    calls = _spy_blocks(monkeypatch)
    assert _file_bytes(tmp_path / "t.csv", [blocks(table)]) == _oracle_bytes(table)
    kept = ncols - len(set(zeros) - {0})
    assert sum(size for size, _ in calls) == 700 * kept
    assert rows(table) == _oracle(table)


@pytest.mark.parametrize("row", [0, -1], ids=["first-row", "last-row"])
@pytest.mark.parametrize("value", [-0.0, float("nan"), 5e-324], ids=["-0.0", "nan", "5e-324"])
def test_zero_columns_with_another_value_stay_in_the_kernel(tmp_path, monkeypatch, row, value):
    # a +0.0 column holding one -0.0, NaN or subnormal is formatted value by
    # value, and so is a column of -0.0
    table = _table_with_zeros(700, 9, [2, 3, 4])
    table[row, 3] = value
    table[:, 5] = -0.0
    calls = _spy_blocks(monkeypatch)
    assert _file_bytes(tmp_path / "t.csv", [blocks(table)]) == _oracle_bytes(table)
    assert sum(size for size, _ in calls) == 700 * 7
    assert rows(table) == _oracle(table)


@pytest.mark.parametrize("ncols, zeros", [(3, [1]), (45, _PRUNED_ZEROS)], ids=["3", "45"])
def test_skipped_columns_straddle_the_block_size(tmp_path, monkeypatch, ncols, zeros):
    # blocks are sized in bytes: a row short of one block, exactly one, a
    # row over and two blocks and a row, each block's slots within the bound
    calls = _spy_blocks(monkeypatch)
    kept = ncols - len(zeros)
    next(blocks(_table_with_zeros(_VALUES_PER_BLOCK, ncols, zeros)))  # a full first block
    step = calls[0][0] // kept
    for nrows in (step - 1, step, step + 1, 2 * step + 1):
        table = _table_with_zeros(nrows, ncols, zeros)
        calls.clear()
        assert len(list(blocks(table))) == -(-nrows // step)
        assert [size for size, _ in calls] == [
            min(step, nrows - start) * kept for start in range(0, nrows, step)]
        for size, words in calls:
            assert size * (_g17._ROWS + 8 * words) <= _g17._BLOCK_BYTES
        assert _file_bytes(tmp_path / "t.csv", [blocks(table)]) == _oracle_bytes(table)
        assert rows(table) == _oracle(table)


def test_table_between_header_and_trailer_lines(tmp_path):
    # the layout of a spectrum with its fit: a header line, the table, then
    # `# key=value` lines; and an empty table under a header
    x = np.linspace(-2000.0, 2000.0, 4001)
    y = np.exp(-(x / 700.0) ** 2) / 3.0
    trailer = header({"center_hz": 0.1 + 0.2, "converged": True})
    got = _file_bytes(tmp_path / "s.csv", ["detuning_hz,signal", blocks(x, y)] + trailer)
    assert got == b"detuning_hz,signal\n" + _oracle_bytes(x, y) + (
        "# center_hz=0.30000000000000004\n# converged=true\n").encode()
    empty = np.empty(0)
    assert _file_bytes(tmp_path / "e.csv", ["a,b", blocks(empty, empty), "end"]) == b"a,b\nend\n"


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st_h.lists(st_h.floats(), min_size=1, max_size=40),
       st_h.lists(st_h.integers(0, 2 ** 64 - 1), min_size=1, max_size=40))
def test_rows_match_format_spec_on_any_double(floats, patterns):
    # any double, from hypothesis's floats and from raw 64-bit patterns,
    # through the kernel
    bits = np.array(patterns, dtype=np.uint64).view(np.float64)
    table = _kernel_table(np.concatenate([np.array(floats), bits]), ncols=4)
    assert rows(table) == _oracle(table)


def _write_both(writer, module):
    # a writer that also writes `path`.reference, its table through the
    # reference rows
    def write(obj, path, *args, **kwargs):
        writer(obj, path, *args, **kwargs)
        tables = []

        def reference(*columns):
            tables.append(np.column_stack(columns).shape)
            return ["".join(line + "\n" for line in _reference_rows(*columns)).encode("ascii")]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(module, "blocks", reference)
            writer(obj, path + ".reference", *args, **kwargs)
        assert len(tables) == 1 and tables[0][0] > 1000
    return write


@pytest.mark.parametrize("t_end", ["0.005", "0.05"])
@pytest.mark.parametrize("flags", [[], ["--prune"]], ids=["full", "prune"])
def test_trajectory_bytes_match_reference_rows(tmp_path, monkeypatch, t_end, flags):
    from pumpsim import cli, kinetics

    with open(os.path.join(SCENARIOS, "fig5_dynamics.ini")) as fh:
        body = fh.read().replace("t_end_s = 0.005", f"t_end_s = {t_end}")
    cfg = write_config(tmp_path, body)
    monkeypatch.setattr(cli, "write_trajectory_csv",
                        _write_both(kinetics.write_trajectory_csv, kinetics))
    assert main(["pump", "--config", cfg, "--out", str(tmp_path), *flags]) == 0
    written = (tmp_path / "trajectory.csv").read_bytes()
    assert written.count(b"\n") == 1202
    assert written == (tmp_path / "trajectory.csv.reference").read_bytes()


@pytest.mark.parametrize("scenario", ["fig3_polarized", "fig4_velocimetry"])
def test_spectrum_bytes_match_reference_rows(tmp_path, monkeypatch, scenario):
    from pumpsim import cli, raman

    monkeypatch.setattr(cli, "write_spectrum_csv",
                        _write_both(raman.write_spectrum_csv, raman))
    cfg = os.path.join(SCENARIOS, scenario + ".ini")
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 0
    written = (tmp_path / "spectrum.csv").read_bytes()
    assert written == (tmp_path / "spectrum.csv.reference").read_bytes()


def test_header_matches_format_spec():
    # the text each writer used to spell out: floats (numpy too) as
    # f"{x:.17g}", integers as is, booleans in lower case, None as none
    for x in (0.1, 0.1 + 0.2, 1e-300, 5e-324, -0.0, 1e16 + 2, 7.0):
        assert header({"x": x, "y": np.float64(x)}) == [f"# x={x:.17g}", f"# y={x:.17g}"]
    assert header({"n": 100000, "seed": np.int64(12345)}) == ["# n=100000", "# seed=12345"]
    assert header({"a": True, "b": False, "c": np.bool_(True), "d": np.bool_(False)}) == [
        "# a=true", "# b=false", "# c=true", "# d=false"]
    assert header({"tau_50_s": None}) == ["# tau_50_s=none"]
    assert header({}) == []
