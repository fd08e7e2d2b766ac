"""Every input ends in a documented exit code: a seeded sweep of the CLI
over edited scenario values."""

import configparser
import contextlib
import io
import os
import re
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pumpsim.cli import main

SCENARIOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "scenarios")
NAMES = sorted(name[:-4] for name in os.listdir(SCENARIOS) if name.endswith(".ini"))
# every numeric key a scenario may set; "beams" edits every [beams.*] section
KEYS = [("constants", "laser_linewidth_hz"), ("pulse", "tau_s"), ("field", "bias_gauss"),
        ("field", "rms_fluct_gauss"), ("velocity", "sigma_vr"), ("integration", "dt_gamma"),
        ("integration", "t_end_s"), ("mc", "samples"), ("mc", "seed"),
        ("beams", "intensity_ratio"), ("beams", "detuning_gamma"), ("beams", "alpha")]
EDGES = ["0", "-0.0", "5e-324", "1e-300", "1e-9", "1e9", "1e300", "-1e-9"]
VALUES = st.one_of(st.sampled_from(EDGES),
                   st.floats(allow_nan=False, allow_infinity=False).map(repr))
OBSERVATIONS = "# observable = g4_m0\n" + "".join(
    f"{t * 1e-4:.4f},{0.84 * (1 - 0.93 ** t):.6f}\n" for t in range(1, 25))
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def edited(scenario, edits, path):
    """Write `scenario` to `path` with each (section, key): value of `edits` set."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(os.path.join(SCENARIOS, f"{scenario}.ini"), encoding="utf-8")
    for (section, key), value in edits.items():
        sections = ([s for s in parser.sections() if s.startswith("beams.")]
                    if section == "beams" else [section])
        for name in sections:
            if not parser.has_section(name):
                parser.add_section(name)
            parser.set(name, key, value)
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(scenario=st.sampled_from(NAMES),
       command=st.sampled_from(["pump", "spectrum", "heat", "fit"]),
       prune=st.booleans(),
       edits=st.dictionaries(st.sampled_from(KEYS), VALUES, max_size=3))
# the two crashes a hand sweep found, each once a traceback and exit 1
@example(scenario="fig5_dynamics", command="pump", prune=False,
         edits={("constants", "laser_linewidth_hz"): "1e300"})
@example(scenario="heating_paper", command="heat", prune=False,
         edits={("velocity", "sigma_vr"): "1e300"})
# and what longer runs of this sweep found: a traceback and exit 1, then
# two all-NaN outputs with exit 0
@example(scenario="fig3_polarized", command="pump", prune=False,
         edits={("beams", "detuning_gamma"): "5.78960446186581e+76"})
@example(scenario="fig5_dynamics", command="spectrum", prune=False,
         edits={("pulse", "tau_s"): "5e-324"})
@example(scenario="fig3_polarized", command="pump", prune=False,
         edits={("beams", "alpha"): "0", ("constants", "laser_linewidth_hz"): "1e-300"})
# an overflowed Rabi phase: NaN spectrum rows with exit 0
@example(scenario="fig3_polarized", command="spectrum", prune=False,
         edits={("pulse", "tau_s"): "1e300", ("field", "bias_gauss"): "1e3",
                ("field", "rms_fluct_gauss"): "0"})
@example(scenario="fig3_polarized", command="spectrum", prune=False,
         edits={("pulse", "tau_s"): "1e100", ("field", "bias_gauss"): "0.1",
                ("field", "rms_fluct_gauss"): "0"})
def test_every_input_ends_in_a_documented_exit_code(scenario, command, prune, edits):
    # no exception escapes main; the exit code is 0, 2, 3 or 4; an exit-0
    # run prints and writes only finite numbers; exits 2 and 3 write no
    # file, and no exit leaves a partial one (exits 4 of spectrum and fit
    # keep their complete report)
    with tempfile.TemporaryDirectory() as tmp:
        config, out, data = (os.path.join(tmp, name) for name in ("s.ini", "out", "obs.csv"))
        edited(scenario, edits, config)
        with open(data, "w", encoding="utf-8") as fh:
            fh.write(OBSERVATIONS)
        argv = [command, "--config", config, "--out", out]
        argv += [data] if command == "fit" else ["--prune"] * prune
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 2, 3, 4)
        files = sorted(os.listdir(out)) if os.path.isdir(out) else []
        assert not [name for name in files if name.startswith(".pumpsim-")]
        if code in (2, 3):
            assert files == []
        if code == 0:
            assert files
            assert not NON_FINITE.search(stdout.getvalue())
            for name in files:
                with open(os.path.join(out, name), encoding="utf-8") as fh:
                    assert not NON_FINITE.search(fh.read()), name
