"""Scenario configuration files.

INI-style key=value sections describe a complete run: the beams, the Raman
pulse, the magnetic field, the velocity distribution, integration controls,
Monte Carlo controls, and the output directory. Unknown sections or keys
are rejected by name; each value is checked at load, by the type that holds
it where load_config builds one, so a command fails before any work starts.
"""

import configparser
import math
from dataclasses import dataclass, field

from . import constants as cst
from .kinetics import Beam
from .raman import RamanPulse, VelocityDistribution

GEOMETRIES = ("copropagating", "counterpropagating")


class ConfigError(ValueError):
    """Raised for unknown keys or out-of-range values in a scenario file."""


def _number(kind, noun):
    def parse(raw):
        try:
            value = kind(raw)
        except ValueError:
            raise ValueError(f"{raw!r} is not {noun}") from None
        if kind is float and not math.isfinite(value):
            raise ValueError(f"{raw!r} is not finite")
        return value
    return parse


def _geometry(raw):
    value = raw.strip().lower()
    if value not in GEOMETRIES:
        raise ValueError(f"must be {' or '.join(map(repr, GEOMETRIES))}, got {raw!r}")
    return value


def _target(raw):
    text = raw.replace(" ", "")
    for sep in ("->", ">"):
        if sep in text:
            lo, _, hi = text.partition(sep)
            try:
                return int(lo), int(hi)
            except ValueError:
                break
    raise ValueError(f"expected something like '4->4', got {raw!r}")


_FLOAT = _number(float, "a number")
_INT = _number(int, "an integer")


def _range(minimum, maximum=math.inf, strict_min=False):
    def check(value):
        if value < minimum or (strict_min and value == minimum):
            bound = "greater than" if strict_min else "at least"
            raise ValueError(f"must be {bound} {minimum}, got {value}")
        if value > maximum:
            raise ValueError(f"must be at most {maximum}, got {value}")
    return check


# Every accepted (section, key): (parse, check). A scenario key sets the
# ScenarioConfig field of the same name; "beams.*" stands for every
# [beams.<name>] section. The check is the type that holds the value, or None
# where the Beam that load_config builds checks it. A key with a _range is
# checked again where its value is used: laser_linewidth_hz in Beam (a scenario
# with no beams builds none), and rms_fluct_gauss, samples, seed, t_end_s and
# dt_gamma in synth_copropagating, heating._rng, cmd_heat and integrate_rk4.
_KEYS = {
    ("constants", "laser_linewidth_hz"): (_FLOAT, _range(0.0, cst.OPTICAL_FREQUENCY,
                                                         strict_min=True)),
    ("pulse", "tau_s"): (_FLOAT, RamanPulse),
    ("pulse", "geometry"): (_geometry, None),
    ("field", "bias_gauss"): (_FLOAT, None),
    ("field", "rms_fluct_gauss"): (_FLOAT, _range(0.0)),
    ("velocity", "sigma_vr"): (_FLOAT, VelocityDistribution),
    ("integration", "dt_gamma"): (_FLOAT, _range(0.0, 0.1, strict_min=True)),
    ("integration", "t_end_s"): (_FLOAT, _range(0.0, strict_min=True)),
    ("mc", "samples"): (_INT, _range(2, 10**7)),
    ("mc", "seed"): (_INT, _range(0)),
    ("output", "directory"): (str.strip, None),
    ("beams.*", "target"): (_target, None),
    ("beams.*", "intensity_ratio"): (_FLOAT, None),
    ("beams.*", "detuning_gamma"): (_FLOAT, None),
    ("beams.*", "alpha"): (_FLOAT, None),
}
_SECTIONS = {section for section, _ in _KEYS}


def _value(section: str, table: str, key: str, raw: str):
    parse, check = _KEYS[(table, key)]
    try:
        value = parse(raw)
        if check is not None:
            check(value)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from None
    return value


@dataclass
class ScenarioConfig:
    beams: list[Beam] = field(default_factory=list)
    laser_linewidth_hz: float = cst.LASER_LINEWIDTH_HZ
    tau_s: float = 0.007
    geometry: str = "copropagating"
    bias_gauss: float = 0.1
    rms_fluct_gauss: float = 0.0
    sigma_vr: float = 4.0
    dt_gamma: float = 0.01
    t_end_s: float = 0.005
    samples: int = 100_000
    seed: int = 12345
    directory: str = "out"

    @property
    def dt_seconds(self) -> float:
        return self.dt_gamma / cst.GAMMA


def load_config(path) -> ScenarioConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")

    cfg = ScenarioConfig()
    beam_specs: list[tuple[str, dict]] = []
    for section in parser.sections():
        table = "beams.*" if section.startswith("beams.") else section
        if table not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        items = dict(parser.items(section))
        unknown = sorted(key for key in items if (table, key) not in _KEYS)
        if unknown:
            raise ConfigError(f"[{section}] unknown key {unknown[0]!r}")
        values = {key: _value(section, table, key, raw) for key, raw in items.items()}
        if table == "beams.*":
            if "target" not in values or "intensity_ratio" not in values:
                raise ConfigError(f"[{section}] needs 'target' and 'intensity_ratio'")
            beam_specs.append((section, values))
        else:
            for key, value in values.items():
                setattr(cfg, key, value)
    if cfg.rms_fluct_gauss and cfg.geometry == "counterpropagating":
        raise ConfigError("[field] rms_fluct_gauss: counterpropagating spectra take no "
                          f"field spread, got {cfg.rms_fluct_gauss}")

    for section, values in beam_specs:
        try:
            cfg.beams.append(Beam(*values["target"], values["intensity_ratio"],
                                  values.get("detuning_gamma", 0.0), values.get("alpha", 0.0),
                                  2.0 * math.pi * cfg.laser_linewidth_hz))
        except ValueError as exc:
            raise ConfigError(f"[{section}] {exc}") from None
    return cfg
