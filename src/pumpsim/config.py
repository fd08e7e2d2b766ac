"""Scenario configuration files.

INI-style key=value sections describe a complete run: the beams, the Raman
pulse, the magnetic field, the velocity distribution, integration controls,
Monte Carlo controls, and the output directory. Unknown sections or keys
are rejected by name, and every physical value is range-checked here so the
command line can fail before any work starts.
"""

import configparser
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from . import constants as cst
from .kinetics import Beam

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


class _Key(NamedTuple):
    parse: Callable[[str], object]
    minimum: float | None = None
    maximum: float | None = None
    strict_min: bool = False


# Every accepted (section, key). A scenario key sets the ScenarioConfig field
# of the same name; "beams.*" stands for every [beams.<name>] section.
_KEYS = {
    ("constants", "laser_linewidth_hz"): _Key(_FLOAT, 0.0, strict_min=True),
    ("pulse", "tau_s"): _Key(_FLOAT, 0.0, strict_min=True),
    ("pulse", "geometry"): _Key(_geometry),
    ("field", "bias_gauss"): _Key(_FLOAT),
    ("field", "rms_fluct_gauss"): _Key(_FLOAT, 0.0),
    ("velocity", "sigma_vr"): _Key(_FLOAT, 0.0),
    ("integration", "dt_gamma"): _Key(_FLOAT, 0.0, 0.1, strict_min=True),
    ("integration", "t_end_s"): _Key(_FLOAT, 0.0, strict_min=True),
    ("mc", "samples"): _Key(_INT, 2),
    ("mc", "seed"): _Key(_INT, 0),
    ("output", "directory"): _Key(str.strip),
    ("beams.*", "target"): _Key(_target),
    ("beams.*", "intensity_ratio"): _Key(_FLOAT, 0.0),
    ("beams.*", "detuning_gamma"): _Key(_FLOAT),
    ("beams.*", "alpha"): _Key(_FLOAT, 0.0),
}
_SECTIONS = {section for section, _ in _KEYS}


def _value(section: str, table: str, key: str, raw: str):
    rule = _KEYS[(table, key)]
    try:
        value = rule.parse(raw)
        if rule.minimum is not None and (
            value < rule.minimum or (rule.strict_min and value == rule.minimum)
        ):
            bound = "greater than" if rule.strict_min else "at least"
            raise ValueError(f"must be {bound} {rule.minimum}, got {value}")
        if rule.maximum is not None and value > rule.maximum:
            raise ValueError(f"must be at most {rule.maximum}, got {value}")
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from None
    return value


@dataclass
class ScenarioConfig:
    beams: list[Beam] = field(default_factory=list)
    laser_linewidth_hz: float = 1.0e6
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

    linewidth = 2.0 * 3.141592653589793 * cfg.laser_linewidth_hz
    for section, values in beam_specs:
        try:
            cfg.beams.append(Beam(
                *values["target"],
                values["intensity_ratio"],
                values.get("detuning_gamma", 0.0),
                values.get("alpha", 0.0),
                linewidth,
            ))
        except ValueError as exc:
            raise ConfigError(f"[{section}] target: {exc}") from None
    return cfg
