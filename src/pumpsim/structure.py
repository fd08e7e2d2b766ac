"""Cesium D2 sublevel bookkeeping.

Enumerates the 43 hyperfine Zeeman sublevels (ground F=3,4 and excited
F'=3,4,5), computes the spontaneous-emission branching ratios from squared
3j*6j angular-momentum factors, and places the sigma+/sigma+ Raman lines in
a bias magnetic field.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import constants as cst
from .output import atomic_write, rows
from .wigner import wigner_3j, wigner_6j


@dataclass(frozen=True, order=True)
class Sublevel:
    """One hyperfine Zeeman sublevel: manifold tag, F, and m_F."""

    s: str  # 'g' = 6S1/2 ground, 'e' = 6P3/2 excited
    f: int
    m: int

    def __post_init__(self):
        if self.s not in ("g", "e"):
            raise ValueError(f"manifold tag must be 'g' or 'e', got {self.s!r}")
        allowed = cst.GROUND_F if self.s == "g" else cst.EXCITED_F
        if self.f not in allowed:
            raise ValueError(f"no hyperfine level F={self.f} in manifold {self.s!r}")
        if abs(self.m) > self.f:
            raise ValueError(f"|m|={abs(self.m)} exceeds F={self.f}")

    @property
    def is_ground(self) -> bool:
        return self.s == "g"

    def label(self) -> str:
        return f"{self.s}{self.f}_m{self.m}"


def parse_label(text: str) -> Sublevel:
    """Inverse of Sublevel.label, e.g. 'g4_m0' or 'e5_m-3'."""
    try:
        head, mpart = text.strip().split("_m")
        return Sublevel(head[0], int(head[1:]), int(mpart))
    except (ValueError, IndexError) as exc:
        raise ValueError(f"cannot parse sublevel label {text!r}") from exc


def _build_states() -> tuple[Sublevel, ...]:
    states = []
    for f in cst.GROUND_F:
        states.extend(Sublevel("g", f, m) for m in range(-f, f + 1))
    for f in cst.EXCITED_F:
        states.extend(Sublevel("e", f, m) for m in range(-f, f + 1))
    return tuple(states)


# canonical ordering used by every vector and matrix in the package
STATES: tuple[Sublevel, ...] = _build_states()
N_STATES = len(STATES)  # 43
_INDEX = {level: i for i, level in enumerate(STATES)}
GROUND_INDICES = np.array([i for i, lv in enumerate(STATES) if lv.is_ground])
EXCITED_INDICES = np.array([i for i, lv in enumerate(STATES) if not lv.is_ground])


def state_index(level: Sublevel) -> int:
    try:
        return _INDEX[level]
    except KeyError:
        raise ValueError(f"{level} is not in the enumerated state space") from None


@lru_cache(maxsize=None)
def _line_6j(excited_f: int, ground_f: int) -> float:
    """The 6j factor that every sublevel pair of one hyperfine line shares."""
    return wigner_6j(cst.J_GROUND, cst.J_EXCITED, 1, excited_f, ground_f, cst.NUCLEAR_SPIN)


def _coupling_strength(excited: Sublevel, ground: Sublevel) -> float:
    """Unnormalized squared dipole coupling between an excited and a ground
    sublevel; zero outside the |dF|<=1, |dm|<=1 selection rules."""
    q = ground.m - excited.m   # spherical component closing m' + q - m = 0
    if abs(q) > 1 or abs(excited.f - ground.f) > 1:
        return 0.0
    w6 = _line_6j(excited.f, ground.f)
    w3 = wigner_3j(excited.f, 1, ground.f, excited.m, q, -ground.m)
    return (2 * ground.f + 1) * (2 * excited.f + 1) * (w6 * w6) * (w3 * w3)


@lru_cache(maxsize=1)
def branching_table() -> np.ndarray:
    """(43, 43) array a[e, g]: probability that excited sublevel e decays to
    ground sublevel g. Rows of excited sublevels sum to one."""
    table = np.zeros((N_STATES, N_STATES))
    for ei in EXCITED_INDICES:
        for gi in GROUND_INDICES:
            table[ei, gi] = _coupling_strength(STATES[ei], STATES[gi])
        total = table[ei].sum()
        table[ei] /= total
    table.setflags(write=False)
    return table


def branching_ratio(frm: Sublevel, to: Sublevel) -> float:
    """Spontaneous branching ratio a(excited -> ground)."""
    if frm.is_ground or not to.is_ground:
        raise ValueError("branching ratio runs from an excited to a ground sublevel")
    return float(branching_table()[state_index(frm), state_index(to)])


def write_branching_csv(path) -> None:
    """Dump the branching table: one row per excited sublevel, one column per
    ground sublevel."""
    table = branching_table()
    ground = [STATES[i] for i in GROUND_INDICES]
    lines = ["excited," + ",".join(lv.label() for lv in ground)]
    values = rows(table[np.ix_(EXCITED_INDICES, GROUND_INDICES)])
    lines += [f"{STATES[ei].label()},{row}" for ei, row in zip(EXCITED_INDICES, values)]
    atomic_write(path, lines)


def raman_line_offset(m: int, bias_gauss: float) -> float:
    """First-order Zeeman position, in Hz, of the sigma+/sigma+ Raman line
    connecting g,F=3,m <-> g,F=4,m in a bias field of bias_gauss. The m=0
    line sits at zero for any field."""
    if abs(m) > 3:
        raise ValueError(f"no F=3 partner for m={m}; |m| must be <= 3")
    if not np.isfinite(bias_gauss):
        raise ValueError(f"bias_gauss must be finite, got {bias_gauss!r}")
    field_tesla = bias_gauss * 1e-4
    return m * (cst.G_F4 - cst.G_F3) * cst.BOHR_MAGNETON * field_tesla / cst.PLANCK


def clock_line_shift(bias_gauss: float) -> float:
    """Second-order Zeeman shift, in Hz, of the m=0 line that
    `raman_line_offset` leaves out: nu_hfs x^2 / 2 of the Breit-Rabi formula,
    x = g_J mu_B B / (h nu_hfs), with g_J = 2."""
    x = 2.0 * cst.BOHR_MAGNETON * bias_gauss * 1e-4 / (cst.PLANCK * cst.HYPERFINE_HZ)
    return cst.HYPERFINE_HZ * x * x / 2.0
