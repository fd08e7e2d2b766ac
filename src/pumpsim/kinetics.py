"""Rate-equation kinetics of the optical-pumping cycle.

A set of laser beams (polarizer + repumper) couples the 16 ground sublevels
to the 27 excited sublevels through stimulated rates proportional to the
spontaneous branching ratios; spontaneous emission feeds the ground
manifolds back. The stimulated terms form one record array of dtype `TERM`;
each term's rate is its rate at unit polarization weight times the weight of
its q, so pruning filters that array with one mask and `with_depolarization`
rewrites the rate field of a copy. The linear system dN/dt = R N is
integrated with fixed-step classical Runge-Kutta. Because the system is
linear and autonomous, one RK4 step is exactly the 4th-order Taylor
polynomial of exp(dt R); the integrator stacks the powers B, B^2, ..., B^32
of the step matrix's block B between output samples, so one matrix product
fills 32 samples, bit-deterministic at any BLAS thread count. Each power's
population columns are reset to sum to exactly 1, which conserves population
at any run length. One start or a block of starts as columns fills one
array. A one-column start runs on the sublevels it reaches through the
matrix, padded until their count plus the photon row is a multiple of 4 (as
44 is), and reads +0.0 on the others; a block runs on all 43. Given the
times a caller reads, the integrator computes only the samples that bracket
them, each from its chunk's start with the bits the full run gives it; given
a level of the polarized fraction, a full run stops after the first chunk
that ends with every column at or above it. A run's layout (its output grid
and, given times, the rows it computes and returns and the power and chunk
start that fill each) depends only on dt, t_end, max_samples and those
times, so it is computed once and shared, read-only, by every run with the
same four: all the candidates of one fit.

Every command's matrix comes from `rate_matrix`; `states --prune` calls
`prune` on its own, for its count of active sublevels.
"""

import logging
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import constants as cst
from .output import atomic_write, blocks
from .structure import (
    N_STATES,
    STATES,
    EXCITED_INDICES,
    GROUND_INDICES,
    Sublevel,
    branching_table,
    state_index,
)

log = logging.getLogger(__name__)

# largest tolerated dt * max|R| for the fixed-step integrator
STABILITY_LIMIT = 0.1

# integration step of the library's own runs (cycle counts, fits): 0.01/Gamma
LIBRARY_DT = 0.01 / cst.GAMMA

# relative line overlap below which `prune` drops a stimulated term
PRUNE_THRESHOLD = 1e-3

STACKED_POWERS = 32  # output samples that one matrix product fills


def polarization_weights(depolarization: float) -> tuple[float, float, float]:
    """Intensity fractions (sigma-, pi, sigma+) of a nominally pi-polarized
    beam whose amplitude carries a relative contamination `depolarization`
    on each circular component.

    `depolarization` is an amplitude ratio: a contamination given as the
    intensity `p` of each circular component relative to the pi component
    enters as `sqrt(p)`."""
    if not 0.0 <= depolarization < math.inf:
        raise ValueError(f"depolarization: must be finite and nonnegative, got {depolarization}")
    a2 = depolarization * depolarization
    # a2 may overflow to inf, where the second form gives the limit 0.5
    s = a2 / (1.0 + 2.0 * a2) if a2 <= 1.0 else 1.0 / (1.0 / a2 + 2.0)
    return (s, 1.0 / (1.0 + 2.0 * a2), s)


@dataclass(frozen=True)
class Beam:
    """One light field driving a ground -> excited hyperfine transition.

    intensity_ratio is I/I_sat, detuning is in units of the natural
    linewidth, depolarization is the amplitude ratio of each circular
    component to the pi component (see `polarization_weights`), linewidth
    is the laser linewidth in rad/s.
    """

    ground_f: int
    excited_f: int
    intensity_ratio: float
    detuning: float = 0.0
    depolarization: float = 0.0
    linewidth: float = cst.LASER_LINEWIDTH

    def __post_init__(self):
        _check_transition(self.ground_f, self.excited_f)
        if not 0.0 <= self.intensity_ratio < math.inf:
            raise ValueError("intensity_ratio: must be finite and nonnegative, "
                             f"got {self.intensity_ratio}")
        if not abs(self.detuning) <= cst.MAX_DETUNING:
            raise ValueError(f"detuning: must not pass the optical frequency, got {self.detuning}")
        if not 0.0 < self.linewidth <= 2.0 * math.pi * cst.OPTICAL_FREQUENCY:
            raise ValueError("laser linewidth must be positive and at most the optical frequency")
        polarization_weights(self.depolarization)


def _check_transition(ground_f: int, excited_f: int) -> None:
    if ground_f not in cst.GROUND_F:
        raise ValueError(f"ground_f: no ground hyperfine level F={ground_f}")
    if excited_f not in cst.EXCITED_F:
        raise ValueError(f"excited_f: no excited hyperfine level F'={excited_f}")
    if abs(excited_f - ground_f) > 1:
        raise ValueError(f"excited_f: {ground_f}->{excited_f}' is not dipole-allowed")


# `perfbench/probe.py` is the only caller of this alias
beam = Beam


def transition_overlap(excited_f: int, bm: Beam) -> float:
    """Relative probability that `bm` excites the line from its own ground
    level to excited_f, given its linewidth and its offset from that line."""
    _check_transition(bm.ground_f, excited_f)
    mu = bm.linewidth / cst.GAMMA
    # line offset from the laser frequency, in half-linewidths
    offset_hz = cst.excited_level_offset(excited_f) - cst.excited_level_offset(
        bm.excited_f
    )
    delta = 4.0 * np.pi * offset_hz / cst.GAMMA - 2.0 * bm.detuning
    if abs(delta) < 1e-9 and abs(mu - 1.0) < 1e-9:
        # removable 0/0 of the general form on resonance at mu = 1
        return mu / (mu + 1.0)
    num = delta * delta + (mu - 1.0) ** 2
    den = (delta * delta + mu * mu - 1.0) ** 2 + 4.0 * delta * delta
    return mu * (mu + 1.0) * num / den


# one stimulated term: ground and excited index, q = m' - m, rate at unit
# polarization weight, line overlap, rate
TERM = np.dtype([("ground", np.intp), ("excited", np.intp), ("q", np.intp),
                 ("unit", float), ("overlap", float), ("rate", float)])


@dataclass(frozen=True)
class RateMatrix:
    """Generator of the population rate equations, dN/dt = matrix @ N.

    Off-diagonal entries are nonnegative transfer rates; each column sums to
    zero, so total population is conserved. The matrix is built from `terms`,
    its record array of stimulated terms (dtype `TERM`), kept alongside so
    weak transitions can be pruned and the contamination changed afterwards.
    It keeps its last run's power stack, keyed by dt, layout and the states
    the run integrated, so `matrix` must not change once it is integrated
    (`_from_terms` makes it read-only). `_reach` keeps the states its last
    one-column start reached; `with_depolarization` shares it, since the
    contamination changes rates, not couplings.
    """

    matrix: np.ndarray
    terms: np.ndarray = field(repr=False)
    _reach: dict = field(default_factory=dict, repr=False, compare=False)
    _kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def max_rate(self) -> float:
        return float(np.max(np.abs(self.matrix)))


@lru_cache(maxsize=1)
def _spontaneous_part() -> np.ndarray:
    """Read-only: the spontaneous feeding of each ground sublevel by each
    excited one, the part of every rate matrix that no beam changes."""
    mat = np.zeros((N_STATES, N_STATES))
    block = np.ix_(GROUND_INDICES, EXCITED_INDICES)
    mat[block] = cst.GAMMA * branching_table().T[block]
    mat.setflags(write=False)
    return mat


def _from_terms(terms: np.ndarray, reach=None) -> RateMatrix:
    """Spontaneous part plus each stimulated term's rate in both directions;
    the diagonal carries the total outflow, making every column sum to zero."""
    mat = _spontaneous_part().copy()
    ground, excited, rate = terms["ground"], terms["excited"], terms["rate"]
    np.add.at(mat, (excited, ground), rate)
    np.add.at(mat, (ground, excited), rate)
    np.fill_diagonal(mat, -mat.sum(axis=0))
    mat.setflags(write=False)
    return RateMatrix(mat, terms, {} if reach is None else reach)


@lru_cache(maxsize=None)
def _channels(ground_f: int, excited_f: int) -> np.ndarray:
    """Read-only: each channel of the line ground_f -> excited_f' as its
    ground and excited index, q and branching ratio, in order of m, then q."""
    table = branching_table()
    rows = []
    for m in range(-ground_f, ground_f + 1):
        gi = state_index(Sublevel("g", ground_f, m))
        for q in (-1, 0, 1):
            if abs(m + q) <= excited_f:
                ei = state_index(Sublevel("e", excited_f, m + q))
                rows.append((gi, ei, q, table[ei, gi]))
    channels = np.array(rows, dtype=[("ground", np.intp), ("excited", np.intp),
                                     ("q", np.intp), ("branching", float)])
    channels.setflags(write=False)
    return channels


def assemble_rate_matrix(beams) -> RateMatrix:
    """Rate matrix for a set of beams, from each line's cached channel table:
    stimulated rates in both directions, spontaneous feeding of the ground
    manifolds, and excited-state decay. A channel with a positive rate at unit
    polarization weight is a term even where the beam's weight for its q is 0."""
    parts = [np.empty(0, dtype=TERM)]
    for bm in beams:
        weights = np.array(polarization_weights(bm.depolarization))
        for fe in cst.EXCITED_F:
            if abs(fe - bm.ground_f) > 1:
                continue
            overlap = transition_overlap(fe, bm)
            # rate (s^-1) per unit branching ratio and polarization weight
            base = 0.5 * cst.GAMMA * (cst.GAMMA / bm.linewidth) * bm.intensity_ratio * overlap
            if not base < math.inf:   # a tiny linewidth or a huge intensity overflows
                raise ValueError(f"the {bm.ground_f}->{fe}' rate of {bm} is not finite")
            channels = _channels(bm.ground_f, fe)
            unit = base * channels["branching"]
            live = unit > 0.0
            part = np.empty(np.count_nonzero(live), dtype=TERM)
            part[["ground", "excited", "q"]] = channels[["ground", "excited", "q"]][live]
            part["unit"], part["overlap"] = unit[live], overlap
            part["rate"] = part["unit"] * weights[part["q"] + 1]
            parts.append(part)
    return _from_terms(np.concatenate(parts))


def with_depolarization(rate_matrix: RateMatrix, depolarization: float) -> RateMatrix:
    """The same stimulated terms with every beam's contamination set to
    `depolarization`; the same matrix as assembling (and pruning) beams
    built with it, bit for bit. The input's terms are left as they were."""
    weights = np.asarray(polarization_weights(depolarization))
    terms = rate_matrix.terms.copy()
    terms["rate"] = terms["unit"] * weights[terms["q"] + 1]
    return _from_terms(terms, rate_matrix._reach)


def prune(
    rate_matrix: RateMatrix, threshold: float = PRUNE_THRESHOLD
) -> tuple[RateMatrix, int]:
    """Drop stimulated terms whose line overlap falls below threshold times
    the largest overlap; returns the pruned matrix and the number of
    sublevels that still take part in a stimulated coupling of positive
    rate."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must lie in (0, 1]")
    overlap = rate_matrix.terms["overlap"]
    pruned = _from_terms(rate_matrix.terms[overlap >= threshold * overlap.max(initial=0.0)])
    live = pruned.terms[pruned.terms["rate"] > 0.0]
    active = np.zeros(N_STATES, dtype=bool)
    active[live["ground"]] = active[live["excited"]] = True
    return pruned, int(np.count_nonzero(active))


def rate_matrix(beams, pruned: bool) -> RateMatrix:
    """The beams' assembled rate matrix, pruned at PRUNE_THRESHOLD when `pruned`."""
    matrix = assemble_rate_matrix(beams)
    return prune(matrix)[0] if pruned else matrix


_UNIFORM_F4 = np.zeros(N_STATES)
_UNIFORM_F4[[state_index(Sublevel("g", 4, m)) for m in range(-4, 5)]] = 1.0 / 9.0
_UNIFORM_F4.setflags(write=False)


def uniform_f4() -> np.ndarray:
    """Default initial condition: the F=4 ground level equally populated (a fresh array)."""
    return _UNIFORM_F4.copy()


def single_sublevel(level: Sublevel) -> np.ndarray:
    n0 = np.zeros(N_STATES)
    n0[state_index(level)] = 1.0
    return n0


@dataclass
class Trajectory:
    """Sampled populations of the 43 sublevels plus the running expectation
    of spontaneously scattered photons per atom. n_samples counts the
    returned rows: the whole output grid, or the rows that bracket the
    times `integrate_rk4` was given in `at`."""

    times: np.ndarray
    populations: np.ndarray       # shape (n_samples, 43[, k])
    scattered_photons: np.ndarray  # shape (n_samples[, k])

    def sublevel_fraction(self, level: Sublevel) -> np.ndarray:
        """Population of one sublevel as a fraction of all ground atoms."""
        ground = self.populations[:, GROUND_INDICES].sum(axis=1)
        return self.populations[:, state_index(level)] / ground


def _rk4_step_matrix(rates: np.ndarray, dt: float, states=None) -> np.ndarray:
    """One classical RK4 step of the augmented system on `states` (None: all) as a matrix.

    The last row integrates Gamma * sum(excited populations), i.e. the
    expected number of fluorescence photons, with the same quadrature.
    """
    gen = np.zeros((N_STATES + 1, N_STATES + 1))
    gen[:N_STATES, :N_STATES] = rates
    gen[N_STATES, EXCITED_INDICES] = cst.GAMMA
    if states is not None:
        gen = gen[np.ix_(*2 * [np.append(states, N_STATES)])]
    hr, eye = dt * gen, np.eye(len(gen))
    return eye + hr @ (eye + hr @ (eye / 2.0 + hr @ (eye / 6.0 + hr / 24.0)))


def _conserving(power: np.ndarray) -> np.ndarray:
    """Reset the population diagonal in place so each population column sums to 1."""
    n = len(power) - 1
    diagonal = power.reshape(-1)[:n * (n + 2):n + 2]
    diagonal.fill(0.0)
    np.subtract(1.0, np.add.reduce(power[:n, :n], axis=0), out=diagonal)
    return power


def _step_powers(step: np.ndarray, exponents) -> list[np.ndarray]:
    """step**n for each n of `exponents` (None for n = 0), none of them step
    itself, by the products of `np.linalg.matrix_power`: the squares step,
    step^2, step^4, ... multiplied in from the lowest set bit, and its own
    (step @ step) @ step for n = 3; one run of squarings serves every n."""
    squares, powers = [step], []
    for n in exponents:
        power = None
        for bit in range(n.bit_length()):
            if bit == len(squares):
                squares.append(squares[-1] @ squares[-1])
            if n >> bit & 1 and n != 3:
                power = squares[bit] if power is None else power @ squares[bit]
        powers.append(step.copy() if n == 1 else squares[1] @ step if n == 3 else power)
    return powers


def stationary_state(rate_matrix: RateMatrix) -> np.ndarray:
    """Kernel of R normalized to sum 1, from one least-squares solve of R
    bordered by a row of ones: the long-time limit of `integrate_rk4` when
    the kernel is one-dimensional."""
    bordered = np.vstack([rate_matrix.matrix, np.ones(N_STATES)])
    kernel = np.linalg.lstsq(bordered, np.append(np.zeros(N_STATES), 1.0), rcond=None)[0]
    return kernel / kernel.sum()


class _Layout(NamedTuple):
    """Where a run's rows go, the same for every run with its (dt, t_end,
    max_samples, at); every array is read-only."""

    times: np.ndarray      # the output grid
    stride: int            # steps per sample
    n_blocks: int          # whole strides
    remainder: int         # steps of the last, shorter sample (0: none)
    chunk: int             # stacked powers
    computed: int          # rows a run computes
    rows: object           # returned rows of `times`: slice(None) or indices
    keep: object           # returned rows of the computed ones
    products: tuple        # (power j, start slot, row slot) of each `at` row product


@lru_cache(maxsize=8)
def _layout(dt, t_end, max_samples, at) -> _Layout:
    """The layout of a run; `at` is None or the float64 bytes of its times.
    Grid row r + 1 of an `at` run is power j = r % chunk times its chunk's
    start, row r - j."""
    steps = np.ceil(t_end / dt - 1e-9)
    if not steps < 2**53:  # past 2**53, float step counts and times skip steps
        raise ValueError(f"t_end = {t_end:g} s at dt = {dt:g} s takes {steps:g} steps; "
                         "it must take fewer than 2**53")
    n_steps = max(1, int(steps))
    stride = max(1, -(-n_steps // max(1, max_samples - 1)))  # ceil division
    n_blocks = n_steps // stride
    remainder = n_steps - n_blocks * stride
    times = dt * (stride * np.arange(n_blocks + 1))
    if remainder:
        times = np.append(times, dt * n_steps)
    times.setflags(write=False)
    chunk = min(STACKED_POWERS, n_blocks)
    if at is None:
        return _Layout(times, stride, n_blocks, remainder, chunk, len(times),
                       slice(None), slice(None), ())
    hi = np.clip(np.searchsorted(times, np.frombuffer(at), side="right"), 1, len(times) - 1)
    mask = np.zeros(len(times), dtype=bool)
    mask[0] = mask[hi - 1] = mask[hi] = True
    rows = np.flatnonzero(mask)
    mask[:n_blocks:chunk] = mask[n_blocks:] = True  # chunk starts and the last rows
    grid = np.flatnonzero(mask)
    keep = np.searchsorted(grid, rows)
    r = grid[1:np.searchsorted(grid, n_blocks) + 1] - 1
    starts = np.searchsorted(grid, r - r % chunk)
    products = tuple(zip((r % chunk).tolist(), starts.tolist(), range(1, len(r) + 1)))
    rows.setflags(write=False)
    keep.setflags(write=False)
    return _Layout(times, stride, n_blocks, remainder, chunk, len(grid), rows, keep, products)


def _reached(tail: np.ndarray, level: float) -> bool:
    """Whether the g,F=4,m=0 fraction of the last of two computed rows `tail`
    reaches `level` in every column, with the bits a reader of the returned
    rows gets: clipped as the run clips them and through
    `Trajectory.sublevel_fraction`. Two rows, because numpy sums the ground
    populations of a lone one-column row in another order."""
    populations = np.where(tail[:, :N_STATES] < 0, 0.0, tail[:, :N_STATES])
    fraction = Trajectory(None, populations, None).sublevel_fraction(Sublevel("g", 4, 0))
    return bool(np.all(fraction[-1] >= level))


def _states(rate_matrix: RateMatrix, support: np.ndarray):
    """The sublevels, sorted, that a start with nonzero entries `support`
    reaches through the matrix's nonzeros and its terms' couplings (at any
    contamination), padded with the lowest others to 4k - 1 of them, as 43
    is, so the stacked and per-row products round alike; None for all 43."""
    key, memo = support.tobytes(), rate_matrix._reach
    if key not in memo:
        links, terms = rate_matrix.matrix != 0, rate_matrix.terms
        links[terms["ground"], terms["excited"]] = links[terms["excited"], terms["ground"]] = True
        reached = support.copy()
        while not np.array_equal(grown := reached | links[:, reached].any(axis=1), reached):
            reached = grown
        reached[np.flatnonzero(~reached)[:-(np.count_nonzero(reached) + 1) % 4]] = True
        memo.clear()
        memo[key] = None if reached.all() else np.flatnonzero(reached)
    return memo[key]


def _on_all_states(rows: np.ndarray, states) -> np.ndarray:
    """The populations of `rows` on all 43 sublevels: +0.0 off `states`."""
    if states is None:
        return rows[:, :N_STATES]
    populations = np.zeros((len(rows), N_STATES) + rows.shape[2:])
    populations[:, states] = rows[:, :-1]
    return populations


def _stack(rate_matrix: RateMatrix, dt: float, layout: _Layout, states):
    """The read-only powers B, ..., B^chunk of the `stride`-step block B on
    `states`, the `remainder`-step power (None for none), reset as
    `_conserving` resets them, and each power's bound `dot`, kept on
    `rate_matrix` for its last (dt, stride, remainder, chunk, states)."""
    chunk, kept = layout.chunk, rate_matrix._kept
    key = (dt, layout.stride, layout.remainder, chunk,
           None if states is None else states.tobytes())
    stack = kept.get(key)
    if stack is None:
        block, last = _step_powers(_rk4_step_matrix(rate_matrix.matrix, dt, states), key[1:3])
        # powers[j] = B^(j+1), each reset through views made once and one
        # sums buffer: the column sums of the population rows, whose first
        # n are the sums `_conserving` takes (in the same order)
        n = len(block) - 1
        powers = np.empty((chunk, n + 1, n + 1))
        views = list(powers)
        diagonals = list(powers.reshape(chunk, -1)[:, :n * (n + 2):n + 2])
        sums = np.empty(n + 1)
        population_sums = sums[:n]
        powers[0] = _conserving(block)
        for previous, power, population_rows, diagonal in zip(
                views, views[1:], list(powers[1:, :n]), diagonals[1:]):
            previous.dot(views[0], power)
            diagonal.fill(0.0)
            np.add.reduce(population_rows, axis=0, out=sums)
            np.subtract(1.0, population_sums, out=diagonal)
        if last is not None:
            _conserving(last).setflags(write=False)
        powers.setflags(write=False)
        kept.clear()
        kept[key] = stack = powers, last, [power.dot for power in powers]
    return stack


def integrate_rk4(
    rate_matrix: RateMatrix,
    n0: np.ndarray,
    dt: float,
    t_end: float,
    max_samples: int = 1201,
    *,
    at=None,
    until=None,
) -> Trajectory:
    """Fixed-step classical RK4 evolution of dN/dt = R N.

    `n0` is one start of shape (43,) or a block of k starts of shape (43, k),
    each column a distribution; the trajectory then carries a trailing axis
    of k. dt must satisfy dt * max|R| <= 0.1. Output is sampled on a uniform
    stride (at most max_samples points) plus the final step; one matrix
    product of the stacked powers B, ..., B^32 fills a chunk of 32 samples.
    A one-column start runs on the sublevels it reaches (`_states`), padded
    so the full and the `at` products round alike, and returns +0.0 on the
    rest. A block runs on all 43, where the reduction was measured slower.

    With a sequence of times `at`, the run computes only row 0, the two grid
    samples that bracket each time (clamped at the ends), each chunk's start
    and the last grid sample, and returns row 0 and the bracketing samples:
    the rows `np.interp` reads at `at`, with the same bits as the full run,
    on the same grid. n_samples then counts the returned rows.

    With a level `until`, the run stops after the first chunk whose last row
    has a g,F=4,m=0 fraction (of the ground atoms, clipped, as
    `Trajectory.sublevel_fraction` reads it) of at least `until` in every
    column, and returns the rows up to that one: every column's first
    crossing of `until` lies among them, with the bits of the full run. A run
    that never gets there goes on to t_end. `at` and `until` exclude each
    other.

    It computes the products and reductions of `np.linalg.matrix_power`, a
    `.sum(axis=0)` reset and one `np.matmul` per row, in their order and with
    their bits, through fewer numpy calls: shared squarings, views made once.
    The layout (grid, computed and returned rows, and the power and chunk
    start of each `at` row) comes from a cache of the last 8 distinct
    (dt, t_end, max_samples, at), and the power stack from `rate_matrix`
    when its last run had the same dt, layout and states (the second block
    of cycle counts); the returned arrays are fresh every call.

    The negative-population check and clip cover every computed row; rows
    never computed are not checked.
    """
    if at is not None and until is not None:
        raise ValueError("integrate_rk4 takes `at` or `until`, not both")
    n0 = np.asarray(n0, dtype=float)
    if n0.shape[:1] != (N_STATES,) or n0.ndim > 2 or n0.size == 0:
        raise ValueError(f"initial populations must have shape ({N_STATES},) "
                         f"or ({N_STATES}, k)")
    if not np.all(n0 >= 0):
        raise ValueError("initial populations must be nonnegative")
    if not np.all(np.abs(n0.sum(axis=0) - 1.0) <= 1e-9):
        raise ValueError("initial populations must sum to one")
    if not (0.0 < dt < math.inf and 0.0 < t_end < math.inf):
        raise ValueError("dt and t_end must be finite and positive")
    if dt * rate_matrix.max_rate > STABILITY_LIMIT * (1 + 1e-12):
        raise ValueError(
            f"dt*max|R| = {dt * rate_matrix.max_rate:.3g} exceeds the stability limit "
            f"{STABILITY_LIMIT}; reduce dt"
        )

    layout = _layout(dt, t_end, max_samples,
                     None if at is None else np.asarray(at, dtype=float).tobytes())
    states = _states(rate_matrix, n0.reshape(-1) != 0) if n0.size == N_STATES else None
    n = N_STATES if states is None else len(states)
    n_blocks, chunk = layout.n_blocks, layout.chunk
    powers, last, dots = _stack(rate_matrix, dt, layout, states)

    # data[s] holds the s-th computed row; its row n counts photons.
    # Every row is written before it is read, so rows a stopped run never
    # computes are never touched.
    data = np.empty((layout.computed, n + 1) + n0.shape[1:])
    data[0, :n] = n0 if states is None else n0[states]
    data[0, n] = 0.0
    if at is None:
        for i in range(0, n_blocks, chunk):
            k = min(chunk, n_blocks - i)
            out = data[i + 1:i + 1 + k].reshape((k * (n + 1),) + n0.shape[1:])
            np.matmul(powers[:k].reshape(-1, n + 1), data[i], out=out)
            if until is not None and _reached(
                    _on_all_states(data[i + k - 1:i + k + 1], states), until):
                # the computed prefix, with no remainder row
                data, last = data[:i + k + 1], None
                break
        times = layout.times[:len(data)].copy()
    else:
        samples = list(data)
        for j, c, s in layout.products:
            dots[j](samples[c], samples[s])
        times = layout.times[layout.rows]
    if last is not None:
        np.matmul(last, data[-2], out=data[-1])

    populations = data[:, :n]
    negative = populations < 0
    if negative.any():
        worst = populations[negative].min()
        if worst < -1e-12:
            raise RuntimeError(
                f"integration produced population {worst:.3e}; "
                "the step size is too coarse for this rate matrix"
            )
        log.debug("clipped %d slightly negative populations (min %.3e)",
                  int(negative.sum()), worst)
        populations[negative] = 0.0
    return Trajectory(times, _on_all_states(data, states)[layout.keep], data[layout.keep, n])


@dataclass
class PumpMetrics:
    """Polarized fraction versus time and the 50% pumping milestone."""

    times: np.ndarray
    m0_fraction: np.ndarray
    tau_50: float | None
    photons_to_tau50: float | None


def first_crossing(
    trajectory: Trajectory, fraction: np.ndarray, level: float
) -> tuple[float, float] | None:
    """First time the sampled `fraction` reaches `level` (linear
    interpolation between samples) and the expected photons scattered up to
    that time; None when it never does."""
    if np.ndim(fraction) != 1 or np.ndim(trajectory.scattered_photons) != 1:
        raise ValueError("a crossing needs a one-column trajectory, not a (43, k) block")
    hit = np.nonzero(fraction >= level)[0]
    if hit.size == 0:
        return None
    k = int(hit[0])
    times = trajectory.times
    if k == 0:
        t_cross = float(times[0])
    else:
        f0, f1 = fraction[k - 1], fraction[k]
        t_cross = float(times[k - 1] + (level - f0) / (f1 - f0) * (times[k] - times[k - 1]))
    return t_cross, float(np.interp(t_cross, times, trajectory.scattered_photons))


def pump_metrics(trajectory: Trajectory) -> PumpMetrics:
    """Fraction of ground-state atoms in g,F=4,m=0 over time, the first time
    that fraction reaches 0.5 (linear interpolation), and the expected
    photons scattered up to that time. tau_50 is None when never reached."""
    if trajectory.times.size == 0:
        raise ValueError("trajectory is empty")
    frac = trajectory.sublevel_fraction(Sublevel("g", 4, 0))
    tau_50, photons = first_crossing(trajectory, frac, 0.5) or (None, None)
    return PumpMetrics(trajectory.times, frac, tau_50, photons)


def write_trajectory_csv(trajectory: Trajectory, path) -> None:
    """Trajectory export: time, the 43 populations in canonical order, and
    the cumulative scattered photons, at full double precision."""
    header = (
        "time_s,"
        + ",".join("n_" + lv.label() for lv in STATES)
        + ",scattered_photons"
    )
    atomic_write(path, [header, blocks(trajectory.times, trajectory.populations,
                                       trajectory.scattered_photons)])
