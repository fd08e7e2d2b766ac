"""Photon-recoil heating of the polarization process.

The kinetics gives the expected number of fluorescence cycles needed to
reach the dark state; a seeded Monte Carlo then walks each atom's velocity
along the Raman detection axis, the only axis the velocimetry reads. By
Archimedes' hat-box theorem an isotropic emission recoil projects uniformly
on [-1, 1]; the absorption recoil along the back-reflected pump, orthogonal
to the detection axis as in the paper, projects to 0. Everything is in
units of the recoil velocity.

The walk's kicks come two to a draw from one counter-based Philox stream,
in which any draw can be reached from its index, and only atoms still
walking take one. The atoms, ordered by count, are walked in contiguous
parts at once, one per CPU, each part's draws on a Philox made at their
block counter. The velocities have the bits of one sequential walk, and
the caller's generator is not moved. A heat run's one thread pool draws the
atoms' sublevels while the cycle counts integrate, then walks the parts.
"""

import math
import operator
import os
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .kinetics import (
    LIBRARY_DT,
    Trajectory,
    first_crossing,
    integrate_rk4,
    rate_matrix,
    single_sublevel,
    uniform_f4,
)
from .output import atomic_write, blocks, header
from .structure import Sublevel


@dataclass
class CycleReport:
    """Expected fluorescence cycles until the sample is pumped dark."""

    per_sublevel: dict[int, float]   # keyed by the initial m of g,F=4
    reached: dict[int, bool]
    average: float                   # mean over the nine initial sublevels
    uniform: float                   # from the equally-populated F=4 start
    uniform_reached: bool
    threshold: float
    t_end: float


# polarized fraction at which a sample counts as pumped dark
PUMP_THRESHOLD = 0.95


def expected_cycles(beams, t_end: float = 0.02, pruned: bool = False) -> CycleReport:
    """Run the rate model from every single F=4 sublevel and from the uniform
    F=4 start; report the expected photons scattered by the time the
    polarized fraction reaches PUMP_THRESHOLD (photons at t_end when it
    never does), on the pruned matrix when `pruned`. The ten starts run as
    two column blocks of five, and each block's run stops once all its
    starts have reached the threshold: a block with a start that never does
    runs the whole window to t_end."""
    matrix = rate_matrix(beams, pruned)
    starts = np.column_stack(
        [single_sublevel(Sublevel("g", 4, m)) for m in range(-4, 5)] + [uniform_f4()]
    )
    photons, hits = [], []
    # two blocks of five for memory: each 4001-row store (7 MB, 14 MB for ten
    # columns) is freed before the next block, which reuses the first's powers
    for block in (starts[:, :5], starts[:, 5:]):
        traj = integrate_rk4(matrix, block, LIBRARY_DT, t_end, max_samples=4001,
                             until=PUMP_THRESHOLD)
        for j in range(block.shape[1]):
            column = Trajectory(
                traj.times, traj.populations[:, :, j], traj.scattered_photons[:, j]
            )
            fraction = column.sublevel_fraction(Sublevel("g", 4, 0))
            hit = first_crossing(column, fraction, PUMP_THRESHOLD)
            photons.append(hit[1] if hit else float(column.scattered_photons[-1]))
            hits.append(hit is not None)
        del traj, column  # free this block's samples before the next block's
    return CycleReport(
        per_sublevel=dict(zip(range(-4, 5), photons)),
        reached=dict(zip(range(-4, 5), hits)),
        average=float(np.mean(photons[:9])),
        uniform=photons[9],
        uniform_reached=hits[9],
        threshold=PUMP_THRESHOLD,
        t_end=t_end,
    )


@dataclass
class HeatingResult:
    """Monte Carlo recoil-walk outcome along the detection axis."""

    mean_cycles: float
    delta_vrms: float        # recoil velocities
    standard_error: float    # of delta_vrms, recoil velocities
    samples: int
    seed: int
    projected: np.ndarray    # per-sample velocity projection, recoil velocities


def _count(name: str, value) -> int:
    """`value` as an int; Python and numpy integers pass, a float such as
    1e5 does not."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _rng(seed: int, samples: int) -> "np.random.Generator":
    """The seeded stream of a walk over `samples` atoms; the standard error
    of its rms needs at least two."""
    if _count("samples", samples) < 2:
        raise ValueError("need at least two samples")
    return np.random.Generator(np.random.Philox(seed))


# below this many samples a part's pooled task costs more than it saves
_MIN_PART = 16_384


def _parts(samples: int) -> int:
    """Number of contiguous parts a walk over `samples` atoms is split into:
    one per CPU this process may use, each of at least _MIN_PART samples."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, samples // _MIN_PART))


def _philox_at(key, draw: int) -> "np.random.Philox":
    """A Philox with `key` whose next raw draw is draw `draw` of its stream.
    Block c holds the draws 4c..4c+3, and the counter names the block
    before the first one the generator computes."""
    bit_generator = np.random.Philox(key=key, counter=(draw // 4 - 1) % 2**256)
    bit_generator.random_raw(draw % 4, output=False)
    return bit_generator


def _walk(counts: np.ndarray, rng, pool=None) -> np.ndarray:
    """Velocities along the detection axis after per-sample cycle counts.

    The samples are ordered by decreasing count, then index; the walking[k]
    samples that walk cycle k lead that order, and the one at position p takes
    kick 2 f + drawn[k] + p, f being the index of rng's next raw draw and
    drawn[k] the kicks of the cycles before k. Kick j is the low (j even) or
    high (j odd) 32-bit half u of Philox raw draw j // 2, in next_uint32's
    order, and moves the sample by (2u + 1) 2**-32 - 1: a midpoint lattice on
    (-1, 1), mean 0. The order is walked in parts of about equal kicks, each
    cycle of a part on a Philox made at its block counter, parts 1.. on `pool`
    (one of its own when handed none) while the calling thread walks part 0,
    so the bits do not depend on the number of parts. An error in any part
    reaches the caller once the pool has closed, after every part has ended.
    `rng` is read, and left as is."""
    if pool is None:
        with ThreadPoolExecutor(max(1, _parts(counts.size) - 1)) as pool:
            return _walk(counts, rng, pool)
    n = counts.size
    state = rng.bit_generator.state
    key = state["state"]["key"]
    counter = sum(int(word) << (64 * i) for i, word in enumerate(state["state"]["counter"]))
    first = 2 * (4 * counter + state["buffer_pos"])   # 2 f, the walk's first kick
    top = int(counts.max(initial=0))
    # a stable radix sort of the count's complement in the smallest unsigned type
    order = np.argsort((top - counts).astype(np.min_scalar_type(top)), kind="stable")
    walking = (n - np.cumsum(np.bincount(counts, minlength=top)[:top])).tolist()
    drawn = np.cumsum([0, *walking]).tolist()
    v = np.zeros(n)

    def walk_part(lo: int, hi: int) -> None:
        # in cycle k the part's walking samples take the kicks j = first +
        # drawn[k] + lo on; it writes only into its own slice of v
        buffer = np.empty(hi - lo)
        for k, still in enumerate(walking):
            if min(hi, still) <= lo:
                break
            kick, j = buffer[:min(hi, still) - lo], first + drawn[k] + lo
            raw = _philox_at(key, j // 2).random_raw((j % 2 + kick.size + 1) // 2)
            np.multiply(raw.astype("<u8", copy=False).view("<u4")[j % 2:j % 2 + kick.size],
                        2.0**-31, out=kick)
            kick += 2.0**-32 - 1.0   # exact in float64: (2u + 1) 2**-32 - 1
            v[lo:lo + kick.size] += kick

    parts = _parts(n)

    def drawn_by(p: int) -> int:
        # every kick of the first p samples, times the part count
        return parts * sum(min(p, still) for still in walking)

    # part j ends after the most samples whose kicks fit in j / parts of all
    bounds = [0, *(bisect_right(range(n + 1), drawn[-1] * j, key=drawn_by) - 1
                   for j in range(1, parts)), n]
    pooled = [pool.submit(walk_part, lo, hi) for lo, hi in zip(bounds[1:], bounds[2:])]
    walk_part(0, bounds[1])
    for future in pooled:
        future.result()
    velocity = np.empty(n)
    velocity[order] = v
    return velocity


def _summarize(projected: np.ndarray, mean_cycles, samples, seed) -> HeatingResult:
    sq = projected**2
    mean_sq = float(sq.mean())
    rms = float(np.sqrt(mean_sq))
    if rms > 0:
        se = float(np.std(sq, ddof=1) / np.sqrt(sq.size) / (2.0 * rms))
    else:
        se = 0.0
    return HeatingResult(float(mean_cycles), rms, se, samples, seed, projected)


def recoil_walk(cycles: int, samples: int = 100_000, seed: int = 12345) -> HeatingResult:
    """Random recoil walk with a fixed number of fluorescence cycles per
    atom, on a thread pool of its own. Reproducible for a fixed seed."""
    cycles = _count("cycles", cycles)
    if cycles < 0:
        raise ValueError("cycle count must be nonnegative")
    rng = _rng(seed, samples)
    projected = _walk(np.full(samples, cycles), rng)
    return _summarize(projected, cycles, samples, seed)


@dataclass
class HeatingSummary:
    cycle_report: CycleReport
    result: HeatingResult
    initial_vrms: float
    final_vrms_quadrature: float
    final_vrms_additive: float


def heating_summary(
    beams,
    initial_vrms: float = 4.0,
    samples: int = 100_000,
    seed: int = 12345,
    pruned: bool = True,
) -> HeatingSummary:
    """Compose the kinetics cycle counts with the recoil Monte Carlo.

    Each sample starts in a random F=4 sublevel; its cycle count is that
    sublevel's expected count, rounded stochastically so the ensemble mean
    is preserved. Reports the rms velocity increase along the detection
    axis and the quadrature/additive compositions with the initial spread.
    One thread pool draws the sublevels and roundings (the same calls in the
    same order, so the same bits) while the cycle counts integrate on the
    calling thread, then walks the parts; no thread outlives the call.
    """
    rng = _rng(seed, samples)
    with ThreadPoolExecutor(max(1, _parts(samples) - 1)) as pool:
        rounding = np.empty(samples)   # made on the worker, it raised peak memory about 1 MB
        draws = pool.submit(lambda: (rng.integers(-4, 5, size=samples), rng.random(out=rounding)))
        report = expected_cycles(beams, pruned=pruned)
        ms, rounding = draws.result()
        expected = np.array([report.per_sublevel[m] for m in range(-4, 5)])[ms + 4]
        base = np.floor(expected)
        counts = (base + (rounding < (expected - base))).astype(np.int64)
        del draws, rounding   # the future holds them too: free them before the walk
        projected = _walk(counts, rng, pool)
    result = _summarize(projected, counts.mean(), samples, seed)
    delta = result.delta_vrms
    return HeatingSummary(
        cycle_report=report,
        result=result,
        initial_vrms=initial_vrms,
        final_vrms_quadrature=math.hypot(initial_vrms, delta),
        final_vrms_additive=float(initial_vrms + delta),
    )


def write_heating_summary(summary: HeatingSummary, path) -> None:
    """Key=value block plus a 51-bin histogram of the projected velocities."""
    result, report = summary.result, summary.cycle_report
    lines = header({
        "mean_cycles": result.mean_cycles,
        "cycles_uniform_start": report.uniform,
        "cycles_sublevel_average": report.average,
        "pump_threshold": report.threshold,
        "delta_vrms_vr": result.delta_vrms,
        "delta_vrms_standard_error_vr": result.standard_error,
        "initial_vrms_vr": summary.initial_vrms,
        "final_vrms_quadrature_vr": summary.final_vrms_quadrature,
        "final_vrms_additive_vr": summary.final_vrms_additive,
        "samples": result.samples,
        "seed": result.seed,
    }) + ["v_over_vr,count"]
    span = 5.0 * max(result.delta_vrms, 1e-9)
    counts, edges = np.histogram(result.projected, bins=51, range=(-span, span))
    centers = 0.5 * (edges[:-1] + edges[1:])
    atomic_write(path, lines + [blocks(centers, counts)])
