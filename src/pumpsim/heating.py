"""Photon-recoil heating of the polarization process.

The kinetics gives the expected number of fluorescence cycles needed to
reach the dark state; a seeded Monte Carlo then walks each atom's velocity
along the Raman detection axis, the only axis the velocimetry reads. By
Archimedes' hat-box theorem an isotropic emission recoil projects uniformly
on [-1, 1]; the absorption recoil along the back-reflected pump, orthogonal
to the detection axis as in the paper, projects to 0. Everything is in
units of the recoil velocity.

The walk's kicks come from one counter-based Philox stream, in which any
draw can be reached from its index. The atoms are walked in contiguous
parts at once, one per CPU: the calling thread walks the first and a
thread pool the rest, each part on its own Philox positioned at its draws.
The velocities have the bits of one sequential walk.
"""

import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .kinetics import (
    LIBRARY_DT,
    Trajectory,
    assemble_rate_matrix,
    first_crossing,
    integrate_rk4,
    prune,
    single_sublevel,
    uniform_f4,
)
from .output import atomic_write, header, rows
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


def expected_cycles(
    beams,
    t_end: float = 0.02,
    threshold: float = 0.95,
    pruned: bool = False,
) -> CycleReport:
    """Run the rate model from every single F=4 sublevel and from the uniform
    F=4 start; report the expected photons scattered by the time the
    polarized fraction reaches `threshold` (photons at t_end when it never
    does), on the pruned matrix when `pruned`. The ten starts run as two
    column blocks of five, and each block's run stops once all its starts
    have reached `threshold`: a block with a start that never does runs the
    whole window to t_end."""
    if not 0 < threshold < 1:
        raise ValueError("threshold must lie in (0, 1)")
    matrix = assemble_rate_matrix(beams)
    if pruned:
        matrix, _ = prune(matrix)
    starts = np.column_stack(
        [single_sublevel(Sublevel("g", 4, m)) for m in range(-4, 5)] + [uniform_f4()]
    )
    photons, hits = [], []
    # not one block of ten: the stacked products of ten columns round
    # differently from those of five, which would move every count's bits
    for block in (starts[:, :5], starts[:, 5:]):
        traj = integrate_rk4(matrix, block, LIBRARY_DT, t_end, max_samples=4001,
                             until=threshold)
        for j in range(block.shape[1]):
            column = Trajectory(
                traj.times, traj.populations[:, :, j], traj.scattered_photons[:, j]
            )
            fraction = column.sublevel_fraction(Sublevel("g", 4, 0))
            hit = first_crossing(column, fraction, threshold)
            photons.append(hit[1] if hit else float(column.scattered_photons[-1]))
            hits.append(hit is not None)
        del traj, column  # free this block's samples before the next block's
    return CycleReport(
        per_sublevel=dict(zip(range(-4, 5), photons)),
        reached=dict(zip(range(-4, 5), hits)),
        average=float(np.mean(photons[:9])),
        uniform=photons[9],
        uniform_reached=hits[9],
        threshold=threshold,
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


def _seek(bit_generator, state: dict, draws: int) -> None:
    """Put the Philox `bit_generator` where one that starts at `state` stands
    after `draws` more raw draws, buffer included. Philox block c holds the
    raw draws 4c..4c+3 and the state's counter names the block its buffer
    holds, so this computes one block instead of drawing `draws` values."""
    counter = sum(int(word) << (64 * i) for i, word in enumerate(state["state"]["counter"]))
    last = 4 * counter + state["buffer_pos"] + draws - 1   # index of the last draw
    block = (last // 4 - 1) % 2**256                       # the block before it
    bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.array([(block >> (64 * i)) & (2**64 - 1) for i in range(4)],
                                dtype=np.uint64),
            "key": state["state"]["key"],
        },
        "buffer": state["buffer"],
        "buffer_pos": 4,
        "has_uint32": state["has_uint32"],
        "uinteger": state["uinteger"],
    }
    bit_generator.random_raw(last % 4 + 1, output=False)


def _walk(counts: np.ndarray, rng) -> np.ndarray:
    """Velocities along the detection axis after per-sample cycle counts.

    Sample i's kick in cycle k is raw draw k * n + i of the Philox `rng`,
    uniform on [-1, 1), whatever the counts; kicks past a sample's count
    are zeroed. The samples are walked in contiguous parts, each on its own
    Philox positioned at its draws: parts 1.. on a thread pool while the
    calling thread walks part 0, so the bits do not depend on the number of
    parts. An exception in any part is raised once every part has ended;
    `rng` ends where one sequential walk leaves it."""
    n = counts.size
    velocity = np.zeros(n)
    cycles = int(counts.max())
    if cycles == 0:
        return velocity
    start = rng.bit_generator.state
    kick = np.empty(n)
    active = np.empty(n, dtype=bool)

    def walk_part(lo: int, hi: int) -> None:
        # in cycle k the part's kicks are the raw draws k * n + lo on from
        # `start`; it writes only into its own slices of the caller's buffers
        bit_generator = np.random.Philox(key=start["state"]["key"])
        draw = np.random.Generator(bit_generator).random
        part_counts, part_kick, part_active = counts[lo:hi], kick[lo:hi], active[lo:hi]
        part_velocity = velocity[lo:hi]
        for k in range(int(part_counts.max(initial=0))):
            _seek(bit_generator, start, k * n + lo)
            draw(out=part_kick)
            part_kick *= 2.0     # with the next line, the bits of uniform(-1, 1)
            part_kick += -1.0
            np.greater(part_counts, k, out=part_active)
            part_kick *= part_active
            part_velocity += part_kick

    parts = _parts(n)
    bounds = [n * j // parts for j in range(parts + 1)]
    with ThreadPoolExecutor(max(1, parts - 1)) as pool:
        pooled = [pool.submit(walk_part, lo, hi) for lo, hi in zip(bounds[1:], bounds[2:])]
        walk_part(0, bounds[1])
        for future in pooled:
            future.result()
    _seek(rng.bit_generator, start, cycles * n)
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
    atom. Reproducible for a fixed seed."""
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
    """
    rng = _rng(seed, samples)
    report = expected_cycles(beams, pruned=pruned)
    ms = rng.integers(-4, 5, size=samples)
    expected = np.array([report.per_sublevel[m] for m in range(-4, 5)])[ms + 4]
    base = np.floor(expected)
    counts = (base + (rng.random(samples) < (expected - base))).astype(np.int64)
    projected = _walk(counts, rng)
    result = _summarize(projected, counts.mean(), samples, seed)
    delta = result.delta_vrms
    return HeatingSummary(
        cycle_report=report,
        result=result,
        initial_vrms=initial_vrms,
        final_vrms_quadrature=float(np.sqrt(initial_vrms**2 + delta**2)),
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
    atomic_write(path, lines + rows(centers, counts))
