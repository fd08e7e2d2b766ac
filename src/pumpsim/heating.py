"""Photon-recoil heating of the polarization process.

The kinetics gives the expected number of fluorescence cycles needed to
reach the dark state; a seeded Monte Carlo then accumulates one absorption
recoil (random sign along the back-reflected pump axis) and one isotropic
emission recoil per cycle and projects the final velocity on the Raman
detection axis. Everything is in units of the recoil velocity.
"""

from dataclasses import dataclass

import numpy as np

from .kinetics import (
    LIBRARY_DT,
    PRUNE_THRESHOLD,
    assemble_rate_matrix,
    first_crossing,
    integrate_rk4,
    prune,
    single_sublevel,
    uniform_f4,
)
from .output import atomic_write
from .structure import Sublevel


@dataclass(frozen=True)
class RecoilGeometry:
    """Beam axes for the recoil walk; both must be unit vectors."""

    pb_axis: tuple[float, float, float]
    detection_axis: tuple[float, float, float]
    backreflected: bool = True

    def __post_init__(self):
        for name, axis in (("pb_axis", self.pb_axis), ("detection_axis", self.detection_axis)):
            norm = float(np.linalg.norm(axis))
            if abs(norm - 1.0) > 1e-12:
                raise ValueError(f"{name} must be unit length, |v| = {norm}")


def default_geometry() -> RecoilGeometry:
    """Detection (Raman) axis horizontal along the bias field; pump axis
    orthogonal to it, at 45 degrees to the horizontal, back-reflected."""
    s = 1.0 / np.sqrt(2.0)
    return RecoilGeometry((0.0, s, s), (1.0, 0.0, 0.0), True)


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


def _photons_at_threshold(matrix, n0, t_end, threshold):
    traj = integrate_rk4(matrix, n0, LIBRARY_DT, t_end, max_samples=4001)
    hit = first_crossing(traj, traj.sublevel_fraction(Sublevel("g", 4, 0)), threshold)
    if hit is None:
        return float(traj.scattered_photons[-1]), False
    return hit[1], True


def expected_cycles(
    beams,
    t_end: float = 0.02,
    threshold: float = 0.95,
    prune_threshold: float | None = None,
) -> CycleReport:
    """Run the rate model from every single F=4 sublevel and from the uniform
    F=4 start; report the expected photons scattered by the time the
    polarized fraction reaches `threshold` (photons at t_end when it never
    does)."""
    if not 0 < threshold < 1:
        raise ValueError("threshold must lie in (0, 1)")
    matrix = assemble_rate_matrix(beams)
    if prune_threshold is not None:
        matrix, _ = prune(matrix, prune_threshold)
    per = {}
    reached = {}
    for m in range(-4, 5):
        cycles, ok = _photons_at_threshold(
            matrix, single_sublevel(Sublevel("g", 4, m)), t_end, threshold
        )
        per[m] = cycles
        reached[m] = ok
    uniform, uniform_ok = _photons_at_threshold(matrix, uniform_f4(), t_end, threshold)
    return CycleReport(
        per_sublevel=per,
        reached=reached,
        average=float(np.mean(list(per.values()))),
        uniform=uniform,
        uniform_reached=uniform_ok,
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


def _rng(seed: int, samples: int) -> np.random.Generator:
    """The seeded stream of a walk over `samples` atoms; the standard error
    of its rms needs at least two."""
    if samples < 2:
        raise ValueError("need at least two samples")
    return np.random.Generator(np.random.Philox(seed))


def _walk(counts: np.ndarray, geometry: RecoilGeometry, rng, include_absorption=True):
    """Accumulate recoils for per-sample cycle counts; the draw pattern is
    fixed per cycle so results do not depend on the count distribution."""
    samples = counts.size
    pb = np.asarray(geometry.pb_axis)
    det = np.asarray(geometry.detection_axis)
    velocity = np.zeros((samples, 3))
    for k in range(int(counts.max())):
        active = counts > k
        if include_absorption:
            if geometry.backreflected:
                sign = rng.integers(0, 2, size=samples) * 2.0 - 1.0
            else:
                sign = np.ones(samples)
            velocity += np.where(active, sign, 0.0)[:, None] * pb
        cos_theta = rng.uniform(-1.0, 1.0, size=samples)
        phi = rng.uniform(0.0, 2.0 * np.pi, size=samples)
        sin_theta = np.sqrt(1.0 - cos_theta**2)
        emission = np.stack(
            [sin_theta * np.cos(phi), sin_theta * np.sin(phi), cos_theta], axis=1
        )
        velocity += np.where(active, 1.0, 0.0)[:, None] * emission
    return velocity @ det


def _summarize(projected: np.ndarray, mean_cycles, samples, seed) -> HeatingResult:
    sq = projected**2
    mean_sq = float(sq.mean())
    rms = float(np.sqrt(mean_sq))
    if rms > 0:
        se = float(np.std(sq, ddof=1) / np.sqrt(sq.size) / (2.0 * rms))
    else:
        se = 0.0
    return HeatingResult(float(mean_cycles), rms, se, samples, seed, projected)


def recoil_walk(
    cycles: int,
    geometry: RecoilGeometry,
    samples: int = 100_000,
    seed: int = 12345,
    include_absorption: bool = True,
) -> HeatingResult:
    """Random recoil walk with a fixed number of fluorescence cycles per
    atom; reproducible for a fixed seed."""
    if cycles < 0:
        raise ValueError("cycle count must be nonnegative")
    rng = _rng(seed, samples)
    counts = np.full(samples, int(cycles))
    projected = _walk(counts, geometry, rng, include_absorption)
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
    geometry: RecoilGeometry | None = None,
    initial_vrms: float = 4.0,
    samples: int = 100_000,
    seed: int = 12345,
    prune_threshold: float | None = PRUNE_THRESHOLD,
) -> HeatingSummary:
    """Compose the kinetics cycle counts with the recoil Monte Carlo.

    Each sample starts in a random F=4 sublevel; its cycle count is that
    sublevel's expected count, rounded stochastically so the ensemble mean
    is preserved. Reports the rms velocity increase along the detection
    axis and the quadrature/additive compositions with the initial spread.
    """
    rng = _rng(seed, samples)
    if geometry is None:
        geometry = default_geometry()
    report = expected_cycles(beams, prune_threshold=prune_threshold)
    ms = rng.integers(-4, 5, size=samples)
    expected = np.array([report.per_sublevel[m] for m in range(-4, 5)])[ms + 4]
    base = np.floor(expected)
    counts = (base + (rng.random(samples) < (expected - base))).astype(np.int64)
    projected = _walk(counts, geometry, rng)
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
    result = summary.result
    lines = [
        f"# mean_cycles={result.mean_cycles:.17g}",
        f"# cycles_uniform_start={summary.cycle_report.uniform:.17g}",
        f"# cycles_sublevel_average={summary.cycle_report.average:.17g}",
        f"# pump_threshold={summary.cycle_report.threshold:.17g}",
        f"# delta_vrms_vr={result.delta_vrms:.17g}",
        f"# delta_vrms_standard_error_vr={result.standard_error:.17g}",
        f"# initial_vrms_vr={summary.initial_vrms:.17g}",
        f"# final_vrms_quadrature_vr={summary.final_vrms_quadrature:.17g}",
        f"# final_vrms_additive_vr={summary.final_vrms_additive:.17g}",
        f"# samples={result.samples}",
        f"# seed={result.seed}",
        "v_over_vr,count",
    ]
    span = 5.0 * max(result.delta_vrms, 1e-9)
    counts, edges = np.histogram(result.projected, bins=51, range=(-span, span))
    centers = 0.5 * (edges[:-1] + edges[1:])
    for c, n in zip(centers, counts):
        lines.append(f"{c:.17g},{int(n)}")
    atomic_write(path, lines)
