"""Depolarization estimation from observed pumping dynamics.

The polarization contamination of the pump light is the single free physics
parameter; it is recovered by bracketed scalar minimization of the weighted
sum of squared residuals between observed sublevel-population time series
and the rate-equation model, assembled and pruned once per fit and
re-weighted and re-simulated for every candidate value. A candidate's
simulation computes only the trajectory samples that bracket the observation
times, the only ones the interpolation onto them reads.
"""

import math
from dataclasses import dataclass

import numpy as np

from .kinetics import (
    LIBRARY_DT,
    assemble_rate_matrix,
    integrate_rk4,
    prune,
    uniform_f4,
    with_depolarization,
)
from .structure import Sublevel, parse_label


class DataError(ValueError):
    """Raised when an observation file cannot be parsed."""


@dataclass
class ObservationSeries:
    """One observed time series of a named ground-sublevel fraction."""

    times: np.ndarray
    values: np.ndarray
    weights: np.ndarray | None = None
    observable: Sublevel = Sublevel("g", 4, 0)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.size == 0:
            raise ValueError("observation series is empty")
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have equal length")
        if not (np.isfinite(self.times).all() and np.isfinite(self.values).all()):
            raise ValueError("times and fractions must be finite")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if self.times[0] < 0 or self.times[-1] <= 0:
            raise ValueError("times must be nonnegative and end after t = 0")
        if np.any((self.values < 0) | (self.values > 1)):
            raise ValueError("fractions must lie in [0, 1]")
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=float)
            if self.weights.shape != self.times.shape:
                raise ValueError("weights must match the number of samples")
            if not np.isfinite(self.weights).all() or np.any(self.weights < 0):
                raise ValueError("weights must be finite and nonnegative")

    def weight_array(self) -> np.ndarray:
        return self.weights if self.weights is not None else np.ones_like(self.times)


def load_observations(path) -> ObservationSeries:
    """Read `time_s, fraction[, weight]` rows; `#` lines are comments, and a
    `# observable=g4_m0` comment (the key alone before `=`) names the
    observed sublevel."""
    times, values, weights = [], [], []
    observable = Sublevel("g", 4, 0)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, eq, value = line.lstrip("#").partition("=")
                if eq and key.strip().lower() == "observable":
                    try:
                        observable = parse_label(value)
                    except ValueError as exc:
                        raise DataError(f"{path}:{lineno}: {exc}") from exc
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) not in (2, 3):
                raise DataError(
                    f"{path}:{lineno}: expected 'time_s, fraction[, weight]', got {line!r}"
                )
            try:
                times.append(float(parts[0]))
                values.append(float(parts[1]))
                if len(parts) == 3:
                    weights.append(float(parts[2]))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: non-numeric field in {line!r}") from exc
    if not times:
        raise DataError(f"{path}: no data rows")
    if weights and len(weights) != len(times):
        raise DataError(f"{path}: weight column present on only some rows")
    try:
        return ObservationSeries(
            np.array(times),
            np.array(values),
            np.array(weights) if weights else None,
            observable,
        )
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


# search range of the contamination, its |step| tolerance and the
# iteration budget of the fit
BOUNDS = (0.0, 0.2)
XATOL = 1e-4 * BOUNDS[1]
MAX_ITERATIONS = 200


def simulate_observable(
    beams,
    depolarization: float,
    times: np.ndarray,
    observable: Sublevel = Sublevel("g", 4, 0),
) -> np.ndarray:
    """Model prediction of a ground-sublevel fraction at the requested times,
    starting from the uniformly populated F=4 level."""
    traj = _simulate(_terms(beams), depolarization, times)
    return np.interp(times, traj.times, traj.sublevel_fraction(observable))


def _terms(beams):
    return prune(assemble_rate_matrix(beams))[0]


def _simulate(terms, depolarization, times):
    """The trajectory rows that interpolation at `times` reads."""
    matrix = with_depolarization(terms, depolarization)
    return integrate_rk4(matrix, uniform_f4(), LIBRARY_DT, float(np.max(times)),
                         max_samples=2001, at=times)


@dataclass
class ResidualReport:
    residuals: list[np.ndarray]
    sse: float
    scales: tuple[float, ...]


def residual_report(
    series,
    beams,
    depolarization: float,
    fit_scale: bool = False,
) -> ResidualReport:
    """Per-point residuals (observed minus model) and the weighted SSE at one
    contamination value; with fit_scale each series' model is first scaled
    by its closed-form least-squares amplitude. The fit scores every
    candidate the same way, on terms it assembles once."""
    return _report(list(series), _terms(beams), depolarization, fit_scale)


def _report(series, terms, depolarization, fit_scale) -> ResidualReport:
    traj = _simulate(terms, depolarization, np.concatenate([s.times for s in series]))
    residuals, sse, scales = [], 0.0, []
    for s in series:
        model = np.interp(s.times, traj.times, traj.sublevel_fraction(s.observable))
        w = s.weight_array()
        scale = 1.0
        if fit_scale:
            denom = float(np.sum(w * model * model))
            if denom > 0:
                scale = float(np.sum(w * s.values * model) / denom)
        resid = s.values - scale * model
        residuals.append(resid)
        sse += float(np.sum(w * resid**2))
        scales.append(scale)
    return ResidualReport(residuals, sse, tuple(scales))


@dataclass
class FitResult:
    depolarization: float
    sse: float
    iterations: int
    converged: bool
    weakly_identified: bool
    scales: tuple[float, ...] | None
    residuals: list[np.ndarray]


def fit_depolarization(series, beams, fit_scale: bool = False) -> FitResult:
    """Minimize the total weighted SSE over the contamination parameter in
    BOUNDS.

    Bounded golden-section/parabolic search (Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 5) with |step| tolerance
    1e-4 times the upper bound. The pruned terms are assembled once; each
    candidate, alpha-hat too, is scored once as `residual_report` scores it.
    The fit is weakly identified when the candidates' SSEs agree to 1e-7 of
    the largest.
    """
    series = list(series)
    if not series:
        raise ValueError("need at least one observation series")
    terms = _terms(beams)
    reports = {}

    def objective(depol):
        reports[depol] = _report(series, terms, depol, fit_scale)
        return reports[depol].sse

    best, evaluations, converged = _bounded_minimum(objective, BOUNDS, XATOL, MAX_ITERATIONS)
    sse = [r.sse for r in reports.values()]
    report = reports[best]
    return FitResult(
        depolarization=best,
        sse=report.sse,
        iterations=evaluations,
        converged=converged,
        weakly_identified=max(sse) - min(sse) <= 1e-7 * max(sse),
        scales=report.scales if fit_scale else None,
        residuals=report.residuals,
    )


def _bounded_minimum(func, bounds, xatol, maxfun):
    """(x, evaluations, converged) of Brent's bounded search for a minimum
    of func, step for step the search of scipy's `fminbound`: a golden-mean
    start, then parabolic steps through the three best points where they
    fall inside the bracket and shrink fast enough, golden-section steps
    otherwise, until the bracket is within 2 tol1 of the best point or
    `maxfun` evaluations are spent. A NaN at the end is no convergence."""
    sqrt_eps, golden = math.sqrt(2.2e-16), 0.5 * (3.0 - math.sqrt(5.0))
    a, b = bounds
    # xf, nfc and fulc: the best point, the second best and the one before
    # it (Brent's x, w and v), with their values fx, fnfc and ffulc
    xf = nfc = fulc = a + golden * (b - a)
    fx = fnfc = ffulc = func(xf)
    num, rat, e, fu, converged = 1, 0.0, 0.0, math.inf, True
    xm, tol1 = 0.5 * (a + b), sqrt_eps * abs(xf) + xatol / 3.0
    while abs(xf - xm) > 2.0 * tol1 - 0.5 * (b - a):
        parabolic = False
        if abs(e) > tol1:
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            p = -p if q > 0.0 else p
            q, r, e = abs(q), e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                parabolic, rat = True, p / q
                x = xf + rat
                if x - a < 2.0 * tol1 or b - x < 2.0 * tol1:
                    rat = tol1 if xm >= xf else -tol1
        if not parabolic:
            e = (a if xf >= xm else b) - xf
            rat = golden * e
        x = xf + (1.0 if rat >= 0 else -1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm, tol1 = 0.5 * (a + b), sqrt_eps * abs(xf) + xatol / 3.0
        if num >= maxfun:
            converged = False
            break
    return xf, num, converged and not any(map(math.isnan, (xf, fx, fu)))
