"""Depolarization estimation: round trips, residuals, ingestion."""

import math

import numpy as np
import pytest

from pumpsim import fitting
from pumpsim.fitting import (
    DataError,
    FitResult,
    ObservationSeries,
    fit_depolarization,
    load_observations,
    residual_report,
    simulate_observable,
)
from pumpsim.kinetics import Beam, integrate_rk4
from pumpsim.structure import Sublevel

TIMES = np.linspace(1e-4, 4.8e-3, 60)


def fig5_templates():
    return [Beam(4, 4, 0.019, -0.5), Beam(3, 4, 0.023, 0.0)]


@pytest.fixture(scope="module")
def truth_m0():
    return simulate_observable(fig5_templates(), 0.013, TIMES)


@pytest.fixture(scope="module")
def truth_m1():
    return simulate_observable(
        fig5_templates(), 0.013, TIMES, observable=Sublevel("g", 4, 1)
    )


class TestFit:
    def test_noiseless_round_trip(self, truth_m0):
        result = fit_depolarization(
            [ObservationSeries(TIMES, truth_m0)], fig5_templates()
        )
        assert abs(result.depolarization - 0.013) < 1e-4
        assert result.converged
        assert not result.weakly_identified
        assert result.sse < 1e-9

    def test_zero_contamination_recovered(self):
        clean = simulate_observable(fig5_templates(), 0.0, TIMES)
        result = fit_depolarization(
            [ObservationSeries(TIMES, clean)], fig5_templates()
        )
        assert result.depolarization < 1e-3

    def test_joint_two_series_fit(self, truth_m0, truth_m1):
        series = [
            ObservationSeries(TIMES, truth_m0, observable=Sublevel("g", 4, 0)),
            ObservationSeries(TIMES, truth_m1, observable=Sublevel("g", 4, 1)),
        ]
        result = fit_depolarization(series, fig5_templates())
        assert abs(result.depolarization - 0.013) < 1e-4

    def test_noise_robustness_smoke(self, truth_m0):
        estimates = []
        for seed in range(8):
            rng = np.random.Generator(np.random.Philox(seed))
            noisy = np.clip(truth_m0 + rng.uniform(-0.02, 0.02, truth_m0.size), 0, 1)
            r = fit_depolarization([ObservationSeries(TIMES, noisy)], fig5_templates())
            estimates.append(r.depolarization)
        median = float(np.median(estimates))
        assert abs(median - 0.013) / 0.013 < 0.35  # full study in acceptance

    def test_weight_rescaling_invariance(self, truth_m0):
        rng = np.random.Generator(np.random.Philox(77))
        noisy = np.clip(truth_m0 + rng.uniform(-0.01, 0.01, truth_m0.size), 0, 1)
        w = np.linspace(0.5, 2.0, TIMES.size)
        r1 = fit_depolarization(
            [ObservationSeries(TIMES, noisy, w)], fig5_templates()
        )
        r2 = fit_depolarization(
            [ObservationSeries(TIMES, noisy, 7.3 * w)], fig5_templates()
        )
        assert r1.depolarization == pytest.approx(r2.depolarization, abs=2e-5)

    def test_amplitude_scale_solved_in_closed_form(self, truth_m0):
        scaled = 0.82 * truth_m0
        result = fit_depolarization(
            [ObservationSeries(TIMES, scaled)], fig5_templates(), fit_scale=True
        )
        assert result.scales is not None
        assert result.scales[0] == pytest.approx(0.82, abs=1e-3)
        assert abs(result.depolarization - 0.013) < 5e-4

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            fit_depolarization([], fig5_templates())

    def test_result_shape(self, truth_m0):
        result = fit_depolarization(
            [ObservationSeries(TIMES, truth_m0)], fig5_templates()
        )
        assert isinstance(result, FitResult)
        assert result.iterations > 0


class TestResidualReport:
    def test_perfect_data_zero_residuals(self, truth_m0):
        report = residual_report([ObservationSeries(TIMES, truth_m0)],
                                 fig5_templates(), 0.013)
        assert np.max(np.abs(report.residuals[0])) < 1e-10

    def test_optimum_beats_bracket_endpoints(self, truth_m0):
        rng = np.random.Generator(np.random.Philox(5))
        noisy = np.clip(truth_m0 + rng.uniform(-0.01, 0.01, truth_m0.size), 0, 1)
        series = [ObservationSeries(TIMES, noisy)]
        result = fit_depolarization(series, fig5_templates())
        sse_at = lambda a: residual_report(series, fig5_templates(), a).sse
        assert result.sse <= sse_at(0.0)
        assert result.sse <= sse_at(0.2)

    def test_detection_floor_series_reported(self, truth_m1):
        # the m=1 level stays close to zero; residuals must come back
        # without complaint
        report = residual_report(
            [ObservationSeries(TIMES, truth_m1, observable=Sublevel("g", 4, 1))],
            fig5_templates(),
            0.013,
        )
        assert report.residuals[0].shape == TIMES.shape
        assert report.sse < 1e-9

    @pytest.mark.parametrize("fit_scale", [False, True])
    def test_fit_result_is_report_at_alpha_hat(self, truth_m0, truth_m1, fit_scale):
        noise = np.random.Generator(np.random.Philox(9)).uniform(0.0, 0.01, (2, TIMES.size))
        series = [
            ObservationSeries(TIMES, 0.9 * truth_m0 + noise[0]),
            ObservationSeries(TIMES, truth_m1 + noise[1], observable=Sublevel("g", 4, 1)),
        ]
        result = fit_depolarization(series, fig5_templates(), fit_scale=fit_scale)
        report = residual_report(series, fig5_templates(), result.depolarization,
                                 fit_scale=fit_scale)
        assert result.sse == report.sse > 0
        assert len(result.residuals) == 2
        for got, want in zip(result.residuals, report.residuals):
            assert np.array_equal(got, want)
        assert result.scales == (report.scales if fit_scale else None)

    def test_alpha_hat_not_simulated_again(self, truth_m0, monkeypatch):
        # the bounded search returns one of its own candidates, and the
        # identifiability guard reads the scored candidates, so the fit
        # integrates once per candidate
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return integrate_rk4(*args, **kwargs)

        monkeypatch.setattr(fitting, "integrate_rk4", counting)
        result = fit_depolarization([ObservationSeries(TIMES, truth_m0)], fig5_templates())
        assert len(calls) == result.iterations

    def test_flat_objective_weakly_identified(self, truth_m0):
        # beams at zero intensity leave every candidate the same SSE
        dark = [Beam(4, 4, 0.0, -0.5), Beam(3, 4, 0.0, 0.0)]
        result = fit_depolarization([ObservationSeries(TIMES, truth_m0)], dark)
        assert result.weakly_identified


@pytest.mark.parametrize("n_series", [1, 2])
@pytest.mark.parametrize("fit_scale", [False, True])
def test_sampled_rows_match_full_runs(truth_m0, truth_m1, n_series, fit_scale, monkeypatch):
    # the fit integrates only the rows its interpolation reads; every
    # number it reports keeps the bits of full trajectories
    noise = np.random.Generator(np.random.Philox(3)).uniform(-0.01, 0.01, TIMES.size)
    series = [
        ObservationSeries(TIMES, np.clip(truth_m0 + noise, 0.0, 1.0)),
        ObservationSeries(TIMES[3::2], truth_m1[3::2], observable=Sublevel("g", 4, 1)),
    ][:n_series]

    def outcomes():
        fit = fit_depolarization(series, fig5_templates(), fit_scale=fit_scale)
        report = residual_report(series, fig5_templates(), 0.017, fit_scale=fit_scale)
        model = simulate_observable(fig5_templates(), 0.017, TIMES[::-3])
        return fit, report, model

    sampled = outcomes()
    monkeypatch.setattr(fitting, "integrate_rk4",
                        lambda *args, at=None, **kwargs: integrate_rk4(*args, **kwargs))
    (fit, report, model), (fit_f, report_f, model_f) = sampled, outcomes()
    assert (fit.depolarization, fit.sse, fit.iterations, fit.scales) == (
        fit_f.depolarization, fit_f.sse, fit_f.iterations, fit_f.scales)
    assert (report.sse, report.scales) == (report_f.sse, report_f.scales)
    for got, want in zip(fit.residuals + report.residuals,
                         fit_f.residuals + report_f.residuals):
        assert np.array_equal(got, want)
    assert np.array_equal(model, model_f)


def recording(objective):
    """A list and `objective` wrapped to append each alpha it is called at."""
    alphas = []

    def recorded(alpha):
        alphas.append(alpha)
        return objective(alpha)

    return alphas, recorded


def scipy_search(objective, maxiter=fitting.MAX_ITERATIONS):
    """The alphas scipy's bounded search evaluates on `objective`, in order,
    and its result."""
    from scipy.optimize import minimize_scalar

    alphas, recorded = recording(objective)
    result = minimize_scalar(recorded, bounds=fitting.BOUNDS, method="bounded",
                             options={"xatol": fitting.XATOL, "maxiter": maxiter})
    return alphas, result


class TestSearchMatchesScipy:
    # the in-package search takes scipy's fminbound steps, so it evaluates
    # the same alphas in the same order and stops at the same one

    def fit_and_scipy(self, monkeypatch, series, beams, fit_scale=False):
        report, alphas = fitting._report, []

        def recorded(series, terms, alpha, fit_scale):
            alphas.append(alpha)
            return report(series, terms, alpha, fit_scale)

        monkeypatch.setattr(fitting, "_report", recorded)
        fit = fit_depolarization(series, beams, fit_scale=fit_scale)
        terms = fitting._terms(beams)
        want, result = scipy_search(lambda a: report(series, terms, a, fit_scale).sse,
                                    fitting.MAX_ITERATIONS)
        assert alphas == want
        assert (fit.depolarization, fit.iterations, fit.converged) == (
            result.x, result.nfev, result.success)
        return fit

    @pytest.mark.parametrize("fit_scale", [False, True])
    def test_fig5_objective(self, truth_m0, truth_m1, monkeypatch, fit_scale):
        noise = np.random.Generator(np.random.Philox(9)).uniform(0.0, 0.01, (2, TIMES.size))
        series = [
            ObservationSeries(TIMES, 0.9 * truth_m0 + noise[0]),
            ObservationSeries(TIMES, truth_m1 + noise[1], observable=Sublevel("g", 4, 1)),
        ]
        assert self.fit_and_scipy(monkeypatch, series, fig5_templates(), fit_scale).converged

    def test_flat_objective(self, truth_m0, monkeypatch):
        dark = [Beam(4, 4, 0.0, -0.5), Beam(3, 4, 0.0, 0.0)]
        fit = self.fit_and_scipy(monkeypatch, [ObservationSeries(TIMES, truth_m0)], dark)
        assert fit.weakly_identified

    def test_iteration_budget(self, truth_m0, monkeypatch):
        monkeypatch.setattr(fitting, "MAX_ITERATIONS", 3)
        fit = self.fit_and_scipy(monkeypatch, [ObservationSeries(TIMES, truth_m0)],
                                 fig5_templates())
        assert fit.iterations == 3 and not fit.converged

    @pytest.mark.parametrize("objective", [
        lambda a: math.nan,
        lambda a: math.nan if a > 0.1 else (a - 0.05) ** 2,
        lambda a: math.nan if a < 0.05 else (a - 0.013) ** 2,
    ], ids=["nan", "nan_above", "nan_below"])
    def test_nan_objective(self, objective):
        alphas, recorded = recording(objective)
        got = fitting._bounded_minimum(recorded, fitting.BOUNDS, fitting.XATOL,
                                       fitting.MAX_ITERATIONS)
        want, result = scipy_search(objective)
        assert alphas == want
        assert got == (result.x, result.nfev, result.success)


class TestIngestion:
    def test_round_trip(self, tmp_path, truth_m0):
        path = tmp_path / "obs.csv"
        rows = ["# observable = g4_m0", "# comment line"]
        rows += [f"{t:.9g},{v:.9g},1.0" for t, v in zip(TIMES, truth_m0)]
        path.write_text("\n".join(rows) + "\n")
        series = load_observations(path)
        assert series.observable == Sublevel("g", 4, 0)
        assert np.allclose(series.times, TIMES)
        assert series.weights is not None

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# nothing here\n")
        with pytest.raises(DataError, match="no data rows"):
            load_observations(path)

    def test_parse_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.001,0.1\n0.002,oops\n")
        with pytest.raises(DataError, match=r"bad\.csv:2"):
            load_observations(path)

    @pytest.mark.parametrize("row", ["nan,0.2,1", "inf,0.2,1", "0.002,nan,1",
                                     "0.002,0.2,inf", "0.002,0.2,nan"])
    def test_non_finite_field_rejected(self, tmp_path, row):
        path = tmp_path / "obs.csv"
        path.write_text(f"0.001,0.1,1\n{row}\n")
        with pytest.raises(DataError, match=r"obs\.csv: .*finite"):
            load_observations(path)

    def test_non_monotonic_times_rejected(self, tmp_path):
        path = tmp_path / "order.csv"
        path.write_text("0.002,0.1\n0.001,0.2\n")
        with pytest.raises(DataError):
            load_observations(path)

    @pytest.mark.parametrize("rows", ["0,0.11\n", "-0.001,0.11\n0.001,0.2\n"],
                             ids=["only_t0", "negative"])
    def test_times_before_or_only_at_zero_rejected(self, tmp_path, rows):
        # the model starts at t = 0: a lone row there leaves nothing to
        # integrate, and an earlier row would be scored against the start
        path = tmp_path / "early.csv"
        path.write_text(rows)
        with pytest.raises(DataError, match=r"early\.csv: times must be nonnegative"):
            load_observations(path)

    def test_observable_key_must_stand_alone(self, tmp_path):
        # a comment that merely starts with the word is prose, not the key
        path = tmp_path / "prose.csv"
        path.write_text("# observable fraction, measured by Raman\n0.001,0.1\n")
        assert load_observations(path).observable == Sublevel("g", 4, 0)
        path.write_text("# observable fraction, measured by Raman\n"
                        "# observable = g4_m1\n0.001,0.1\n")
        assert load_observations(path).observable == Sublevel("g", 4, 1)

    def test_bad_observable_label(self, tmp_path):
        path = tmp_path / "label.csv"
        path.write_text("# observable = q9_m0\n0.001,0.1\n")
        with pytest.raises(DataError, match=r"label\.csv:1"):
            load_observations(path)
