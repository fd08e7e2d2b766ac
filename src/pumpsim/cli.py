"""Batch command line: pumpsim <states|pump|spectrum|heat|fit>.

Every command is deterministic for a fixed config and seed, writes UTF-8
text artifacts atomically (write-then-rename), and uses the exit codes
0 = success, 2 = config error, 3 = data error, 4 = non-convergence.
"""

import argparse
import os
import sys

import numpy as np

from .config import ConfigError, ScenarioConfig, load_config
from .fitting import BOUNDS, XATOL, DataError, fit_depolarization, load_observations
from .heating import heating_summary, write_heating_summary
from .kinetics import (
    LIBRARY_DT,
    PRUNE_THRESHOLD,
    assemble_rate_matrix,
    integrate_rk4,
    prune,
    pump_metrics,
    uniform_f4,
    write_trajectory_csv,
)
from .output import atomic_write, header, rows
from .raman import (
    fit_gaussian,
    lineshape_fwhm,
    synth_copropagating,
    synth_counterpropagating,
    velocity_resolution,
    write_spectrum_csv,
    RamanPulse,
    VelocityDistribution,
)
from .structure import STATES, clock_line_shift

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NON_CONVERGENCE = 4
# what heat and fit integrate at LIBRARY_DT, whatever [integration] holds
_WINDOWS = {"heat": "a 20 ms window", "fit": "up to the last observation time"}


def _load(args, beams_for: str = "") -> ScenarioConfig:
    """The --config scenario; a nonempty `beams_for` names what needs a beam."""
    if args.config is None:
        raise ConfigError("this command needs --config")
    cfg = load_config(args.config)
    if beams_for and not cfg.beams:
        raise ConfigError(f"{beams_for} needs at least one [beams.*] section")
    if beams_for in _WINDOWS and cfg.dt_seconds != LIBRARY_DT:
        print(f"note: {beams_for} integrates {_WINDOWS[beams_for]} at dt_gamma = 0.01; it "
              f"ignores [integration] dt_gamma = {cfg.dt_gamma:g}", file=sys.stderr)
    if args.out is not None:
        cfg.directory = args.out
    return cfg


def cmd_states(args) -> int:
    print("index,label")
    for i, level in enumerate(STATES):
        print(f"{i},{level.label()}")
    print(f"# total={len(STATES)}")
    if args.prune:
        matrix = assemble_rate_matrix(_load(args, "--prune").beams)
        _, active = prune(matrix, PRUNE_THRESHOLD)
        print(f"# active_after_prune={active}")
    return EXIT_OK


def _pump_run(cfg: ScenarioConfig, pruned: bool, at=None):
    matrix = assemble_rate_matrix(cfg.beams)
    if pruned:
        matrix, _ = prune(matrix, PRUNE_THRESHOLD)
    return integrate_rk4(matrix, uniform_f4(), cfg.dt_seconds, cfg.t_end_s, at=at)


def cmd_pump(args) -> int:
    cfg = _load(args, "pump")
    trajectory = _pump_run(cfg, args.prune)
    metrics = pump_metrics(trajectory)

    out = cfg.directory
    write_trajectory_csv(trajectory, os.path.join(out, "trajectory.csv"))
    lines = header({
        "t_end_s": cfg.t_end_s,
        "dt_gamma": cfg.dt_gamma,
        "pruned": args.prune,
        "m0_fraction_final": metrics.m0_fraction[-1],
        "tau_50_s": metrics.tau_50,
        "photons_to_tau50": metrics.photons_to_tau50,
        "scattered_photons_final": trajectory.scattered_photons[-1],
    }) + ["time_s,m0_fraction"] + rows(metrics.times, metrics.m0_fraction)
    atomic_write(os.path.join(out, "pump_metrics.txt"), lines)
    print(f"final m0 fraction: {metrics.m0_fraction[-1]:.6f}")
    if metrics.tau_50 is None:
        print("tau_50: not reached")
    else:
        print(f"tau_50: {metrics.tau_50 * 1e3:.4f} ms "
              f"({metrics.photons_to_tau50:.3f} photons)")
    print(f"wrote {out}/trajectory.csv and {out}/pump_metrics.txt")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    cfg = _load(args, "--prune" if args.prune else "")
    pulse = RamanPulse(cfg.tau_s)
    populations = (_pump_run(cfg, args.prune, at=[cfg.t_end_s]).populations[-1]
                   if cfg.beams else uniform_f4())

    out = cfg.directory
    fwhm_single = lineshape_fwhm(pulse)
    shift = clock_line_shift(cfg.bias_gauss)
    if shift > 0.1 * fwhm_single:
        print(f"warning: at {cfg.bias_gauss:g} G the m=0 line's second-order Zeeman shift, "
              f"{shift:.3g} Hz, exceeds 10% of the {fwhm_single:.4g} Hz line width; "
              "line positions are first order in the field", file=sys.stderr)
    print(f"single-line FWHM*tau: {fwhm_single * cfg.tau_s:.4f} "
          "(measured product in the reference setup: 1.12)")
    if cfg.geometry == "copropagating":
        grid = np.arange(-2000.0, 2000.0 + 0.5, 1.0)
        spectrum = synth_copropagating(
            populations, cfg.bias_gauss, pulse, grid, cfg.rms_fluct_gauss
        )
        fit = None
    else:
        grid = np.arange(-250e3, 250e3 + 1.0, 250.0)
        spectrum = synth_counterpropagating(
            populations, VelocityDistribution(cfg.sigma_vr), pulse, grid, cfg.bias_gauss
        )
        fit = fit_gaussian(spectrum)
        res = velocity_resolution(fwhm_single)
        print(
            f"fitted: FWHM={fit.fwhm_hz / 1e3:.2f} kHz, sigma={fit.sigma_vr:.3f} v_r "
            f"({fit.sigma_mps * 1e3:.3f} mm/s), T={fit.temperature_K * 1e6:.2f} uK"
        )
        print(
            f"velocity resolution at the Fourier limit: {res.recoil_units:.4f} v_r "
            f"(~v_r/{1 / res.recoil_units:.0f}), {res.meters_per_second * 1e6:.0f} um/s"
        )
    write_spectrum_csv(spectrum, os.path.join(out, "spectrum.csv"), fit=fit)
    if fit is not None and not fit.converged:
        print("gaussian fit did not converge", file=sys.stderr)
        return EXIT_NON_CONVERGENCE
    print(f"wrote {out}/spectrum.csv")
    return EXIT_OK


def cmd_heat(args) -> int:
    cfg = _load(args, "heat")
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed: must be at least 0, got {args.seed}")
    summary = heating_summary(
        cfg.beams,
        initial_vrms=cfg.sigma_vr,
        samples=cfg.samples,
        seed=cfg.seed if args.seed is None else args.seed,
        pruned=args.prune,
    )
    out = cfg.directory
    write_heating_summary(summary, os.path.join(out, "heating.txt"))
    result = summary.result
    print(f"mean fluorescence cycles: {result.mean_cycles:.3f}")
    print(f"delta v_rms: {result.delta_vrms:.3f} v_r "
          f"(standard error {result.standard_error:.4f})")
    print(f"initial {summary.initial_vrms:.2f} v_r -> quadrature "
          f"{summary.final_vrms_quadrature:.3f} v_r, additive "
          f"{summary.final_vrms_additive:.3f} v_r")
    print(f"wrote {out}/heating.txt")
    report = summary.cycle_report
    unreached = [f"m={m}" for m, hit in report.reached.items() if not hit]
    if not report.uniform_reached:
        unreached.append("uniform F=4")
    if unreached:
        print(f"warning: the F=4, m=0 fraction never reaches {report.threshold:g} by "
              f"t_end={report.t_end:g} s from the start(s) {', '.join(unreached)}; "
              "their cycle counts are the photons scattered by t_end", file=sys.stderr)
    return EXIT_OK


def cmd_fit(args) -> int:
    cfg = _load(args, "fit")
    if not args.data:
        raise DataError("fit needs at least one observation file")
    # the report labels each series by its file name
    names = [os.path.basename(path) for path in args.data]
    for name in names:
        if names.count(name) > 1:
            raise DataError(f"two observation files share the name {name!r}")
    series = [load_observations(path) for path in args.data]
    result = fit_depolarization(series, cfg.beams, fit_scale=args.fit_scale)

    out = cfg.directory
    lines = header({
        "alpha_hat": result.depolarization,
        "sse": result.sse,
        "iterations": result.iterations,
        "converged": result.converged,
        "weakly_identified": result.weakly_identified,
    })
    lines += header({f"scale[{name}]": scale
                     for name, scale in zip(names, result.scales or ())})
    lines.append("series,time_s,residual")
    for name, s, resid in zip(names, series, result.residuals):
        lines.extend(f"{name},{row}" for row in rows(s.times, resid))
    atomic_write(os.path.join(out, "fit_report.txt"), lines)
    print(f"alpha_hat: {result.depolarization:.6g}")
    print(f"sse: {result.sse:.6g} ({result.iterations} evaluations)")
    if result.weakly_identified:
        print("warning: objective is weakly identified over the search range")
    print(f"wrote {out}/fit_report.txt")
    if BOUNDS[1] - result.depolarization <= XATOL:
        print(f"warning: alpha_hat={result.depolarization:.6g} lies within the search "
              f"tolerance {XATOL:g} of the upper bound {BOUNDS[1]:g}; the data may call "
              "for a larger contamination than the search range holds", file=sys.stderr)
    if not result.converged:
        print("fit did not converge within the iteration budget", file=sys.stderr)
        return EXIT_NON_CONVERGENCE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pumpsim",
        description="Optical pumping of cold cesium into m=0: kinetics, "
        "Raman spectra, recoil heating, and depolarization fits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, func):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--config", help="scenario file", required=False)
        p.add_argument("--out", help="output directory (overrides [output])")
        p.set_defaults(func=func)
        return p

    for name, help_text, func in (
        ("states", "list the 43 sublevels", cmd_states),
        ("pump", "integrate the pumping dynamics", cmd_pump),
        ("spectrum", "synthesize a Raman spectrum", cmd_spectrum),
        ("heat", "recoil-heating estimate", cmd_heat),
    ):
        command(name, help_text, func).add_argument(
            "--prune", action="store_true",
            help="drop weak off-resonant transitions (reduced equation set)")
    sub.choices["heat"].add_argument("--seed", type=int, help="RNG seed (overrides [mc])")

    p = command("fit", "fit the depolarization to observed series "
               "(always on the reduced equation set)", cmd_fit)
    p.add_argument("data", nargs="*", help="observation CSV files")
    p.add_argument("--fit-scale", action="store_true",
                   help="solve a per-series amplitude scale alongside")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
