"""Optical pumping of laser-cooled cesium into the magnetically insensitive
m=0 ground sublevel: rate-equation kinetics, Raman velocimetry spectra,
photon-recoil heating, and depolarization fitting.

Importing the package loads numpy only: the two fits, the only code that
needs scipy, import it on first call."""

from . import constants
from .structure import (
    Sublevel,
    branching_ratio,
    branching_table,
    parse_label,
    raman_line_offset,
    state_index,
)
from .kinetics import (
    Beam,
    RateMatrix,
    Trajectory,
    assemble_rate_matrix,
    integrate_rk4,
    polarization_weights,
    prune,
    pump_metrics,
    single_sublevel,
    transition_overlap,
    uniform_f4,
    with_depolarization,
)
from .raman import (
    GaussianFit,
    RamanPulse,
    Spectrum,
    VelocityDistribution,
    doppler_shift,
    fit_gaussian,
    lineshape_fwhm,
    rabi_lineshape,
    synth_copropagating,
    synth_counterpropagating,
    velocity_resolution,
)
from .heating import (
    CycleReport,
    HeatingResult,
    expected_cycles,
    heating_summary,
    recoil_walk,
)
from .fitting import (
    FitResult,
    ObservationSeries,
    fit_depolarization,
    load_observations,
    residual_report,
    simulate_observable,
)

__version__ = "0.1.0"
