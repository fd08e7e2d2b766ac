"""Physical constants for the cesium D2 optical-pumping model.

Everything is SI. The atomic numbers (wavelength, natural linewidth,
hyperfine intervals, Lande factors) are standard Cs-133 D2 values; the
remaining entries are CODATA / SI-definition constants.
"""

import math

# SI defining constants (exact by definition)
PLANCK = 6.62607015e-34        # J s
SPEED_OF_LIGHT = 299792458.0   # m/s
BOLTZMANN = 1.380649e-23       # J/K

BOHR_MAGNETON = 9.2740100783e-24   # J/T (CODATA 2018)
CS_MASS = 2.20694650e-25           # kg, Cs-133

# D2 line, 6S1/2 -> 6P3/2
WAVELENGTH = 852e-9                     # m
OPTICAL_FREQUENCY = SPEED_OF_LIGHT / WAVELENGTH   # Hz, ~352 THz: no laser line is wider
GAMMA = 2.0 * math.pi * 5.22e6         # natural linewidth, rad/s
MAX_DETUNING = 2.0 * math.pi * OPTICAL_FREQUENCY / GAMMA   # the optical frequency, in GAMMA
LASER_LINEWIDTH_HZ = 1.0e6   # default diode-laser linewidth, Hz
LASER_LINEWIDTH = 2.0 * math.pi * LASER_LINEWIDTH_HZ   # the same, rad/s

# angular momenta
NUCLEAR_SPIN = 3.5
J_GROUND = 0.5     # 6S1/2
J_EXCITED = 1.5    # 6P3/2
GROUND_F = (3, 4)
EXCITED_F = (3, 4, 5)

# 6P3/2 hyperfine intervals in Hz, keyed by the adjacent (lower F', upper F') pair
EXCITED_SPLITTING = {(2, 3): 151.2e6, (3, 4): 201.2e6, (4, 5): 251.0e6}

HYPERFINE_HZ = 9_192_631_770.0  # ground hyperfine frequency, Hz (exact: the SI second)

# first-order Lande factors of the two ground hyperfine levels
G_F3 = -0.25
G_F4 = +0.25

# derived scales
RECOIL_VELOCITY = PLANCK / (CS_MASS * WAVELENGTH)            # m/s, ~3.52 mm/s
DOPPLER_HZ_PER_RECOIL = 2.0 * RECOIL_VELOCITY / WAVELENGTH   # Hz of two-photon
# detuning per recoil velocity, counterpropagating geometry (~8.27 kHz)
SATURATION_INTENSITY = (
    math.pi * PLANCK * SPEED_OF_LIGHT * GAMMA / (3.0 * WAVELENGTH**3)
)  # W/m^2, ~11.0


def excited_level_offset(f_excited: int) -> float:
    """Energy of an excited hyperfine level relative to F'=3, in Hz."""
    if f_excited not in EXCITED_F:
        raise ValueError(f"no excited hyperfine level F'={f_excited}")
    offset = 0.0
    for f in range(4, f_excited + 1):
        offset += EXCITED_SPLITTING[(f - 1, f)]
    return offset
