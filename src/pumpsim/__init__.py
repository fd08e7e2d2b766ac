"""Optical pumping of laser-cooled cesium into the magnetically insensitive
m=0 ground sublevel: rate-equation kinetics, Raman velocimetry spectra,
photon-recoil heating, and depolarization fitting.

The package runs on numpy alone: the Gaussian fit of a spectrum is an
in-package Levenberg-Marquardt and the depolarization fit an in-package
bounded Brent search. Import names from the module that defines them, e.g.
`from pumpsim.kinetics import Beam`; the package root re-exports nothing, so
importing it loads no submodule and not numpy, and importing a module loads
only that module and its own imports. numpy.random stays unloaded until the
recoil walk's first call."""

__version__ = "0.1.0"
