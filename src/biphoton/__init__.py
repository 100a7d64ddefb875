"""Simulation and correlation analysis for a cavity-enhanced photon-pair source.

The package covers the full chain of a heralded single-photon experiment:
a stochastic time-tag simulator for a frequency-nondegenerate pair source
(narrowband signal and idler arms with distinct linewidths, multimode cavity
emission, losses, darks and dead time), a multi-stop correlator with windowed
g2 estimators, peak-shape fitting, and closed-form models for rates, cavity
losses and classicality bounds. A CLI exposes standard measurement
arrangements and is the one writer of CSV artifacts.

Import names from their submodules (``biphoton.tagstream``,
``biphoton.simulator``, ``biphoton.correlator``, ``biphoton.fitting``,
``biphoton.models``, ``biphoton.config``, ``biphoton.cli``); the package root
holds only ``__version__``, so importing a submodule loads only the modules it
uses.
"""

__version__ = "1.0.0"
