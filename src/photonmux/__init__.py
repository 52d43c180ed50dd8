"""photonmux: analytic models and Monte Carlo simulation of an actively
time-multiplexed heralded single-photon source on a photonic chip.

Import each name from the module that defines it: ``model``, ``efficiency``,
``montecarlo``, ``bell``, ``control``, ``config``, ``app`` or ``cli``.
Importing the package loads none of them.
"""

__version__ = "0.1.0"
