"""The reference G' of each pair law, an oracle for the B(r) terms of
``model.PAIR_LAWS``, which write G' inline in the same operation order."""
import math

from photonmux.model import PairDistribution


def _poisson(lam):
    return lambda z: lam * math.exp(lam * (z - 1.0))


def _thermal(lam):
    x = lam / 2.0
    scale = 2.0 * x * (1.0 - x) ** 2
    return lambda z: scale / (1.0 - x * z) ** 3


_BY_LAW = {PairDistribution.POISSON: _poisson,
           PairDistribution.THERMAL_APPROX: _thermal}


def pair_generating_derivative(params):
    """G'(z) = sum_n n P(n) z^(n-1) as a function of z alone, with the pair
    law's constants bound once: lam e^{lam (z-1)} for Poisson pairs and
    2x (1-x)^2 / (1-x z)^3 with x = lam/2 for renormalized thermal pairs."""
    return _BY_LAW[params.pair_dist](params.lam)
