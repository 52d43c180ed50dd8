"""photonmux: analytic models and Monte Carlo simulation of an actively
time-multiplexed heralded single-photon source on a photonic chip."""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    Detection,
    DomainError,
    PairDistribution,
    SchemeConfig,
    Selection,
    SourceParams,
    Topology,
    conditional_multiphoton,
    incremental_loss_db,
    lambda_from_interaction,
    pair_count_distribution,
)
from .efficiency import (  # noqa: F401
    EfficiencyBreakdown,
    avg_linear_transmission,
    detection_efficiency,
    generation_rate,
    total_efficiency,
)

#: Names re-exported from :mod:`photonmux.montecarlo`.  They resolve on first
#: access, so importing the package does not load numpy.
_MONTECARLO_NAMES = frozenset({
    "EstimatorResult",
    "Outcome",
    "TrialRecord",
    "estimate_avg_lin",
    "estimate_eta",
    "run_frame",
})


def __getattr__(name: str):
    if name in _MONTECARLO_NAMES:
        from . import montecarlo
        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
