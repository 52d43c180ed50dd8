"""Physical parameters and photon-pair number statistics.

Everything downstream (closed-form efficiency, Monte Carlo, the CLI) consumes
the two value types defined here: :class:`SourceParams` bundles the physical
efficiencies of the pumped pair source and the chip, :class:`SchemeConfig`
selects the multiplexing topology and detection protocol.  Both are frozen, so
instances can be shared freely between worker threads.  A field's kind is
stated once, by its annotation, which :func:`check_fields` and ``config`` read.
"""
import functools
import math
import numbers
import operator
from collections.abc import Callable
from dataclasses import dataclass, fields, replace
from enum import Enum

SPEED_OF_LIGHT = 299_792_458.0  # m/s

#: Last pair count of the table the Monte Carlo estimator sums over, not
#: samples from (:func:`pair_pmf_array`); the closed forms need no truncation.
MAX_PAIRS = 200

#: Largest multiplexing depth a scheme may have.  One evaluation costs O(N)
#: and an optimization over 1..N costs O(N^2), so this bounds every answer.
MAX_BINS = 1024
#: Largest multiplexing depth of every default N range.
N_MAX = 128

#: Bit-stream generator behind every simulation, recorded in output metadata
#: so runs can be replayed: independent streams are spawned per chunk from a
#: single master SeedSequence.
RNG_ALGORITHM = "numpy-pcg64/seedsequence-spawn"


class DomainError(ValueError):
    """A numeric argument lies outside the modeled domain."""


class PairDistribution(Enum):
    POISSON = "poisson"
    THERMAL_APPROX = "thermal"


class Topology(Enum):
    BINARY_DELAY = "binary"
    SINGLE_DELAY_LINE = "single-line"


class Detection(Enum):
    SINGLE_DETECTOR = "single"
    DETECTOR_ARRAY = "array"


class Selection(Enum):
    FIRST_PHOTON = "first"
    LAST_PHOTON = "last"


#: Number of detectors in the heralding array; the routing tree and the
#: blanking factor of ``efficiency.detection_efficiency`` derive from it.
DETECTOR_ARRAY_SIZE = 25

#: Raw detector efficiency matched to each detection protocol.
PROTOCOL_ETA_DET = {Detection.SINGLE_DETECTOR: 0.7,
                    Detection.DETECTOR_ARRAY: 0.8}


def is_finite(value) -> bool:
    """math.isfinite, but False for an int too large for a float."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def incremental_loss_db(alpha_lin_db_per_cm: float = 0.1,
                        group_index: float = 4.0,
                        period: float = 40e-12) -> float:
    """Waveguide loss in dB accumulated over one pump period of delay.

    One time bin of delay corresponds to a waveguide length of
    ``c * period / group_index``; the linear propagation loss over that length
    is the per-bin increment used by the transmission model.
    """
    args = (alpha_lin_db_per_cm, group_index, period)
    if not all(map(is_finite, args)):
        raise DomainError(
            f"loss, group index and period must be finite, got {args}")
    if alpha_lin_db_per_cm < 0 or group_index <= 0 or period <= 0:
        raise DomainError("loss, group index and period must be positive")
    length_cm = SPEED_OF_LIGHT * period / group_index * 100.0
    return alpha_lin_db_per_cm * length_cm


#: Default per-bin delay loss: 0.1 dB/cm ridge waveguide, group index 4,
#: 40 ps bins -> about 0.03 dB per bin of delay.
DEFAULT_ALPHA_INC = incremental_loss_db()


def check_unit(name: str, value: float) -> None:
    """DomainError unless ``value`` lies in [0, 1] (NaN does not)."""
    if not 0.0 <= value <= 1.0:
        raise DomainError(f"{name} must be in [0, 1], got {value}")


@functools.cache
def field_kinds(cls) -> tuple[tuple[str, type, bool], ...]:
    """(name, kind, None allowed) of each field of the dataclass ``cls``, read
    once from its annotation, not postponed here; ``X | None`` allows None."""
    table = []
    for f in fields(cls):
        kinds = set(getattr(f.type, "__args__", (f.type,)))
        (kind,) = kinds - {type(None)}
        table.append((f.name, kind, type(None) in kinds))
    return tuple(table)


def check_fields(obj) -> None:
    """DomainError unless each field of the dataclass ``obj`` holds its
    annotation's kind, a float field any real number but a bool.  An
    ``int`` field is left to its own range check."""
    for name, kind, none_allowed in field_kinds(type(obj)):
        value = getattr(obj, name)
        if type(value) is kind or kind is int:
            continue
        if kind is float:  # an int passes before the slow ABC check
            if type(value) is int or (isinstance(value, numbers.Real)
                                      and not isinstance(value, bool)):
                continue
            raise DomainError(f"{name} must be a real number, got {value!r}")
        if not (isinstance(value, kind) or none_allowed and value is None):
            raise DomainError(
                f"{name} must be a {kind.__name__}, got {value!r}")


@dataclass(frozen=True)
class SourceParams:
    """Physical parameters of the pumped pair source and the chip.

    lam           mean-pair parameter per time bin (dimensionless)
    period        pump period T in seconds
    eta_f         filtering efficiency
    eta_c         on-chip coupling efficiency (composite: includes fiber
                  coupling and fiber transmission)
    eta_sw        per-pass switch transmission
    eta_det       raw detector efficiency (0.7 single detector, 0.8 array)
    eta_conv      up-conversion efficiency
    alpha_inc     waveguide loss per bin of delay, in dB
    pair_dist     pair-number distribution sampled per bin
    include_filter_in_d0  reading: eta_f multiplies the no-herald probability
    literal_exponent      reading: alpha_inc is a bare decadic exponent, not dB
    """

    lam: float = 0.1
    period: float = 40e-12
    eta_f: float = 0.99
    eta_c: float = 0.84
    eta_sw: float = 0.87
    eta_det: float = PROTOCOL_ETA_DET[Detection.SINGLE_DETECTOR]
    eta_conv: float = 0.85
    alpha_inc: float = DEFAULT_ALPHA_INC
    pair_dist: PairDistribution = PairDistribution.POISSON
    include_filter_in_d0: bool = True
    literal_exponent: bool = False

    def __post_init__(self) -> None:
        check_fields(self)
        # the unit-interval check below also rejects non-finite efficiencies
        for name in ("lam", "period", "alpha_inc"):
            if not is_finite(value := getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {value}")
        if self.lam < 0:
            raise DomainError(f"lam must be >= 0, got {self.lam}")
        if self.pair_dist is PairDistribution.THERMAL_APPROX and self.lam >= 2:
            raise DomainError(
                f"thermal pair distribution requires lam < 2, got {self.lam}")
        if self.period <= 0:
            raise DomainError(f"period must be > 0, got {self.period}")
        if self.alpha_inc < 0:
            raise DomainError(f"alpha_inc must be >= 0, got {self.alpha_inc}")
        for name in ("eta_f", "eta_c", "eta_sw", "eta_det", "eta_conv"):
            check_unit(name, getattr(self, name))

    @classmethod
    def table_defaults(cls, detection: Detection = Detection.SINGLE_DETECTOR,
                       **overrides) -> "SourceParams":
        """Default parameter set, with the detector efficiency matched to the
        detection protocol (:data:`PROTOCOL_ETA_DET`)."""
        overrides.setdefault("eta_det", PROTOCOL_ETA_DET[detection])
        return cls(**overrides)


def with_readings(params: SourceParams, *,
                  include_filter_in_d0: bool | None = None,
                  literal_exponent: bool | None = None) -> SourceParams:
    """``params`` with the readings given (not None) set, ``params`` itself
    if each is its field's object.  The one place naming the keywords that
    perfbench passes to eight entry points as ``**readings``; a misspelt one
    raises TypeError here.  It goes once perfbench sets the fields."""
    changes = {k: v for k, v in (("include_filter_in_d0", include_filter_in_d0),
                                 ("literal_exponent", literal_exponent))
               if v is not None and v is not getattr(params, k)}
    return replace(params, **changes) if changes else params


#: Canonical selection policy for each detection protocol: a single detector
#: can only record the first herald, a detector array enables last-photon
#: selection.
CANONICAL_SELECTION = {
    Detection.SINGLE_DETECTOR: Selection.FIRST_PHOTON,
    Detection.DETECTOR_ARRAY: Selection.LAST_PHOTON,
}


def as_integer(name: str, value, lo: int | None = None,
               hi: int | None = None) -> int:
    """``value`` as an int (a numpy integer too); DomainError unless it is
    an integer in lo..hi, where a bound of None is no bound.  A bool is not
    read as the 0 or 1 it holds."""
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    if n is None or isinstance(value, bool):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if lo is not None and n < lo:
        raise DomainError(f"{name} must be >= {lo}, got {n}")
    if hi is not None and n > hi:
        raise DomainError(f"{name} must be <= {hi}, got {n}")
    return n


def check_depth(n_bins) -> int:
    """``n_bins`` as an int; DomainError unless it is an integer in
    1..MAX_BINS."""
    return as_integer("n_bins", n_bins, 1, MAX_BINS)


def switch_passes(n_bins: int) -> int:
    """Switch passes of every bin of an N = ``n_bins`` binary delay tree,
    floor(log2 N) + 1: one per delay stage and one for the exit switch (the
    paper's count)."""
    return n_bins.bit_length()


@dataclass(frozen=True)
class SchemeConfig:
    """Multiplexing depth, delay topology, detection protocol and selection.

    The selection policy is tied to the detection hardware; passing
    ``selection`` explicitly with a non-canonical pairing requires
    ``allow_mismatched_selection=True`` (used for selection-policy studies).
    """

    n_bins: int
    topology: Topology = Topology.BINARY_DELAY
    detection: Detection = Detection.SINGLE_DETECTOR
    selection: Selection | None = None
    allow_mismatched_selection: bool = False

    def __post_init__(self) -> None:
        check_fields(self)
        object.__setattr__(self, "n_bins", check_depth(self.n_bins))
        canonical = CANONICAL_SELECTION[self.detection]
        if self.selection is None:
            object.__setattr__(self, "selection", canonical)
        elif self.selection is not canonical and not self.allow_mismatched_selection:
            raise DomainError(
                f"{self.detection.value} detection pairs with "
                f"{canonical.value}-photon selection; pass "
                "allow_mismatched_selection=True to override")


def pair_count_distribution(params: SourceParams, n: int) -> float:
    """Probability of generating exactly ``n`` photon pairs in one bin.

    The Poisson branch is the textbook pmf.  The thermal branch renormalizes
    the approximate pair-number form (n+1)(lam/2)^n e^-lam, whose closed-form
    sum is e^-lam / (1 - lam/2)^2, so that the distribution is exactly
    normalized and can be sampled.
    """
    n = as_integer("pair count", n, 0)
    lam = params.lam
    if lam == 0.0:
        return 1.0 if n == 0 else 0.0
    if params.pair_dist is PairDistribution.POISSON:
        return math.exp(-lam + n * math.log(lam) - math.lgamma(n + 1))
    x = lam / 2.0
    # (n+1) x^n e^-lam divided by e^-lam / (1-x)^2
    return (n + 1) * x**n * (1.0 - x) ** 2


def pair_generating_function(params: SourceParams, z: float) -> float:
    """G(z) = sum_n P(n) z^n: e^{lam (z-1)} for Poisson pairs and
    (1-x)^2 / (1-x z)^2 with x = lam/2 for renormalized thermal pairs."""
    lam = params.lam
    if params.pair_dist is PairDistribution.POISSON:
        return math.exp(lam * (z - 1.0))
    x = lam / 2.0
    return ((1.0 - x) / (1.0 - x * z)) ** 2


def pair_generating_derivative(params: SourceParams
                               ) -> Callable[[float], float]:
    """G'(z) = sum_n n P(n) z^(n-1) as a function of z alone, with the pair
    law's constants bound once: lam e^{lam (z-1)} for Poisson pairs and
    2x (1-x)^2 / (1-x z)^3 with x = lam/2 for renormalized thermal pairs."""
    lam = params.lam
    if params.pair_dist is PairDistribution.POISSON:
        exp = math.exp
        return lambda z: lam * exp(lam * (z - 1.0))
    x = lam / 2.0
    scale = 2.0 * x * (1.0 - x) ** 2
    return lambda z: scale / (1.0 - x * z) ** 3


def sample_pairs(params: SourceParams, rng, size: int):
    """``size`` int64 pair counts drawn with the numpy Generator ``rng``.
    Thermal pairs are negative-binomial with 2 successes; at lam = 0 either
    law takes the Poisson draw, which gives zeros and consumes nothing."""
    lam = params.lam
    if params.pair_dist is PairDistribution.POISSON or lam == 0.0:
        return rng.poisson(lam, size)
    return rng.negative_binomial(2, 1.0 - lam / 2.0, size)


def pair_pmf_array(params: SourceParams) -> list[float]:
    """pmf values for n = 0..MAX_PAIRS, summed over by the Monte Carlo tables."""
    return [pair_count_distribution(params, n) for n in range(MAX_PAIRS + 1)]

