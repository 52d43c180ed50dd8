"""Closed-form generation efficiency of the multiplexed source.

The per-frame success probability decomposes over the bin r that supplies the
emitted photon:

    eta = sum_r B(r),
    B(r) = D0^k(r) * t_r [G'(1 - t_r) - q G'(q (1 - t_r))]

where G is the pair-number generating function of :mod:`photonmux.model`,
q = 1 - eta_d the probability that one idler escapes the heralding detector,
t_r the chip transmission of bin r, D0 = eta_f G(q) the per-bin probability
that no herald fires, and k(r) counts the bins that must stay quiet under the
selection policy (the bins before r for first-photon selection, after r for
last-photon).  The bracket is the sum over pair counts i of
P(i) (1 - q^i) i t_r (1 - t_r)^(i-1) in closed form.  The Monte Carlo engine
in :mod:`photonmux.montecarlo` realizes the same process stochastically and
is used as the independent cross-check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    Detection,
    DomainError,
    Selection,
    SchemeConfig,
    SourceParams,
    Topology,
    pair_generating_derivative,
    pair_generating_function,
    with_readings,
)


@dataclass(frozen=True)
class EfficiencyBreakdown:
    """Full decomposition of the generation efficiency at one design point."""

    eta_total: float
    per_bin_success: tuple[float, ...]
    pic_transmission: tuple[float, ...]
    d0: float


def detection_efficiency(params: SourceParams, scheme: SchemeConfig) -> float:
    """Effective heralding efficiency eta_d of the detection unit.

    Single detector: up-conversion times raw detector efficiency.  Detector
    array: additionally the average transmission of the binary routing tree
    (mixing 4-pass and 5-pass paths), two chip-coupling passes, and the
    blanking duty factor.
    """
    base = params.eta_conv * params.eta_det
    if scheme.detection is Detection.SINGLE_DETECTOR:
        return base
    g = scheme.array_geometry
    routing = (g.four_switch_paths * params.eta_sw**4
               + g.five_switch_paths * params.eta_sw**5) / g.array_size
    return base * routing * params.eta_c**2 * g.blanking


def no_herald_probability(params: SourceParams, eta_d: float) -> float:
    """Per-bin probability D0 that the heralding detector stays quiet.

    Every pair of the bin must escape detection: G(1 - eta_d).
    ``params.include_filter_in_d0`` keeps the filtering-efficiency prefactor
    of the printed model; without it D0 is the bare no-detection probability
    (see the flag discussion in the package README).
    """
    if not 0.0 <= eta_d <= 1.0:
        raise DomainError(f"eta_d must be in [0, 1], got {eta_d}")
    value = pair_generating_function(params, 1.0 - eta_d)
    return params.eta_f * value if params.include_filter_in_d0 else value


def switch_passes(scheme: SchemeConfig, r: int) -> int:
    """Number of switch passes for a photon heralded in bin r."""
    if scheme.topology is Topology.BINARY_DELAY:
        return int(math.floor(math.log2(scheme.n_bins))) + 1
    return scheme.n_bins - r


def delay_transmission(params: SourceParams, delay_bins: int) -> float:
    """Transmission over ``delay_bins`` bins of delay at alpha_inc dB per bin,
    10^(-alpha_inc * delay_bins / 10); ``params.literal_exponent`` drops the
    /10 and reads alpha_inc as a bare decadic exponent per bin (a deliberately
    non-default reading, kept for comparison)."""
    exponent = -params.alpha_inc * delay_bins
    if not params.literal_exponent:
        exponent /= 10.0
    return 10.0 ** exponent


def pic_transmission(params: SourceParams, scheme: SchemeConfig,
                     r: int) -> float:
    """End-to-end on-chip transmission for a photon heralded in bin r.

    Binary topology: the switch count is fixed at floor(log2 N) + 1 for every
    bin; the single-delay-line comparison pays one switch pass per bin of
    delay.  The photon is delayed by N - r bins (see
    :func:`delay_transmission`).
    """
    n = scheme.n_bins
    if not 1 <= r <= n:
        raise DomainError(f"bin index must be in [1, {n}], got {r}")
    return (params.eta_f * params.eta_c
            * params.eta_sw ** switch_passes(scheme, r)
            * delay_transmission(params, n - r))


def bin_success(params: SourceParams, scheme: SchemeConfig, r: int) -> float:
    """B(r): probability that the frame's output photon comes from bin r."""
    eta_d = detection_efficiency(params, scheme)
    d0_val = no_herald_probability(params, eta_d)
    pic = pic_transmission(params, scheme, r)
    return _bin_success_from_parts(params, scheme, r, d0_val, eta_d, pic)


def _bin_success_from_parts(params: SourceParams, scheme: SchemeConfig, r: int,
                            d0_val: float, eta_d: float, pic: float) -> float:
    # sum_i P(i) (1 - q^i) i t (1-t)^(i-1): a herald fires in the bin and
    # exactly one of its signal photons survives the chip
    q = 1.0 - eta_d
    heralded_and_survives = pic * (
        pair_generating_derivative(params, 1.0 - pic)
        - q * pair_generating_derivative(params, q * (1.0 - pic)))
    if scheme.selection is Selection.FIRST_PHOTON:
        quiet_bins = r - 1
    else:
        quiet_bins = scheme.n_bins - r
    return d0_val**quiet_bins * heralded_and_survives


def total_efficiency(params: SourceParams, scheme: SchemeConfig, *,
                     include_filter_in_d0: bool | None = None,
                     literal_exponent: bool | None = None
                     ) -> EfficiencyBreakdown:
    """Generation efficiency eta with its full per-bin decomposition."""
    params = with_readings(params, include_filter_in_d0, literal_exponent)
    eta_d = detection_efficiency(params, scheme)
    d0_val = no_herald_probability(params, eta_d)
    pic = tuple(pic_transmission(params, scheme, r)
                for r in range(1, scheme.n_bins + 1))
    per_bin = tuple(
        _bin_success_from_parts(params, scheme, r, d0_val, eta_d, pic[r - 1])
        for r in range(1, scheme.n_bins + 1))
    return EfficiencyBreakdown(
        eta_total=math.fsum(per_bin),
        per_bin_success=per_bin,
        pic_transmission=pic,
        d0=d0_val,
    )


def last_photon_weights(n_bins: int, n_occupied: int) -> list[float]:
    """Distribution of the last occupied bin when exactly ``n_occupied`` of
    ``n_bins`` bins hold photons, uniformly at random.

    Bin p is last for C(p-1, n_occupied-1) of the C(n_bins, n_occupied)
    equally likely placements; the ratio of the exact integers is correctly
    rounded.
    """
    if n_bins < 1:
        raise DomainError(f"n_bins must be >= 1, got {n_bins}")
    if not 1 <= n_occupied <= n_bins:
        raise DomainError(
            f"occupied-bin count must be in [1, {n_bins}], got {n_occupied}")
    total = math.comb(n_bins, n_occupied)
    return [math.comb(p - 1, n_occupied - 1) / total
            for p in range(1, n_bins + 1)]


def first_photon_weights(n_bins: int, n_occupied: int) -> list[float]:
    """Distribution of the first occupied bin; mirror image of
    :func:`last_photon_weights`."""
    return list(reversed(last_photon_weights(n_bins, n_occupied)))


def avg_linear_transmission(params: SourceParams, n_bins: int,
                            lam: float | None = None,
                            selection: Selection = Selection.LAST_PHOTON
                            ) -> float:
    """Expected delay-line transmission of the selected photon.

    The expected number of occupied bins is n_occ = ceil(lam * N); the
    selected bin follows the order statistics of n_occ uniform draws without
    replacement (maximum for last-photon selection, minimum for first).  The
    result is the dot product of the per-bin delay transmissions
    (:func:`delay_transmission` over N - p bins) with those weights.
    n_occ = 1 reduces to the uniform-weight control curve.
    """
    if n_bins < 1:
        raise DomainError(f"n_bins must be >= 1, got {n_bins}")
    lam = params.lam if lam is None else lam
    if lam <= 0:
        raise DomainError(f"lam must be > 0, got {lam}")
    n_occ = math.ceil(lam * n_bins)
    if n_occ > n_bins:
        raise DomainError(
            f"expected occupied bins {n_occ} exceeds n_bins {n_bins} "
            "(mean pair parameter above 1 is not modeled)")
    if selection is Selection.LAST_PHOTON:
        weights = last_photon_weights(n_bins, n_occ)
    else:
        weights = first_photon_weights(n_bins, n_occ)
    return math.fsum(w * delay_transmission(params, n_bins - p)
                     for p, w in enumerate(weights, start=1))


def generation_rate(params: SourceParams, scheme: SchemeConfig) -> float:
    """Output rate in Hz: one emission slot every N pump periods."""
    return 1.0 / (scheme.n_bins * params.period)
