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
    DETECTOR_ARRAY_SIZE,
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
    array of M = DETECTOR_ARRAY_SIZE detectors: additionally the average
    transmission of the minimal-depth binary routing tree, two chip-coupling
    passes, and the blanking duty factor (M - 1)/M left after a fired
    detector is blanked for the following output period.  With
    L = floor(log2 M), the tree has 2^(L+1) - M leaves at L switch passes
    and 2(M - 2^L) at L + 1 (7 and 18 for M = 25).
    """
    base = params.eta_conv * params.eta_det
    if scheme.detection is Detection.SINGLE_DETECTOR:
        return base
    m = DETECTOR_ARRAY_SIZE
    depth = m.bit_length() - 1
    routing = ((2 ** (depth + 1) - m) * params.eta_sw**depth
               + 2 * (m - 2**depth) * params.eta_sw ** (depth + 1)) / m
    return base * routing * params.eta_c**2 * ((m - 1) / m)


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


def delay_transmission(params: SourceParams, delay_bins: int) -> float:
    """Transmission over ``delay_bins`` bins of delay at alpha_inc dB per bin,
    10^(-alpha_inc * delay_bins / 10); ``params.literal_exponent`` drops the
    /10 and reads alpha_inc as a bare decadic exponent per bin (a deliberately
    non-default reading, kept for comparison)."""
    exponent = -params.alpha_inc * delay_bins
    if not params.literal_exponent:
        exponent /= 10.0
    return 10.0 ** exponent


def pic_transmission(params: SourceParams, scheme: SchemeConfig
                     ) -> tuple[float, ...]:
    """End-to-end on-chip transmission of every bin; bin r at index r - 1.

    Binary topology: the switch count is fixed at floor(log2 N) + 1 for every
    bin; the single-delay-line comparison pays one switch pass per bin of
    delay.  The photon of bin r is delayed by N - r bins (see
    :func:`delay_transmission`).
    """
    n = scheme.n_bins
    fixed = params.eta_f * params.eta_c
    delays = range(n - 1, -1, -1)
    if scheme.topology is Topology.BINARY_DELAY:
        fixed *= params.eta_sw ** n.bit_length()
        return tuple(fixed * delay_transmission(params, d) for d in delays)
    return tuple(fixed * params.eta_sw ** d * delay_transmission(params, d)
                 for d in delays)


def quiet_bins(scheme: SchemeConfig) -> range:
    """k(r), the number of bins that must stay quiet when bin r is selected,
    at index r - 1: r - 1 for first-photon selection, N - r for last."""
    n = scheme.n_bins
    if scheme.selection is Selection.FIRST_PHOTON:
        return range(n)
    return range(n - 1, -1, -1)


def total_efficiency(params: SourceParams, scheme: SchemeConfig, *,
                     include_filter_in_d0: bool | None = None,
                     literal_exponent: bool | None = None
                     ) -> EfficiencyBreakdown:
    """Generation efficiency eta with its full per-bin decomposition; B(r) is
    ``per_bin_success[r - 1]``."""
    params = with_readings(params, include_filter_in_d0, literal_exponent)
    eta_d = detection_efficiency(params, scheme)
    d0_val = no_herald_probability(params, eta_d)
    q = 1.0 - eta_d
    pic = pic_transmission(params, scheme)
    # t [G'(1-t) - q G'(q(1-t))]: a herald fires in bin r and exactly one
    # of its signal photons survives the chip (see the module docstring)
    per_bin = tuple(
        d0_val ** k
        * (t * (pair_generating_derivative(params, 1.0 - t)
                - q * pair_generating_derivative(params, q * (1.0 - t))))
        for k, t in zip(quiet_bins(scheme), pic))
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


def occupied_bins(n_bins: int, lam: float) -> int:
    """Expected number of occupied bins, ceil(lam * N), of the fig3c
    delay-line model.  A mean pair parameter above 1 would occupy more bins
    than the frame has."""
    if n_bins < 1:
        raise DomainError(f"n_bins must be >= 1, got {n_bins}")
    if not 0 < lam <= 1:
        raise DomainError(f"lam must be in (0, 1], got {lam}")
    return math.ceil(lam * n_bins)


def avg_linear_transmission(params: SourceParams, n_bins: int,
                            lam: float) -> float:
    """Expected delay-line transmission of the photon that last-photon
    selection picks.

    The selected bin is the maximum of n_occ = :func:`occupied_bins` uniform
    draws without replacement.  The result is the dot product of the per-bin
    delay transmissions (:func:`delay_transmission` over N - p bins) with
    those weights.  n_occ = 1 reduces to the uniform-weight control curve.
    """
    n_occ = occupied_bins(n_bins, lam)
    return math.fsum(w * delay_transmission(params, n_bins - p)
                     for p, w in enumerate(last_photon_weights(n_bins, n_occ),
                                           start=1))


def generation_rate(params: SourceParams, scheme: SchemeConfig) -> float:
    """Output rate in Hz: one emission slot every N pump periods.

    A rate that overflows to infinity (a subnormal period) raises DomainError.
    """
    rate = 1.0 / (scheme.n_bins * params.period)
    if not math.isfinite(rate):
        raise DomainError(f"generation rate 1/(N*period) is not finite for "
                          f"N={scheme.n_bins}, period={params.period!r}")
    return rate
