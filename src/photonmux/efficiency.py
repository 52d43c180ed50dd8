"""Closed-form generation efficiency of the multiplexed source.

The per-frame success probability decomposes over the bin r that supplies the
emitted photon:

    eta = sum_r B(r),
    B(r) = D0^k(r) * t_r [G'(1 - t_r) - q G'(q (1 - t_r))]

where G is the pair-number generating function of :mod:`photonmux.model`,
q = 1 - eta_d the probability that one idler escapes the heralding detector,
t_r the chip transmission of bin r (:func:`_frame`), D0 = f G(q) the
per-bin probability that no herald fires and the bin passes the filter (f
from :func:`quiet_bin_pass`), and k(r) = :func:`quiet_bins` counts the bins
that must stay quiet under the selection policy (the bins before r for
first-photon selection, after r for last-photon).  The bracket is the sum
over pair counts i of P(i) (1 - q^i) i t_r (1 - t_r)^(i-1) in closed form.
The Monte Carlo engine in :mod:`photonmux.montecarlo` realizes the same
process stochastically and is used as the independent cross-check.

:func:`eta_curve` gives eta at many N: eta_d, D0, the D0^k table and the
delay transmissions do not depend on N and are built once per curve.  B(r)
is one loop, the ``terms`` of the pair law's record in
:data:`photonmux.model.PAIR_LAWS`, with G' written inline; those terms are
the package's one writer of G'.  Within an octave of N (one
``switch_passes(N)`` on the binary tree, every N on the single delay line) a
bin's chip transmission depends only on its delay, and so, under last-photon
selection, where k(r) = N - r is the delay, does B(r): eta(N) is a running
sum, each term is computed once per octave, and :func:`best_eta` reads
only each octave's largest N.  First-photon curves evaluate every term at
every N, because bin r's power D0^(r-1) moves with N at a fixed delay.
:func:`total_efficiency` is the one-N case of the same code, and its
breakdown's ``pic_transmission`` is the one public view of the chip frame.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    DETECTOR_ARRAY_SIZE,
    PAIR_LAWS,
    Detection,
    DomainError,
    Range,
    Selection,
    SchemeConfig,
    SourceParams,
    Topology,
    as_integer,
    check_depth,
    check_unit,
    pair_generating_function,
    switch_passes,
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


def quiet_bin_pass(params: SourceParams) -> float:
    """Chance that one quiet bin passes the filter under the D0 reading:
    eta_f when ``params.include_filter_in_d0`` keeps the filtering-efficiency
    prefactor of the printed model, else 1.0 (see the flag discussion in the
    package README)."""
    return params.eta_f if params.include_filter_in_d0 else 1.0


def no_herald_probability(params: SourceParams, eta_d: float) -> float:
    """Per-bin probability D0 that the heralding detector stays quiet and
    the bin passes the filter: :func:`quiet_bin_pass` times G(1 - eta_d),
    the chance that every pair of the bin escapes detection.
    """
    eta_d = check_unit("eta_d", eta_d)
    return quiet_bin_pass(params) * pair_generating_function(params,
                                                             1.0 - eta_d)


def delay_table(params: SourceParams, n: int) -> list[float]:
    """Transmission over d bins of delay at alpha_inc dB per bin,
    10^(-alpha_inc * d / 10), at index d for d = 0..n - 1.
    ``params.literal_exponent`` drops the /10 and reads alpha_inc as a bare
    decadic exponent per bin (a deliberately non-default reading, kept for
    comparison)."""
    alpha = params.alpha_inc
    scale = 1.0 if params.literal_exponent else 10.0
    return [10.0 ** (-alpha * d / scale) for d in range(n)]


def _frame(params: SourceParams, topology: Topology, n: int,
           delay: list[float], delays: range) -> list[float]:
    """Chip transmission in an N = ``n`` frame at each delay of ``delays``:
    eta_f eta_c, the :func:`delay_table` entry (bin r is delayed N - r bins)
    and ``switch_passes(N)`` switch passes on the binary tree, one per bin
    of delay on the single delay line."""
    fixed = params.eta_f * params.eta_c
    if topology is Topology.BINARY_DELAY:
        fixed *= params.eta_sw ** switch_passes(n)
        return [fixed * delay[d] for d in delays]
    eta_sw = params.eta_sw
    return [fixed * eta_sw ** d * delay[d] for d in delays]


def _octave(n: int, topology: Topology) -> int:
    """Key of N's octave, within which a bin's chip transmission depends only
    on its delay: ``switch_passes(N)`` on the binary tree, one key otherwise."""
    return switch_passes(n) if topology is Topology.BINARY_DELAY else 0


def quiet_bins(selection: Selection, n: int) -> range:
    """k(r), the number of bins that must stay quiet when bin r of an
    N = ``n`` frame is selected, at index r - 1: r - 1 for first-photon
    selection, bin r's delay N - r for last.  The one writer of k(r):
    :func:`_success_terms` and the Monte Carlo plan both read it."""
    if selection is Selection.FIRST_PHOTON:
        return range(n)
    return range(n - 1, -1, -1)


def _success_terms(params: SourceParams, scheme: SchemeConfig, n_values):
    """(D0, chip transmissions, B(r)) of every N in ``n_values``, in order;
    ``scheme.n_bins`` is not read.

    eta_d, D0, q, the D0^k table and the delay table depend on the design
    but not on N, so they are built once for the whole sequence.  B(r) is
    the pair law's ``terms`` comprehension (``model.PAIR_LAWS``) over
    (k, t) pairs, with G' written inline in one operation order, so every
    value keeps the bits of ``D0 ** k * (t * (G'(1-t) - q * G'(q(1-t))))``
    with G' written in that order (the tests' reference G').

    Every k(r) comes from :func:`quiet_bins`.  Each :func:`_octave` keeps
    one tuple of transmissions, in bin order of its largest N so far, whose
    last N entries serve each N of it; a larger N computes only its new
    delays, which go in front.  Under last-photon selection k(r) is the
    delay, so B(r) depends only on the delay too: the octave keeps its
    terms beside, and only the new leading bins are zipped with their k(r).
    First-photon terms are evaluated afresh for each N.  Nothing outlives
    the call.
    """
    eta_d = detection_efficiency(params, scheme)
    d0_val = no_herald_probability(params, eta_d)
    q = 1.0 - eta_d
    n_max = max(n_values, default=0)
    powers = [d0_val ** k for k in range(n_max)]
    delay = delay_table(params, n_max)
    topology = scheme.topology
    # t [G'(1-t) - q G'(q(1-t))]: a herald fires in bin r and exactly one of
    # its signal photons survives the chip (see the module docstring)
    terms = PAIR_LAWS[params.pair_dist].terms(params.lam, q, powers)
    selection = scheme.selection
    last = selection is Selection.LAST_PHOTON
    by_octave = {}
    for n in n_values:
        key = _octave(n, topology)
        quiet = quiet_bins(selection, n)
        pic, per_bin = by_octave.get(key, ((), ()))
        if len(pic) < n:
            # the new delays, which lead in bin order; zip stops at them
            new = _frame(params, topology, n, delay,
                         range(n - 1, len(pic) - 1, -1))
            pic = tuple(new) + pic
            if last:
                per_bin = tuple(terms(zip(quiet, new))) + per_bin
            by_octave[key] = pic, per_bin
        pic = pic[-n:]
        yield d0_val, pic, (per_bin[-n:] if last else terms(zip(quiet, pic)))


def total_efficiency(params: SourceParams, scheme: SchemeConfig,
                     **readings) -> EfficiencyBreakdown:
    """Generation efficiency eta with its full per-bin decomposition; B(r) is
    ``per_bin_success[r - 1]``."""
    params = with_readings(params, **readings)
    d0_val, pic, per_bin = next(
        _success_terms(params, scheme, (scheme.n_bins,)))
    return EfficiencyBreakdown(
        eta_total=math.fsum(per_bin),
        per_bin_success=tuple(per_bin),
        pic_transmission=tuple(pic),
        d0=d0_val,
    )


def eta_curve(params: SourceParams, scheme: SchemeConfig, n_values
              ) -> tuple[float, ...]:
    """``total_efficiency(...).eta_total`` at every depth N of the sequence
    ``n_values``, in its order, bit for bit; ``scheme.n_bins`` is not read.

    The work that does not depend on N is done once for the whole curve.
    A depth that is not an integer in 1..MAX_BINS raises DomainError before
    any is evaluated.
    """
    n_values = [check_depth(n) for n in n_values]
    return tuple(math.fsum(per_bin) for _, _, per_bin
                 in _success_terms(params, scheme, n_values))


def best_eta(params: SourceParams, scheme: SchemeConfig, n_values) -> float:
    """``max(eta_curve(params, scheme, n_values))``, bit for bit.  Under
    last-photon selection eta gains a term >= 0 per N within an
    :func:`_octave`, so only each octave's largest N is evaluated.  An empty
    ``n_values``, or a depth that is not an integer in 1..MAX_BINS, raises
    DomainError before any depth is evaluated."""
    n_values = [check_depth(n) for n in n_values]
    if not n_values:
        raise DomainError("best_eta needs at least one depth")
    if scheme.selection is Selection.LAST_PHOTON:
        n_values = {_octave(n, scheme.topology): n
                    for n in sorted(n_values)}.values()
    return max(eta_curve(params, scheme, n_values))


def last_photon_weights(n_bins: int, n_occupied: int) -> list[float]:
    """Distribution of the last occupied bin when exactly ``n_occupied`` of
    ``n_bins`` bins hold photons, uniformly at random.

    Bin p is last for C(p-1, n_occupied-1) of the C(n_bins, n_occupied)
    equally likely placements; the ratio of the exact integers is correctly
    rounded.
    """
    n_bins = check_depth(n_bins)
    n_occupied = as_integer("n_occupied", n_occupied, 1, n_bins)
    total = math.comb(n_bins, n_occupied)
    return [math.comb(p - 1, n_occupied - 1) / total
            for p in range(1, n_bins + 1)]


def occupied_bins(n_bins: int, lam: float) -> int:
    """Expected number of occupied bins, ceil(lam * N), of the fig3c
    delay-line model.  A mean pair parameter above 1 would occupy more bins
    than the frame has.  A depth that is not an integer in 1..MAX_BINS
    raises DomainError, as does a ``lam`` that is not a real in (0, 1]."""
    n_bins = check_depth(n_bins)
    lam = Range(math.ulp(0.0), 1.0, "in (0, 1]").check("lam", lam)
    return math.ceil(lam * n_bins)


def avg_linear_transmission(params: SourceParams, n_bins: int,
                            lam: float) -> float:
    """Expected delay-line transmission of the photon that last-photon
    selection picks.

    The selected bin is the maximum of n_occ = :func:`occupied_bins` uniform
    draws without replacement.  The result is the dot product of the per-bin
    delay transmissions (:func:`delay_table` at N - p bins) with those
    weights.  n_occ = 1 reduces to the uniform-weight control curve.
    """
    n_occ = occupied_bins(n_bins, lam)
    delay = delay_table(params, n_bins)
    return math.fsum(w * delay[n_bins - p]
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
