"""Stochastic frame simulation, the independent oracle for the closed forms.

:func:`run_frame` realizes one frame literally: per-bin pair counts,
per-photon Bernoulli idler detection, policy selection, per-photon survival
through the chip.  :func:`estimate_eta` runs the same process vectorized over
many trials, sampling the selected bin directly from its geometric law and
the selected bin's pair count from the heralded conditional table; the joint
law of (selected bin, pair count, survivors) is identical to the literal
per-bin process, which the test suite checks statistically.

Trials are independent.  ``n_trials`` is split into fixed-size chunks, each
driven by its own generator spawned from the master seed, and chunk tallies
merge by summation, so results are identical for any worker count.

Each chunk draws, in this order, three uniforms per trial (herald position,
pair count, filter veto) and then one binomial survivor count per heralded
trial, with n = 0 for a vetoed one.  The uniforms are drawn for every trial
although only the heralded trials read them, and numpy's binomial takes no
random numbers when n = 0, so the stream, and every estimate, is the same as
when every trial draws every variate.
"""
from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import efficiency
from .control import HeraldFrame, select_first, select_last
from .model import (
    MAX_PAIRS,
    DomainError,
    PairDistribution,
    SchemeConfig,
    Selection,
    SourceParams,
    pair_pmf_array,
    with_readings,
)

_CHUNK_TRIALS = 250_000

#: Largest trial count one estimate may ask for, about 12 s at one worker
#: on a 2-core x86-64 host; it also bounds the chunk list at 400 entries.
MAX_TRIALS = 10**8

#: Largest thread count one estimate may ask for; each running chunk holds
#: its own temporaries.
MAX_WORKERS = 64

#: Largest pair-number mass the herald table may drop by ending at MAX_PAIRS.
MAX_DROPPED_MASS = 1e-12


class Outcome(Enum):
    VACUUM = "vacuum"
    SINGLE = "single"
    MULTI = "multi"


@dataclass(frozen=True)
class TrialRecord:
    """One simulated frame."""

    pair_counts: tuple[int, ...]
    herald_bits: HeraldFrame
    selected_bin: int | None
    photons_surviving: int
    outcome: Outcome


@dataclass(frozen=True)
class EstimatorResult:
    """Monte Carlo estimate of the generation efficiency."""

    eta_hat: float
    std_err: float
    n_trials: int
    per_bin_hist: tuple[int, ...]
    n_single: int
    n_multi: int
    n_vacuum: int

    @property
    def multi_given_emission(self) -> float:
        """Multi-photon rate conditional on any photon being emitted."""
        emitted = self.n_single + self.n_multi
        return self.n_multi / emitted if emitted else 0.0


def _check_seed(seed) -> None:
    # numpy's SeedSequence raises a bare ValueError for a negative entropy
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")


def _as_rng(rng_seed) -> np.random.Generator:
    if isinstance(rng_seed, np.random.Generator):
        return rng_seed
    _check_seed(rng_seed)
    return np.random.default_rng(rng_seed)


def _sample_pairs(params: SourceParams, rng: np.random.Generator,
                  size: int) -> np.ndarray:
    lam = params.lam
    if lam == 0.0:
        return np.zeros(size, dtype=np.int64)
    if params.pair_dist is PairDistribution.POISSON:
        return rng.poisson(lam, size)
    # (n+1) x^n (1-x)^2 with x = lam/2 is negative-binomial with 2 successes
    return rng.negative_binomial(2, 1.0 - lam / 2.0, size)


@functools.lru_cache(maxsize=1)
def _frame_setup(params: SourceParams, scheme: SchemeConfig):
    """eta_d and the transmission frame of one design, which consecutive
    frames and estimates of that design share."""
    return (efficiency.detection_efficiency(params, scheme),
            efficiency.pic_transmission(params, scheme))


def run_frame(params: SourceParams, scheme: SchemeConfig, rng_seed, *,
              include_filter_in_d0: bool | None = None,
              literal_exponent: bool | None = None) -> TrialRecord:
    """Simulate one frame and return its full record.

    Deterministic for a given integer seed.  Pass a ``numpy.random.Generator``
    to draw consecutive frames from one stream.
    """
    params = with_readings(params, include_filter_in_d0, literal_exponent)
    rng = _as_rng(rng_seed)
    eta_d, pic = _frame_setup(params, scheme)

    pairs = _sample_pairs(params, rng, scheme.n_bins)
    detected = rng.binomial(pairs, eta_d)
    pair_counts = tuple(pairs.tolist())
    # 1 where at least one idler was detected
    frame = HeraldFrame(tuple(np.minimum(detected, 1).tolist()))

    if scheme.selection is Selection.FIRST_PHOTON:
        selected = select_first(frame)
    else:
        _, selected = select_last(frame)

    survivors = 0
    if selected is not None:
        vetoed = False
        if params.include_filter_in_d0 and params.eta_f < 1.0:
            coins = rng.random(efficiency.quiet_bins(scheme)[selected - 1])
            vetoed = bool((coins >= params.eta_f).any())
        if not vetoed:
            survivors = int(rng.binomial(pair_counts[selected - 1],
                                         pic[selected - 1]))

    if survivors == 0:
        outcome = Outcome.VACUUM
    elif survivors == 1:
        outcome = Outcome.SINGLE
    else:
        outcome = Outcome.MULTI
    return TrialRecord(
        pair_counts=pair_counts,
        herald_bits=frame,
        selected_bin=selected,
        photons_surviving=survivors,
        outcome=outcome,
    )


def _herald_tables(params: SourceParams, eta_d: float):
    """Herald probability per bin and the cumulative conditional pair-count
    table P(i | heralded), i = 1..MAX_PAIRS."""
    pmf = np.array(pair_pmf_array(params))
    dropped = 1.0 - math.fsum(pmf)
    if dropped > MAX_DROPPED_MASS:
        raise DomainError(
            f"lam = {params.lam}: a pair table ending at {MAX_PAIRS} pairs "
            f"would drop {dropped:.3g} of the {params.pair_dist.value} "
            f"pair-number mass (limit {MAX_DROPPED_MASS:g})")
    i = np.arange(pmf.size)
    herald_weight = pmf * (1.0 - (1.0 - eta_d) ** i)
    p_herald = float(herald_weight.sum())
    if p_herald <= 0.0:
        return 0.0, None
    cond = herald_weight[1:] / p_herald
    return p_herald, np.cumsum(cond)


def _chunk_counts(params: SourceParams, scheme: SchemeConfig, p_herald: float,
                  cond_cum, pic: np.ndarray, n_trials: int, child_seed):
    """Sample one chunk of trials from the herald tables and the
    transmission frame that :func:`estimate_eta` builds once; returns the
    single count, the multi count and the per-bin single histogram.

    Draw order (see the module docstring): three uniforms of length
    ``n_trials`` into one buffer, of which only the heralded trials' are
    kept, then one binomial per heralded trial in trial order.  Each
    temporary is deleted once dead, so at most about five chunk-length
    arrays are live at once.
    """
    rng = np.random.default_rng(child_seed)
    n = scheme.n_bins
    if p_herald == 0.0:
        return 0, 0, np.zeros(n, dtype=np.int64)

    # k = g - 1 bins stay quiet before the selected herald at position g,
    # counted from the end where the policy starts; g is geometric
    u = rng.random(n_trials)
    if p_herald >= 1.0:
        u.fill(0.0)  # the first bin the policy reaches always heralds
    else:
        with np.errstate(divide="ignore"):
            np.log(u, out=u)
            u /= math.log1p(-p_herald)
        np.floor(u, out=u)
    heralded = np.flatnonzero(u < n)
    quiet = u.take(heralded).astype(np.intp)

    # a uniform at or below cond_cum[0] means exactly one pair
    rng.random(out=u)
    pair_u = u.take(heralded)
    many = np.flatnonzero(pair_u > cond_cum[0])
    above = pair_u.take(many)
    del pair_u
    extra = np.searchsorted(cond_cum, above)
    del above
    extra += 1
    pairs = np.ones(heralded.size, dtype=np.int64)
    pairs[many] = extra
    del many, extra

    rng.random(out=u)
    veto = params.eta_f if params.include_filter_in_d0 else 1.0
    veto_u = u.take(heralded) if veto < 1.0 else None
    del u, heralded
    if veto_u is not None:
        # veto ** k for k in 0..N-1 takes the same power per trial as the
        # full-length sampler; a vetoed trial, like one with no pairs,
        # draws no binomial
        threshold = veto ** np.arange(n, dtype=float)
        pairs[veto_u >= threshold.take(quiet)] = 0
        del veto_u

    # the selected bin r at index r - 1: k bins from the start of the frame
    # under first-photon selection, from its end under last-photon
    if scheme.selection is Selection.FIRST_PHOTON:
        selected = quiet
    else:
        selected = np.subtract(n - 1, quiet, out=quiet)
    survivors = rng.binomial(pairs, pic[selected])
    del pairs
    per_bin = np.bincount(selected, weights=survivors == 1, minlength=n)
    n_multi = int(np.count_nonzero(survivors >= 2))
    return int(per_bin.sum()), n_multi, per_bin.astype(np.int64)


def estimate_eta(params: SourceParams, scheme: SchemeConfig, n_trials: int,
                 seed, *, workers: int = 1,
                 include_filter_in_d0: bool | None = None,
                 literal_exponent: bool | None = None) -> EstimatorResult:
    """Monte Carlo estimate of the generation efficiency.

    The chunk layout depends only on ``n_trials``, so the result is
    bit-stable across worker counts.
    """
    if not 1 <= n_trials <= MAX_TRIALS:
        raise DomainError(f"n_trials must be in [1, {MAX_TRIALS}], got {n_trials}")
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    if workers > MAX_WORKERS:
        raise DomainError(f"workers must be <= {MAX_WORKERS}, got {workers}")
    _check_seed(seed)
    sizes = [_CHUNK_TRIALS] * (n_trials // _CHUNK_TRIALS)
    if n_trials % _CHUNK_TRIALS:
        sizes.append(n_trials % _CHUNK_TRIALS)
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    params = with_readings(params, include_filter_in_d0, literal_exponent)
    eta_d, pic = _frame_setup(params, scheme)
    job = functools.partial(_chunk_counts, params, scheme,
                            *_herald_tables(params, eta_d), np.array(pic))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(job, sizes, children))

    n_single = sum(r[0] for r in results)
    n_multi = sum(r[1] for r in results)
    per_bin = np.sum([r[2] for r in results], axis=0)
    eta_hat = n_single / n_trials
    return EstimatorResult(
        eta_hat=eta_hat,
        std_err=math.sqrt(eta_hat * (1.0 - eta_hat) / n_trials),
        n_trials=n_trials,
        per_bin_hist=tuple(int(c) for c in per_bin),
        n_single=n_single,
        n_multi=n_multi,
        n_vacuum=n_trials - n_single - n_multi,
    )


def estimate_avg_lin(params: SourceParams, n_bins: int, lam: float,
                     n_trials: int, seed) -> float:
    """Empirical mean delay-line transmission under last-photon selection.

    Exactly :func:`efficiency.occupied_bins` photons occupy bins drawn
    uniformly without replacement (the order-statistics reading checked
    against the closed-form weights).
    """
    if n_trials < 1:
        raise DomainError(f"n_trials must be >= 1, got {n_trials}")
    n_occ = efficiency.occupied_bins(n_bins, lam)
    rng = np.random.default_rng(seed)
    # an oracle for avg_linear_transmission keeps its own delay-loss formula
    exponent = -params.alpha_inc * (n_bins - np.arange(1, n_bins + 1))
    trans = 10.0 ** (exponent if params.literal_exponent else exponent / 10.0)

    total = 0.0
    chunk = max(1, min(n_trials, 4_000_000 // n_bins))
    remaining = n_trials
    while remaining:
        m = min(chunk, remaining)
        remaining -= m
        keys = rng.random((m, n_bins))
        occupied = np.argpartition(keys, n_occ - 1, axis=1)[:, :n_occ]
        last = occupied.max(axis=1)
        total += float(trans[last].sum())
    return total / n_trials
