"""Stochastic frame simulation, the independent oracle for the closed forms.

:func:`run_frame` realizes one frame literally.  It draws, in this order:
the pair count of every bin (:func:`photonmux.model.sample_pairs`); one
uniform per idler photon, bin by bin, a bin heralding when any of its idler
uniforms falls below eta_d; after policy selection, when the filter can
veto, one uniform per quiet bin, the frame vetoed when any is at or above
eta_f; then the binomial number of the selected bin's signal photons that
survive the chip.  Everything that depends only on the design (the readings,
eta_d, the closed form's transmission frame and k(r)) is built once per
design into a cached plan; its ``chunk_tables`` (the herald probability, and
the single and emission chances by quiet count) are built on an estimate's
first use.  A frame's selection is the control plane's own
(:func:`photonmux.control.select_first` or ``select_last``, as the scheme's
policy says).
:func:`estimate_eta` runs the same process vectorized over many trials,
sampling the selected bin directly from its geometric law and the outcome
from the law of the literal process summed over the selected bin's heralded
pair count; the joint law of (selected bin, outcome) is identical to the
literal per-bin process, which the test suite checks statistically.  The
pair law reaches the oracle only through its pmf and its sampler, the
fields of its record in :data:`photonmux.model.PAIR_LAWS` that
:func:`photonmux.model.pair_pmf_array` and ``sample_pairs`` read; the
closed form reads the same record's G and B(r) terms.

Trials are independent.  ``n_trials`` is split into fixed-size chunks, each
driven by its own generator spawned from the master seed, and chunk tallies
merge by summation, so results are identical for any worker count.

Each chunk draws, in this order: one herald-position uniform per trial,
then one outcome uniform per heralded trial.  The outcome uniform gives a
single photon below the selected bin's single chance, more than one from
there up to its emission chance, and vacuum above: the binomial law of the
survivors after the filter veto, with no pair-count or binomial draw.
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
    SchemeConfig,
    Selection,
    SourceParams,
    as_integer,
    pair_pmf_array,
    sample_pairs,
    with_readings,
)

_CHUNK_TRIALS = 65_536

#: Largest trial count one estimate may ask for, about 3.5 s at one worker
#: on a 2-core x86-64 host; it also bounds the chunk list at 1,526 entries.
MAX_TRIALS = 10**8

#: Largest thread count one estimate may ask for; each running chunk holds
#: its own temporaries.
MAX_WORKERS = 64

#: Largest pair-number mass the pair table may drop by ending at MAX_PAIRS.
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


def _as_rng(rng_seed) -> np.random.Generator:
    """``rng_seed`` itself when it is a Generator, else a generator seeded
    with it, which must be an integer >= 0."""
    if isinstance(rng_seed, np.random.Generator):
        return rng_seed
    return np.random.default_rng(as_integer("seed", rng_seed, 0))


@dataclass(frozen=True, eq=False)
class _Plan:
    """Everything a frame or an estimate needs that depends only on the
    design: the params with the readings merged, eta_d, the transmission
    frame (the ``pic_transmission`` of :func:`efficiency.total_efficiency`)
    and the quiet counts k(r) (:func:`efficiency.quiet_bins`), both bin r at
    index r - 1, and the chance that one quiet bin passes the filter
    (:func:`efficiency.quiet_bin_pass`), below 1 only where the filter can
    veto.  Its :attr:`chunk_tables` are the law
    :func:`_chunk_counts` draws from."""

    params: SourceParams
    eta_d: float
    pic: tuple[float, ...]
    quiet: tuple[int, ...]
    filter_pass: float

    @functools.cached_property
    def chunk_tables(self):
        """The herald probability per bin and, by quiet count k, a heralded
        trial's chances of a single photon and of any photon, built on
        first use, because only an estimate needs the pair table and its
        limit.  With t the selected bin's transmission, w = filter_pass ** k
        the chance that its quiet bins pass the filter, and
        c_m = P(m) (1 - (1-eta_d)^m) / p_herald the chance of m pairs in a
        heralded bin, the single chance is w t sum_m c_m m (1-t)^(m-1) and
        the emission chance w (1 - sum_m c_m (1-t)^m), m = 1..MAX_PAIRS.
        The sums run over the pmf, not the closed form's G and G', which
        keeps the oracle independent of the closed form's algebra."""
        params = self.params
        pmf = np.array(pair_pmf_array(params))
        dropped = 1.0 - math.fsum(pmf)
        if dropped > MAX_DROPPED_MASS:
            raise DomainError(
                f"lam = {params.lam}: a pair table ending at {MAX_PAIRS} pairs "
                f"would drop {dropped:.3g} of the {params.pair_dist.value} "
                f"pair-number mass (limit {MAX_DROPPED_MASS:g})")
        m = np.arange(pmf.size)
        herald_weight = pmf * (1.0 - (1.0 - self.eta_d) ** m)
        p_herald = float(herald_weight.sum())
        c = herald_weight / (p_herald or 1.0)  # c[0] = 0: no pair, no herald
        t = np.empty(len(self.quiet))
        t[list(self.quiet)] = self.pic
        w = self.filter_pass ** np.arange(t.size)
        rest = (1.0 - t)[:, None] ** m  # (1-t)^m by k and m
        single = w * t * (rest[:, :-1] @ (c * m)[1:])
        # rounding can leave the emission chance an ulp below the single
        # chance, as 1 - (1-t) can fall below t when one pair is certain
        emit = np.maximum(single, w * (1.0 - rest @ c))
        single.flags.writeable = emit.flags.writeable = False
        return p_herald, single, emit


@functools.lru_cache(maxsize=8, typed=True)
def _plan(params: SourceParams, scheme: SchemeConfig, **readings) -> _Plan:
    """The design plan, which consecutive frames and estimates of one design
    share; keyed on the readings as passed, typed, so a 1 misses a True."""
    params = with_readings(params, **readings)
    return _Plan(
        params=params,
        eta_d=efficiency.detection_efficiency(params, scheme),
        pic=efficiency.total_efficiency(params, scheme).pic_transmission,
        quiet=tuple(efficiency.quiet_bins(scheme.selection, scheme.n_bins)),
        filter_pass=efficiency.quiet_bin_pass(params),
    )


_OUTCOMES = (Outcome.VACUUM, Outcome.SINGLE, Outcome.MULTI)


def run_frame(params: SourceParams, scheme: SchemeConfig, rng_seed,
              **readings) -> TrialRecord:
    """Simulate one frame and return its full record.

    Draws, in this order: the pair count of every bin; one uniform per idler
    photon, bin by bin, a bin heralding when any of its idler uniforms falls
    below eta_d; for the selected bin, when the filter can veto, one uniform
    per quiet bin k(r), any at or above eta_f vetoing the frame; then the
    binomial number of the selected bin's signal photons that survive the
    chip.  Deterministic for a given integer seed.  Pass a
    ``numpy.random.Generator`` to draw consecutive frames from one stream.
    """
    plan = _plan(params, scheme, **readings)
    rng = _as_rng(rng_seed)

    pairs = sample_pairs(plan.params, rng, scheme.n_bins)
    pair_counts = tuple(pairs.tolist())
    idlers = rng.random(sum(pair_counts)).tolist()
    eta_d = plan.eta_d
    # only bins with pairs take idler uniforms, in bin order
    bits, start = bytearray(scheme.n_bins), 0
    for r in pairs.nonzero()[0].tolist():
        stop = start + pair_counts[r]
        if min(idlers[start:stop]) < eta_d:
            bits[r] = 1
        start = stop
    frame = HeraldFrame(bits)
    selected = (select_first if scheme.selection is Selection.FIRST_PHOTON
                else select_last)(frame)

    survivors = 0
    if selected is not None:
        k = plan.quiet[selected - 1]
        f = plan.filter_pass
        if not (k and f < 1.0 and rng.random(k).max() >= f):
            survivors = int(rng.binomial(pair_counts[selected - 1],
                                         plan.pic[selected - 1]))

    return TrialRecord(
        pair_counts=pair_counts,
        herald_bits=frame,
        selected_bin=selected,
        photons_surviving=survivors,
        outcome=_OUTCOMES[min(survivors, 2)],
    )


def _chunk_counts(plan: _Plan, n_trials: int, child_seed):
    """Sample one chunk of trials from the plan's :attr:`_Plan.chunk_tables`;
    returns the single count, the multi count and the per-bin single
    histogram.

    Draw order (see the module docstring): one uniform of length
    ``n_trials`` for the herald position, then an outcome uniform per
    heralded trial into the head of the same buffer.  Trials are indexed by
    their quiet count k, and the histogram is read back to bin order
    through the plan's quiet counts.
    """
    p_herald, single_by_k, emit_by_k = plan.chunk_tables
    n = single_by_k.size
    rng = np.random.default_rng(child_seed)
    if p_herald == 0.0:
        return 0, 0, np.zeros(n, dtype=np.int64)

    # k = g - 1 bins stay quiet before the selected herald at position g,
    # counted from the end where the policy starts; g is geometric
    u = rng.random(n_trials)
    if p_herald >= 1.0:
        u.fill(0.0)  # the first bin the policy reaches always heralds
    else:
        # u = 0 (log gives -inf) and a subnormal p_herald (the quotient
        # overflows) both give k = +inf: no herald in the frame, which the
        # compress below drops
        with np.errstate(divide="ignore", over="ignore"):
            np.log(u, out=u)
            u /= math.log1p(-p_herald)
        np.floor(u, out=u)
    quiet = np.compress(u < n, u).astype(np.intp)

    out_u = rng.random(out=u[:quiet.size])
    single = out_u < single_by_k.take(quiet)
    n_emitted = int(np.count_nonzero(out_u < emit_by_k.take(quiet)))
    by_k = np.bincount(np.compress(single, quiet), minlength=n)
    n_single = int(by_k.sum())
    return n_single, n_emitted - n_single, by_k.take(plan.quiet)


def estimate_eta(params: SourceParams, scheme: SchemeConfig, n_trials: int,
                 seed, *, workers: int = 1, **readings) -> EstimatorResult:
    """Monte Carlo estimate of the generation efficiency.

    The chunk layout depends only on ``n_trials``, so the result is
    bit-stable across worker counts.
    """
    plan = _plan(params, scheme, **readings)
    n_trials = as_integer("n_trials", n_trials, 1, MAX_TRIALS)
    workers = as_integer("workers", workers, 1, MAX_WORKERS)
    seed = as_integer("seed", seed, 0)
    sizes = [_CHUNK_TRIALS] * (n_trials // _CHUNK_TRIALS)
    if n_trials % _CHUNK_TRIALS:
        sizes.append(n_trials % _CHUNK_TRIALS)
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    plan.chunk_tables  # built, or refused, once, before the workers start
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(functools.partial(_chunk_counts, plan),
                                sizes, children))

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
