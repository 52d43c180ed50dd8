import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from photonmux import efficiency
from photonmux.efficiency import (
    avg_linear_transmission,
    last_photon_weights,
    total_efficiency,
)
from photonmux.control import HeraldFrame, select_first, select_last
from photonmux.model import (
    MAX_BINS,
    Detection,
    DomainError,
    PairDistribution,
    SchemeConfig,
    Selection,
    SourceParams,
    Topology,
    pair_generating_function,
    pair_pmf_array,
    sample_pairs,
)
from photonmux.montecarlo import (
    _CHUNK_TRIALS,
    MAX_TRIALS,
    MAX_WORKERS,
    Outcome,
    _chunk_counts,
    _plan,
    estimate_eta,
    run_frame,
)

IDEAL = SourceParams(eta_f=1.0, eta_c=1.0, eta_sw=1.0, eta_det=1.0,
                     eta_conv=1.0, alpha_inc=0.0)


def scheme(n, **kw):
    return SchemeConfig(n_bins=n, **kw)


#: Closed form against Monte Carlo: both pair distributions under both
#: detection protocols, thermal at pumping strong enough to tell the two
#: distributions apart, each non-default reading of the model, and a strong
#: filter veto (eta_f = 0.5) under both selection policies, where the count
#: k(r) of bins that must stay quiet moves the answer.
ORACLE_CASES = [
    (8, Topology.BINARY_DELAY, Detection.SINGLE_DETECTOR, 0.1,
     PairDistribution.POISSON, {}),
    (16, Topology.SINGLE_DELAY_LINE, Detection.SINGLE_DETECTOR, 0.02,
     PairDistribution.POISSON, {}),
    (31, Topology.BINARY_DELAY, Detection.DETECTOR_ARRAY, 0.1,
     PairDistribution.POISSON, {}),
    (8, Topology.BINARY_DELAY, Detection.SINGLE_DETECTOR, 0.3,
     PairDistribution.THERMAL_APPROX, {}),
    (31, Topology.BINARY_DELAY, Detection.DETECTOR_ARRAY, 0.5,
     PairDistribution.THERMAL_APPROX, {}),
    (31, Topology.BINARY_DELAY, Detection.SINGLE_DETECTOR, 1.0,
     PairDistribution.THERMAL_APPROX, {}),
    (31, Topology.BINARY_DELAY, Detection.SINGLE_DETECTOR, 0.1,
     PairDistribution.POISSON, {"include_filter_in_d0": False}),
    (16, Topology.SINGLE_DELAY_LINE, Detection.DETECTOR_ARRAY, 0.1,
     PairDistribution.POISSON, {"literal_exponent": True}),
    (16, Topology.BINARY_DELAY, Detection.SINGLE_DETECTOR, 0.1,
     PairDistribution.POISSON, {"eta_f": 0.5}),
    (16, Topology.BINARY_DELAY, Detection.DETECTOR_ARRAY, 0.1,
     PairDistribution.POISSON, {"eta_f": 0.5}),
]


def _oracle_case_id(n, topology, detection, lam, dist, overrides):
    # only non-default (thermal) cases name their distribution, and only
    # non-default parameters and readings are named
    base = f"{n}-{topology}-{detection}-{lam}"
    if dist is not PairDistribution.POISSON:
        base = f"{base}-{dist.value}"
    return "-".join([base, *(f"{k}={v}" for k, v in overrides.items())])


class TestRunFrame:
    def test_fixed_seed_replays_identical_record(self):
        a = run_frame(SourceParams(), scheme(16), 1234)
        b = run_frame(SourceParams(), scheme(16), 1234)
        assert a == b
        # a numpy-integer seed is read as the int it holds
        assert run_frame(SourceParams(), scheme(16), np.int64(1234)) == a

    def test_different_seeds_differ(self):
        records = {run_frame(SourceParams(), scheme(16), s).pair_counts
                   for s in range(20)}
        assert len(records) > 1

    def test_no_pumping_gives_vacuum(self):
        for s in range(10):
            rec = run_frame(SourceParams(lam=0.0), scheme(8), s)
            assert rec.outcome is Outcome.VACUUM
            assert rec.selected_bin is None
            assert rec.photons_surviving == 0

    def test_record_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            rec = run_frame(SourceParams(), scheme(8), rng)
            assert (rec.selected_bin is not None) == any(rec.herald_bits.bits)
            assert (rec.outcome is Outcome.SINGLE) == (rec.photons_surviving == 1)
            assert len(rec.pair_counts) == 8

    def test_single_heralded_pair_with_ideal_chip_always_single(self):
        rng = np.random.default_rng(99)
        seen = 0
        for _ in range(400):
            rec = run_frame(IDEAL, scheme(8), rng)
            if rec.selected_bin is not None and \
                    rec.pair_counts[rec.selected_bin - 1] == 1:
                seen += 1
                assert rec.outcome is Outcome.SINGLE
        assert seen > 50

    def test_selection_follows_policy(self):
        rng = np.random.default_rng(5)
        last_scheme = scheme(8, detection=Detection.DETECTOR_ARRAY)
        for _ in range(200):
            rec = run_frame(SourceParams.table_defaults(Detection.DETECTOR_ARRAY),
                            last_scheme, rng)
            if rec.selected_bin is not None:
                highest = max(i + 1 for i, b in enumerate(rec.herald_bits.bits) if b)
                assert rec.selected_bin == highest

    def test_idler_and_veto_draws_follow_their_laws(self):
        # a bin of i pairs heralds with 1 - (1 - eta_d)^i, and a selected bin
        # behind k quiet bins passes the filter with eta_f^k (1 under the
        # bare-D0 reading), seen through frames with a surviving photon:
        # eta_f^k (1 - (1 - t)^m).  Both pair laws, both readings, eta_f =
        # 0.5 on an otherwise ideal chip; Bonferroni over every cell.
        scipy_stats = pytest.importorskip("scipy.stats")
        n, frames = 4, 40_000
        laws = [(PairDistribution.POISSON, 0.5),
                (PairDistribution.THERMAL_APPROX, 0.6)]
        heralds, passes = (1, 2, 3), range(n)
        threshold = 0.001 / (len(laws) * 2 * (len(heralds) + len(passes)))
        for (dist, lam), in_d0 in itertools.product(laws, (True, False)):
            params = SourceParams(lam=lam, pair_dist=dist, eta_f=0.5,
                                  eta_c=1.0, eta_sw=1.0, alpha_inc=0.0,
                                  include_filter_in_d0=in_d0)
            s = scheme(n)
            eta_d = efficiency.detection_efficiency(params, s)
            (t,) = set(efficiency.total_efficiency(params, s).pic_transmission)
            bins = {i: [0, 0] for i in heralds}
            # per k: frames with survivors, and the sum and variance of
            # their probabilities
            survived = {k: [0, 0.0, 0.0] for k in passes}
            rng = np.random.default_rng(71)
            for _ in range(frames):
                rec = run_frame(params, s, rng)
                for m, bit in zip(rec.pair_counts, rec.herald_bits.bits):
                    if m in bins:
                        bins[m][0] += 1
                        bins[m][1] += bit
                if rec.selected_bin is None:
                    continue
                k = rec.selected_bin - 1
                p = ((params.eta_f ** k if in_d0 else 1.0)
                     * (1.0 - (1.0 - t) ** rec.pair_counts[k]))
                cell = survived[k]
                cell[0] += rec.photons_surviving > 0
                cell[1] += p
                cell[2] += p * (1.0 - p)
            for i, (seen, fired) in bins.items():
                assert seen >= 1_000, (dist, in_d0, i)
                p_value = scipy_stats.binomtest(
                    fired, seen, 1.0 - (1.0 - eta_d) ** i).pvalue
                assert p_value > threshold, (dist, in_d0, i, p_value)
            for k, (count, mean, var) in survived.items():
                assert mean >= 100.0, (dist, in_d0, k)
                z = (count - mean) / math.sqrt(var)
                p_value = 2.0 * scipy_stats.norm.sf(abs(z))
                assert p_value > threshold, (dist, in_d0, k, z)


class TestEstimateEta:
    def test_deterministic_and_worker_invariant(self):
        p, s = SourceParams(), scheme(16)
        a = estimate_eta(p, s, 300_000, seed=5)
        b = estimate_eta(p, s, 300_000, seed=5)
        c = estimate_eta(p, s, 300_000, seed=5, workers=3)
        assert a == b == c
        # one chunk, and three chunks with more workers than chunks
        for n_trials, workers in ((_CHUNK_TRIALS - 1, (1, 4)),
                                  (2 * _CHUNK_TRIALS + 1_000, (1, 2, 5))):
            first, *rest = (estimate_eta(p, s, n_trials, seed=5, workers=w)
                            for w in workers)
            assert all(r == first for r in rest)
        # numpy integers are read as the ints they hold
        assert estimate_eta(p, s, np.int64(n_trials), seed=np.int64(5),
                            workers=np.int64(2)) == first

    @pytest.mark.parametrize("workers,message", [
        (0, ">= 1"), (-3, ">= 1"), (1.5, "an integer")],
        ids=["0", "-3", "1.5"])
    def test_rejects_fewer_than_one_worker(self, workers, message):
        with pytest.raises(DomainError, match=f"workers must be {message}"):
            estimate_eta(SourceParams(), scheme(8), 10_000, seed=1,
                         workers=workers)

    @pytest.mark.parametrize("workers", [MAX_WORKERS + 1, 100_000])
    def test_rejects_more_than_max_workers(self, workers):
        # the check runs before the pool exists, so this starts no thread
        with pytest.raises(DomainError, match=f"workers must be <= {MAX_WORKERS}"):
            estimate_eta(SourceParams(), scheme(8), 10_000, seed=1,
                         workers=workers)

    @pytest.mark.parametrize("seed,message", [
        (-1, ">= 0, got -1$"), (np.int64(-7), ">= 0, got -7$"),
        (1.5, "an integer, got 1.5$"), ("3", "an integer, got '3'$"),
        (None, "an integer, got None$"), (False, "an integer, got False$")],
        ids=["-1", "seed1", "1.5", "'3'", "None", "False"])
    def test_rejects_negative_seed(self, seed, message):
        for call in (
                lambda: estimate_eta(SourceParams(), scheme(4), 100, seed=seed),
                lambda: run_frame(SourceParams(), scheme(4), seed)):
            with pytest.raises(DomainError, match=f"^seed must be {message}"):
                call()

    def test_no_pumping_estimates_zero(self):
        r = estimate_eta(SourceParams(lam=0.0), scheme(8), 10_000, seed=1)
        assert r.eta_hat == 0.0
        assert r.n_vacuum == 10_000

    def test_subnormal_lambda_estimates_zero(self):
        # log u / log1p(-p_herald) overflows to +inf for a subnormal
        # p_herald; that means no herald and must not warn
        r = estimate_eta(SourceParams(lam=1e-310), scheme(16), 1000, seed=0)
        assert r.n_single == 0
        assert r.n_vacuum == 1000

    def test_std_err_definition(self):
        r = estimate_eta(SourceParams(), scheme(8), 50_000, seed=2)
        assert r.std_err == pytest.approx(
            math.sqrt(r.eta_hat * (1 - r.eta_hat) / r.n_trials), rel=1e-12)

    @pytest.mark.parametrize(
        "n,topology,detection,lam,dist,overrides", ORACLE_CASES,
        ids=[_oracle_case_id(*case) for case in ORACLE_CASES])
    def test_matches_analytic_within_three_sigma(self, n, topology, detection,
                                                 lam, dist, overrides):
        p = SourceParams.table_defaults(detection, lam=lam, pair_dist=dist,
                                        **overrides)
        s = scheme(n, topology=topology, detection=detection)
        analytic = total_efficiency(p, s).eta_total
        r = estimate_eta(p, s, 400_000, seed=n * 1000 + 17)
        assert abs(r.eta_hat - analytic) < 3 * r.std_err

    def test_matches_literal_frame_loop(self):
        # the vectorized sampler and the literal per-bin process realize the
        # same law; compare their estimates statistically
        p, s = SourceParams(), scheme(8)
        n = 40_000
        rng = np.random.default_rng(31)
        singles = sum(run_frame(p, s, rng).outcome is Outcome.SINGLE
                      for _ in range(n))
        literal = singles / n
        vector = estimate_eta(p, s, n, seed=31).eta_hat
        pooled = math.sqrt(2 * literal * (1 - literal) / n)
        assert abs(literal - vector) < 4 * pooled

    def test_thermal_distribution_supported(self):
        p = SourceParams(lam=0.1, pair_dist=PairDistribution.THERMAL_APPROX)
        r = estimate_eta(p, scheme(8), 200_000, seed=3)
        assert 0.0 < r.eta_hat < 1.0

    def test_thermal_pair_table_truncation_is_bounded(self):
        # beyond n = 200 the thermal tail holds 2e-13 of the mass at
        # lam = 1.7 and 3.7e-4 at lam = 1.9
        near = SourceParams(lam=1.7, pair_dist=PairDistribution.THERMAL_APPROX)
        assert 0.0 < estimate_eta(near, scheme(8), 10_000, seed=4).eta_hat < 1.0
        far = SourceParams(lam=1.9, pair_dist=PairDistribution.THERMAL_APPROX)
        with pytest.raises(DomainError, match=r"lam = 1\.9: .* drop 0\.000368"):
            estimate_eta(far, scheme(8), 10_000, seed=4)

    def test_per_bin_histogram_matches_analytic_shape(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        p, s = SourceParams(), scheme(8)
        n = 1_000_000
        r = estimate_eta(p, s, n, seed=12)
        b = total_efficiency(p, s)
        observed = list(r.per_bin_hist) + [n - r.n_single]
        expected = [n * x for x in b.per_bin_success] + [n * (1 - b.eta_total)]
        _, p_value = scipy_stats.chisquare(observed, expected)
        assert p_value > 0.001

    def test_multiphoton_contamination_bounded_with_ideal_chip(self):
        r = estimate_eta(IDEAL, scheme(31), 400_000, seed=8)
        assert 0.0 < r.multi_given_emission <= 0.06

    def test_estimator_unbiased_over_seeds(self):
        p, s = SourceParams(), scheme(8)
        analytic = total_efficiency(p, s).eta_total
        n = 20_000
        estimates = [estimate_eta(p, s, n, seed=1_000 + k).eta_hat
                     for k in range(50)]
        mean = sum(estimates) / len(estimates)
        sigma = math.sqrt(analytic * (1 - analytic) / n)
        assert abs(mean - analytic) < 3 * sigma / math.sqrt(50)

    @pytest.mark.parametrize("n_trials,message", [
        (0, ">= 1, got 0$"),
        (MAX_TRIALS + 1, f"<= {MAX_TRIALS}, got {MAX_TRIALS + 1}$"),
        (100.0, "an integer, got 100.0$"), (True, "an integer, got True$")],
        ids=["0", str(MAX_TRIALS + 1), "100.0", "True"])
    def test_rejects_empty_run(self, n_trials, message):
        with pytest.raises(DomainError, match=f"n_trials must be {message}"):
            estimate_eta(SourceParams(), scheme(4), n_trials, seed=0)


def _reference_frame(params, scheme, rng):
    """``run_frame``'s draws one element at a time, returning the record's
    fields: the pair counts, one uniform per idler photon, bin by bin, one
    filter coin per quiet bin of the selected bin, then the binomial
    survivors."""
    eta_d = efficiency.detection_efficiency(params, scheme)
    pic = efficiency.total_efficiency(params, scheme).pic_transmission

    pairs = tuple(int(m) for m in sample_pairs(params, rng, scheme.n_bins))
    bits = []
    for m in pairs:
        fired = 0
        for _ in range(m):
            if rng.random() < eta_d:
                fired = 1
        bits.append(fired)
    frame = HeraldFrame(tuple(bits))

    if scheme.selection is Selection.FIRST_PHOTON:
        selected = select_first(frame)
    else:
        selected = select_last(frame)

    survivors = 0
    if selected is not None:
        vetoed = False
        if params.include_filter_in_d0 and params.eta_f < 1.0:
            quiet = efficiency.quiet_bins(scheme.selection, scheme.n_bins)
            for _ in range(quiet[selected - 1]):
                if rng.random() >= params.eta_f:
                    vetoed = True
        if not vetoed:
            survivors = int(rng.binomial(pairs[selected - 1],
                                         pic[selected - 1]))
    return (pairs, frame, selected, survivors)


#: Pair laws with lam = 0 (p_herald = 0) and Poisson lam = 100, whose
#: single-detector p_herald rounds to 1.0 or above.
_LAWS = [(PairDistribution.POISSON, lam) for lam in (0.0, 0.05, 0.5, 100.0)] \
    + [(PairDistribution.THERMAL_APPROX, lam) for lam in (0.1, 0.6, 1.5)]
#: The two readings and eta_f = 1, where nothing is vetoed.
_READINGS = [{}, {"include_filter_in_d0": False},
             {"literal_exponent": True, "eta_f": 1.0}]


def _designs():
    """252 designs: every pair law, both detections with their canonical and
    their mismatched selection, every reading and three depths."""
    for (dist, lam), detection, mismatched, readings, n in itertools.product(
            _LAWS, Detection, (False, True), _READINGS, (1, 5, 32)):
        params = SourceParams.table_defaults(detection, lam=lam,
                                             pair_dist=dist, **readings)
        if mismatched:
            selection = (Selection.LAST_PHOTON
                         if detection is Detection.SINGLE_DETECTOR
                         else Selection.FIRST_PHOTON)
            s = scheme(n, detection=detection, selection=selection,
                       allow_mismatched_selection=True)
        else:
            s = scheme(n, detection=detection)
        yield params, s


def _chunk_args(params, s):
    return _plan(params, s)


def _pool_small_cells(observed, expected, floor=5.0):
    """Merge the cells expected below ``floor`` into one cell, and that one
    into the last cell if it is still below ``floor``."""
    small = [i for i, e in enumerate(expected) if e < floor]
    obs = [o for o, e in zip(observed, expected) if e >= floor]
    exp = [e for e in expected if e >= floor]
    if small:
        pooled_obs = sum(observed[i] for i in small)
        pooled_exp = sum(expected[i] for i in small)
        if pooled_exp >= floor:
            obs.append(pooled_obs)
            exp.append(pooled_exp)
        else:
            obs[-1] += pooled_obs
            exp[-1] += pooled_exp
    return obs, exp


class TestChunkSampler:
    def test_per_bin_histogram_matches_closed_form_across_designs(self):
        # per-bin singles plus the non-single count against B(r) and
        # 1 - eta on every design but the lam = 0 and lam = 100 ones, which
        # give no single photon: both laws, both selections, both readings,
        # an active filter veto and none; a Bonferroni-corrected chi-square
        # with the cells expected below 5 pooled.  At lam = 110 p_herald
        # rounds above 1, and eta_c = 0.015 keeps a single photon likely.
        scipy_stats = pytest.importorskip("scipy.stats")
        n = 200_000
        saturated = SourceParams.table_defaults(
            Detection.SINGLE_DETECTOR, lam=110.0, eta_c=0.015)
        designs = [(params, s) for params, s in _designs()
                   if params.lam not in (0.0, 100.0)]
        designs += [(saturated, scheme(8)),
                    (saturated, scheme(8, selection=Selection.LAST_PHOTON,
                                       allow_mismatched_selection=True))]
        assert len(designs) >= 150
        assert _chunk_args(saturated, scheme(8)).chunk_tables[0] >= 1.0
        assert {s.selection for _, s in designs} == set(Selection)
        threshold = 0.001 / len(designs)
        for k, (params, s) in enumerate(designs):
            r = estimate_eta(params, s, n, seed=k)
            b = total_efficiency(params, s)
            observed = list(r.per_bin_hist) + [n - r.n_single]
            expected = ([n * x for x in b.per_bin_success]
                        + [n * (1.0 - b.eta_total)])
            observed, expected = _pool_small_cells(observed, expected)
            _, p_value = scipy_stats.chisquare(observed, expected)
            assert p_value > threshold, (params, s, p_value)

    @pytest.mark.parametrize("params,s", [
        (SourceParams.table_defaults(Detection.SINGLE_DETECTOR, lam=1.0,
                                     pair_dist=PairDistribution.THERMAL_APPROX),
         scheme(8)),
        (SourceParams.table_defaults(Detection.SINGLE_DETECTOR, lam=1.0,
                                     eta_f=0.5),
         scheme(8)),
        (SourceParams.table_defaults(Detection.DETECTOR_ARRAY, lam=0.5),
         scheme(16, detection=Detection.DETECTOR_ARRAY)),
    ], ids=["thermal", "veto", "last-photon"])
    def test_outcomes_match_literal_frames(self, params, s):
        # n_single and n_multi against run_frame's per-photon process, as a
        # two-sample test of each proportion
        frames, trials = 25_000, 1_000_000
        rng = np.random.default_rng(61)
        outcomes = [run_frame(params, s, rng).outcome for _ in range(frames)]
        r = estimate_eta(params, s, trials, seed=61)
        for outcome, count in ((Outcome.SINGLE, r.n_single),
                               (Outcome.MULTI, r.n_multi)):
            seen = outcomes.count(outcome)
            assert seen >= 100, outcome
            pooled = (seen + count) / (frames + trials)
            sigma = math.sqrt(pooled * (1.0 - pooled)
                              * (1.0 / frames + 1.0 / trials))
            assert abs(seen / frames - count / trials) < 4.0 * sigma, outcome

    def test_run_frame_matches_per_element_loop(self):
        for k, (params, s) in enumerate(_designs()):
            if k % 3:
                continue
            got_rng, want_rng = (np.random.default_rng(k) for _ in range(2))
            for _ in range(20):
                rec = run_frame(params, s, got_rng)
                want = _reference_frame(params, s, want_rng)
                assert (rec.pair_counts, rec.herald_bits, rec.selected_bin,
                        rec.photons_surviving) == want
                assert repr(rec.pair_counts) == repr(want[0])
                assert repr(rec.herald_bits) == repr(want[1])

    def test_chances_match_closed_form_across_designs(self):
        # with D = 1 - p_herald, a trial selects bin r, k = k(r) bins after
        # the policy's start, and gives a single with chance
        # p_herald D^k single_k, which is B(r), and any photon with chance
        # p_herald D^k emit_k, which is (f G(q))^k [1 - G(q) - G(1-t)
        # + G(q (1-t))]: P(>= 1 photon out) with no sampling noise
        n_bins = 0
        for params, s in _designs():
            plan = _chunk_args(params, s)
            p_herald, single_by_k, emit_by_k = plan.chunk_tables
            assert plan.quiet == tuple(
                efficiency.quiet_bins(s.selection, s.n_bins))
            b = total_efficiency(params, s).per_bin_success
            f = efficiency.quiet_bin_pass(params)
            q = 1.0 - efficiency.detection_efficiency(params, s)
            G = functools.partial(pair_generating_function, params)
            for r, (k, t) in enumerate(zip(plan.quiet, plan.pic), 1):
                reach = p_herald * (1.0 - p_herald) ** k
                emit = (f * G(q)) ** k * (1.0 - G(q) - G(1.0 - t)
                                          + G(q * (1.0 - t)))
                assert reach * single_by_k[k] == pytest.approx(
                    b[r - 1], rel=0, abs=1e-12), (params, s, r)
                assert reach * emit_by_k[k] == pytest.approx(
                    emit, rel=0, abs=1e-12), (params, s, r)
            n_bins += s.n_bins
        assert n_bins == 3_192

    def test_emission_chance_never_below_single_chance(self):
        # at lam = 1e-20 almost every heralded bin holds one pair, and
        # 1 - (1-t) rounds below t on some bins; a negative gap would let
        # the multi count go below zero
        for dist in PairDistribution:
            plan = _chunk_args(SourceParams(lam=1e-20, pair_dist=dist),
                               scheme(128))
            _, single_by_k, emit_by_k = plan.chunk_tables
            assert (emit_by_k >= single_by_k).all()

    def test_chunk_peak_memory_is_bounded(self):
        # thermal lam = 0.6 at N = 49 heralds almost every trial, the chunk
        # with the most live temporaries; a 250,000-trial call and one
        # default chunk
        params = SourceParams(lam=0.6, pair_dist=PairDistribution.THERMAL_APPROX)
        plan = _chunk_args(params, scheme(49))
        _chunk_counts(plan, 1_000, 0)
        for n_trials, bound in ((250_000, 8_000_000),
                                (_CHUNK_TRIALS, 2_200_000)):
            tracemalloc.start()
            try:
                _chunk_counts(plan, n_trials, np.random.SeedSequence(3))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= bound, n_trials


def _oriented_by_hand(params, s):
    """The chunk tables' single and emission chances by quiet count k,
    oriented by hand: the selected bin lies k bins from the start of the
    frame under first-photon selection and from its end under last-photon;
    its quiet bins pass the filter with w = eta_f ** k where the filter can
    veto, else 1.  A heralded bin holds m pairs with chance
    c_m = P(m) (1 - q^m) / p_herald, and m pairs give one photon out with
    chance m t (1-t)^(m-1) and none with chance (1-t)^m."""
    by_k = (slice(None) if s.selection is Selection.FIRST_PHOTON
            else slice(None, None, -1))
    vetoes = params.include_filter_in_d0 and params.eta_f < 1.0
    veto_bins = (np.array(efficiency.quiet_bins(s.selection, s.n_bins))
                 if vetoes else np.zeros(s.n_bins, dtype=np.int64))
    t = np.array(efficiency.total_efficiency(params, s).pic_transmission)[by_k]
    w = params.eta_f ** veto_bins[by_k]
    q = 1.0 - efficiency.detection_efficiency(params, s)
    pmf = np.array(pair_pmf_array(params))
    m = np.arange(1, pmf.size)
    heralded = pmf[1:] * (1.0 - q ** m)
    c = heralded / heralded.sum()
    single = [w_k * t_k * np.sum(c * m * (1.0 - t_k) ** (m - 1))
              for t_k, w_k in zip(t, w)]
    emit = [w_k * (1.0 - np.sum(c * (1.0 - t_k) ** m))
            for t_k, w_k in zip(t, w)]
    return np.array(single), np.array(emit)


def _one_chunk_by_hand(params, s, n_trials, seed):
    """``estimate_eta``'s draws for a single chunk, written out with the
    tables of :func:`_oriented_by_hand` and the per-bin histogram flipped
    by hand under last-photon selection; returns (n_single, n_multi,
    per-bin histogram)."""
    n = s.n_bins
    single_by_k, emit_by_k = _oriented_by_hand(params, s)
    p_herald = _chunk_args(params, s).chunk_tables[0]
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    k = np.floor(np.log(rng.random(n_trials)) / math.log1p(-p_herald))
    quiet = k[k < n].astype(np.intp)
    out_u = rng.random(quiet.size)
    single = out_u < single_by_k[quiet]
    multi = ~single & (out_u < emit_by_k[quiet])
    by_k = np.bincount(quiet[single], minlength=n)
    hist = by_k if s.selection is Selection.FIRST_PHOTON else by_k[::-1]
    return int(single.sum()), int(multi.sum()), tuple(int(c) for c in hist)


class TestQuietBinOrder:
    """The plan reads the quiet counts k(r) from ``efficiency.quiet_bins``
    and the filter pass from ``efficiency.quiet_bin_pass``; its tables and
    histogram must match the first/last orientation written out by hand,
    under both selections and both D0 readings."""

    DESIGNS = [
        (SourceParams(lam=0.3, eta_f=0.8, include_filter_in_d0=include),
         scheme(12, detection=detection, topology=topology))
        for include in (True, False)
        for detection, topology in ((Detection.SINGLE_DETECTOR,
                                     Topology.BINARY_DELAY),
                                    (Detection.DETECTOR_ARRAY,
                                     Topology.SINGLE_DELAY_LINE))]

    @pytest.mark.parametrize("params,s", DESIGNS)
    def test_tables_by_quiet_count(self, params, s):
        single, emit = _oriented_by_hand(params, s)
        plan = _chunk_args(params, s)
        _, single_by_k, emit_by_k = plan.chunk_tables
        assert plan.quiet == tuple(
            efficiency.quiet_bins(s.selection, s.n_bins))
        np.testing.assert_allclose(single_by_k, single, rtol=1e-13, atol=0)
        np.testing.assert_allclose(emit_by_k, emit, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("params,s", DESIGNS)
    def test_histogram_in_bin_order(self, params, s):
        r = estimate_eta(params, s, 20_000, seed=23)
        assert (r.n_single, r.n_multi, r.per_bin_hist) == _one_chunk_by_hand(
            params, s, 20_000, 23)
        # a flip would show: the histogram is not a palindrome
        assert r.n_multi > 0 and r.per_bin_hist != r.per_bin_hist[::-1]


class TestDesignPlan:
    #: (params, scheme, keyword readings): two designs, each with a keyword
    #: reading, and the field form of design a's keyword reading
    CALLS = {
        "a": (SourceParams(), scheme(8), {}),
        "a-keyword": (SourceParams(), scheme(8),
                      {"include_filter_in_d0": False}),
        "a-field": (SourceParams(include_filter_in_d0=False), scheme(8), {}),
        "b": (SourceParams.table_defaults(Detection.DETECTOR_ARRAY, lam=0.3,
                                          eta_f=0.5),
              scheme(8, detection=Detection.DETECTOR_ARRAY), {}),
        "b-keyword": (SourceParams.table_defaults(Detection.DETECTOR_ARRAY,
                                                  lam=0.3, eta_f=0.5),
                      scheme(8, detection=Detection.DETECTOR_ARRAY),
                      {"literal_exponent": True}),
    }

    @staticmethod
    def _answer(name, call):
        params, s, readings = TestDesignPlan.CALLS[name]
        if call == "estimate":
            return estimate_eta(params, s, 20_000, seed=9, **readings)
        rng = np.random.default_rng(9)
        return [run_frame(params, s, rng, **readings) for _ in range(300)]

    def test_interleaved_designs_get_their_own_answers(self):
        want = {}
        for name in self.CALLS:
            for call in ("estimate", "frames"):
                _plan.cache_clear()
                want[name, call] = self._answer(name, call)
        for call in ("estimate", "frames"):
            assert want["a-keyword", call] == want["a-field", call]
            for x, y in (("a", "a-keyword"), ("a", "b"), ("b", "b-keyword")):
                assert want[x, call] != want[y, call], (x, y, call)
        _plan.cache_clear()
        order = ["a", "b", "a-keyword", "b-keyword", "a-field", "b", "a",
                 "a-field", "b-keyword", "a-keyword"]
        for name, call in itertools.product(order, ("estimate", "frames")):
            assert self._answer(name, call) == want[name, call], (name, call)
        for name, call in itertools.product(order, ("frames", "estimate")):
            assert self._answer(name, call) == want[name, call], (name, call)

    def test_one_plan_per_design_and_readings(self):
        """The readings are merged once per design, in the cached plan, not
        once per frame."""
        params, s = SourceParams(), scheme(8)
        readings = {"literal_exponent": True}
        _plan.cache_clear()
        rng = np.random.default_rng(5)
        for _ in range(300):
            run_frame(params, s, rng, **readings)
        estimate_eta(params, s, 20_000, seed=5, **readings)
        assert _plan.cache_info().misses == 1


def estimate_avg_lin(params, n_bins, lam, n_trials, seed):
    """Empirical mean delay-line transmission under last-photon selection,
    the oracle of fig3c's occupancy reading: exactly
    :func:`efficiency.occupied_bins` photons, which reads ``n_bins`` and
    ``lam`` as the closed form does, occupy bins drawn uniformly without
    replacement."""
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


class TestEstimateAvgLin:
    @pytest.mark.parametrize("n_bins,lam", [
        *((10, lam) for lam in (math.nan, math.inf, 0.0, -0.1, 1.5)),
        (0, 0.1), (-3, 0.1), (MAX_BINS + 1, 0.1)])
    def test_rejects_what_the_closed_form_rejects(self, n_bins, lam):
        with pytest.raises(DomainError):
            estimate_avg_lin(SourceParams(), n_bins, lam, 10, seed=1)
        with pytest.raises(DomainError):
            avg_linear_transmission(SourceParams(), n_bins, lam)

    def test_lossless_chip_is_unity(self):
        p = SourceParams(alpha_inc=0.0)
        assert estimate_avg_lin(p, 40, 0.1, 5_000, seed=0) == pytest.approx(1.0)

    def _sigma(self, params, n, n_occ, trials):
        weights = last_photon_weights(n, n_occ)
        per_db = 1 if params.literal_exponent else 10
        values = [10 ** (-params.alpha_inc * (n - p) / per_db)
                  for p in range(1, n + 1)]
        mean = sum(w * v for w, v in zip(weights, values))
        var = sum(w * (v - mean) ** 2 for w, v in zip(weights, values))
        return mean, math.sqrt(var / trials)

    def test_single_occupied_bin_matches_uniform_average(self):
        p = SourceParams()
        n, trials = 40, 200_000
        mean, sigma = self._sigma(p, n, 1, trials)
        got = estimate_avg_lin(p, n, 0.01, trials, seed=4)
        assert abs(got - mean) < 3 * sigma

    @pytest.mark.parametrize("literal_exponent", [False, True])
    def test_fixed_occupancy_matches_order_statistic_weights(
            self, literal_exponent):
        p = SourceParams(literal_exponent=literal_exponent)
        n, lam, trials = 60, 0.1, 200_000
        mean, sigma = self._sigma(p, n, math.ceil(lam * n), trials)
        got = estimate_avg_lin(p, n, lam, trials, seed=9)
        assert abs(got - mean) < 3 * sigma
        assert mean == pytest.approx(avg_linear_transmission(p, n, lam), rel=1e-12)
