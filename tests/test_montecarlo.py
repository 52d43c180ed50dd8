import math

import numpy as np
import pytest

from photonmux.efficiency import (
    avg_linear_transmission,
    last_photon_weights,
    total_efficiency,
)
from photonmux.model import (
    Detection,
    DomainError,
    PairDistribution,
    SchemeConfig,
    SourceParams,
    Topology,
)
from photonmux.montecarlo import (
    MAX_TRIALS,
    Outcome,
    estimate_avg_lin,
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


class TestEstimateEta:
    def test_deterministic_and_worker_invariant(self):
        p, s = SourceParams(), scheme(16)
        a = estimate_eta(p, s, 300_000, seed=5)
        b = estimate_eta(p, s, 300_000, seed=5)
        c = estimate_eta(p, s, 300_000, seed=5, workers=3)
        assert a == b == c
        # one chunk, and three chunks with more workers than chunks
        for n_trials, workers in ((1_000, (1, 4)), (600_000, (1, 2, 5))):
            first, *rest = (estimate_eta(p, s, n_trials, seed=5, workers=w)
                            for w in workers)
            assert all(r == first for r in rest)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_fewer_than_one_worker(self, workers):
        with pytest.raises(DomainError, match="workers must be >= 1"):
            estimate_eta(SourceParams(), scheme(8), 10_000, seed=1,
                         workers=workers)

    @pytest.mark.parametrize("seed", [-1, np.int64(-7)])
    def test_rejects_negative_seed(self, seed):
        with pytest.raises(DomainError, match="seed must be >= 0"):
            estimate_eta(SourceParams(), scheme(4), 100, seed=seed)
        with pytest.raises(DomainError, match="seed must be >= 0"):
            run_frame(SourceParams(), scheme(4), seed)

    def test_no_pumping_estimates_zero(self):
        r = estimate_eta(SourceParams(lam=0.0), scheme(8), 10_000, seed=1)
        assert r.eta_hat == 0.0
        assert r.n_vacuum == 10_000

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

    @pytest.mark.parametrize("n_trials", [0, MAX_TRIALS + 1])
    def test_rejects_empty_run(self, n_trials):
        with pytest.raises(DomainError, match="n_trials must be in"):
            estimate_eta(SourceParams(), scheme(4), n_trials, seed=0)


class TestEstimateAvgLin:
    @pytest.mark.parametrize("n_bins,lam", [
        *((10, lam) for lam in (math.nan, math.inf, 0.0, -0.1, 1.5)),
        (0, 0.1), (-3, 0.1)])
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
