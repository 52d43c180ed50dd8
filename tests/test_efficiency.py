import itertools
import math
from dataclasses import replace

import pytest

from photonmux.efficiency import (
    avg_linear_transmission,
    detection_efficiency,
    generation_rate,
    last_photon_weights,
    no_herald_probability,
    occupied_bins,
    quiet_bin_pass,
    total_efficiency,
)
from photonmux.model import (
    MAX_BINS,
    Detection,
    DomainError,
    PairDistribution,
    SchemeConfig,
    Selection,
    SourceParams,
    Topology,
    pair_count_distribution,
    pair_generating_function,
)

#: Pair counts summed by the brute-force oracles below.
ORACLE_PAIRS = 200


def scheme(n, topology=Topology.BINARY_DELAY, detection=Detection.SINGLE_DETECTOR,
           selection=None):
    return SchemeConfig(n_bins=n, topology=topology, detection=detection,
                        selection=selection,
                        allow_mismatched_selection=selection is not None)


class TestNoHeraldProbability:
    def test_perfect_detection_collapses_to_vacuum_term(self):
        p = SourceParams(lam=0.1, eta_f=1.0)
        assert no_herald_probability(p, 1.0) == pytest.approx(
            math.exp(-0.1), rel=1e-12)

    def test_blind_detector_never_fires(self):
        p = SourceParams(eta_f=1.0)
        assert no_herald_probability(p, 0.0) == 1.0

    def test_closed_form_matches_truncated_series(self):
        # oracle: direct summation of e^-lam lam^i / i! (1-eta_d)^i to i=100
        p = SourceParams(lam=0.1)
        eta_d = 0.85 * 0.7
        series = math.fsum(
            math.exp(-p.lam) * p.lam**i / math.factorial(i) * (1 - eta_d) ** i
            for i in range(101))
        assert no_herald_probability(p, eta_d) == pytest.approx(
            p.eta_f * series, abs=1e-12)

    def test_filter_flag_drops_prefactor(self):
        p = SourceParams(lam=0.1)
        with_f = no_herald_probability(p, 0.5)
        without = no_herald_probability(replace(p, include_filter_in_d0=False),
                                        0.5)
        assert with_f == pytest.approx(p.eta_f * without, rel=1e-15)

    @pytest.mark.parametrize("dist", list(PairDistribution))
    @pytest.mark.parametrize("lam,eta_d", [(0.05, 0.3), (0.1, 0.595),
                                           (0.5, 0.9), (1.0, 0.24)])
    def test_heralded_mass_partitions_unity(self, dist, lam, eta_d):
        # oracle: sum_i P(i) (1 - (1-eta_d)^i), the probability that at least
        # one idler is detected, plus the bare no-detection probability is 1
        p = SourceParams(lam=lam, pair_dist=dist)
        heralded = math.fsum(
            pair_count_distribution(p, i) * (1 - (1 - eta_d) ** i)
            for i in range(1, ORACLE_PAIRS + 1))
        bare_d0 = no_herald_probability(replace(p, include_filter_in_d0=False),
                                        eta_d)
        assert heralded + bare_d0 == pytest.approx(1.0, abs=1e-12)


class TestQuietBinPass:
    @pytest.mark.parametrize("eta_f", [0.5, 0.99, 1.0])
    @pytest.mark.parametrize("include", [True, False])
    def test_is_eta_f_only_when_d0_keeps_the_filter(self, eta_f, include):
        p = SourceParams(eta_f=eta_f, include_filter_in_d0=include)
        assert quiet_bin_pass(p) == (eta_f if include else 1.0)

    @pytest.mark.parametrize("eta_f", [0.5, 1.0])
    @pytest.mark.parametrize("include", [True, False])
    def test_d0_is_the_pass_times_the_escape_chance(self, eta_f, include):
        p = SourceParams(lam=0.3, eta_f=eta_f, include_filter_in_d0=include)
        assert no_herald_probability(p, 0.6) == (
            quiet_bin_pass(p) * pair_generating_function(p, 1.0 - 0.6))


class TestPicTransmission:
    def test_single_line_last_bin_is_lossless(self):
        p = SourceParams(eta_f=1.0, eta_c=1.0, eta_sw=1.0)
        frame = total_efficiency(
            p, scheme(8, Topology.SINGLE_DELAY_LINE)).pic_transmission
        assert frame[7] == 1.0

    def test_binary_pass_count_is_depth_plus_one(self):
        # with every other loss at 1, each entry is eta_sw^(passes) exactly
        half = SourceParams(eta_f=1.0, eta_c=1.0, eta_sw=0.5, alpha_inc=0.0)
        for n in range(1, MAX_BINS + 1):
            passes = math.floor(math.log2(n)) + 1
            frame = total_efficiency(half, scheme(n)).pic_transmission
            assert frame == (0.5**passes,) * n
        p_unit = SourceParams(eta_f=1.0, eta_c=1.0, alpha_inc=0.0)
        frame = total_efficiency(p_unit, scheme(8)).pic_transmission
        assert frame[4] == pytest.approx(0.87**4, rel=1e-12)

    def test_single_line_passes_equal_the_delay(self):
        half = SourceParams(eta_f=1.0, eta_c=1.0, eta_sw=0.5, alpha_inc=0.0)
        for n in (1, 2, 7, 64):
            frame = total_efficiency(
                half, scheme(n, Topology.SINGLE_DELAY_LINE)).pic_transmission
            assert frame == tuple(0.5 ** (n - r) for r in range(1, n + 1))

    def test_binary_beats_single_line_for_early_bins(self):
        p = SourceParams(alpha_inc=0.0)
        binary = total_efficiency(p, scheme(32)).pic_transmission
        line = total_efficiency(
            p, scheme(32, Topology.SINGLE_DELAY_LINE)).pic_transmission
        assert binary[0] / line[0] == pytest.approx(0.87**6 / 0.87**31,
                                                    rel=1e-9)
        # the binary topology dominates whenever fewer passes are needed
        for r in range(1, 32 - 6):
            assert binary[r - 1] > line[r - 1]

    def test_decibel_convention(self):
        p = SourceParams(eta_f=1.0, eta_c=1.0, eta_sw=1.0, alpha_inc=3.0)
        frame = total_efficiency(p, scheme(2)).pic_transmission
        assert frame[0] == pytest.approx(10 ** (-3.0 / 10.0), rel=1e-12)

    def test_literal_exponent_flag(self):
        p = SourceParams(eta_f=1.0, eta_c=1.0, eta_sw=1.0, alpha_inc=0.03)
        literal = replace(p, literal_exponent=True)
        assert total_efficiency(literal, scheme(2)).pic_transmission[0] \
            == pytest.approx(10 ** (-0.03), rel=1e-12)


class TestDetectionEfficiency:
    def test_single_detector_combined(self):
        p = SourceParams()
        s = scheme(8)
        assert detection_efficiency(p, s) == pytest.approx(0.595, rel=1e-12)

    def test_array_reproduces_printed_value(self):
        p = SourceParams.table_defaults(Detection.DETECTOR_ARRAY)
        s = scheme(8, detection=Detection.DETECTOR_ARRAY)
        assert detection_efficiency(p, s) == pytest.approx(0.24, abs=0.005)

    def test_array_with_lossless_routing(self):
        p = SourceParams.table_defaults(Detection.DETECTOR_ARRAY,
                                        eta_sw=1.0, eta_c=1.0)
        s = scheme(8, detection=Detection.DETECTOR_ARRAY)
        assert detection_efficiency(p, s) == pytest.approx(
            0.85 * 0.8 * (24 / 25), rel=1e-12)

    def test_array_routing_is_the_minimal_binary_tree(self):
        # a 25-detector tree: 7 leaves behind 4 switch passes, 18 behind 5
        p = SourceParams.table_defaults(Detection.DETECTOR_ARRAY,
                                        eta_sw=0.5, eta_c=1.0)
        s = scheme(8, detection=Detection.DETECTOR_ARRAY)
        assert detection_efficiency(p, s) == pytest.approx(
            p.eta_conv * p.eta_det * (7 * 0.5**4 + 18 * 0.5**5) / 25
            * (24 / 25), rel=1e-14)


class TestBinSuccess:
    def test_no_pumping_never_succeeds(self):
        p = SourceParams(lam=0.0)
        b = total_efficiency(p, scheme(8))
        assert all(x == 0.0 for x in b.per_bin_success)

    def test_single_bin_policies_agree(self):
        p = SourceParams()
        first, = total_efficiency(p, scheme(1)).per_bin_success
        last, = total_efficiency(
            p, scheme(1, selection=Selection.LAST_PHOTON)).per_bin_success
        assert first == last > 0.0

    def test_first_photon_weights_early_bins_without_delay_loss(self):
        p = SourceParams(alpha_inc=0.0)
        values = total_efficiency(p, scheme(8)).per_bin_success
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_blind_detector_never_heralds(self):
        p = SourceParams(eta_det=0.0)
        b = total_efficiency(p, scheme(8))
        assert all(x == 0.0 for x in b.per_bin_success)

    @pytest.mark.parametrize("dist", list(PairDistribution))
    def test_lossless_chip_keeps_only_single_pairs(self, dist):
        # with unit transmission one photon always survives from a single
        # pair and never from two or more
        p = SourceParams(lam=0.4, eta_f=1.0, eta_c=1.0, eta_sw=1.0,
                         alpha_inc=0.0, pair_dist=dist)
        eta_d = detection_efficiency(p, scheme(1))
        b = total_efficiency(p, scheme(1))
        assert b.per_bin_success[0] == pytest.approx(
            pair_count_distribution(p, 1) * eta_d, rel=1e-12)

    @pytest.mark.parametrize("dist", list(PairDistribution))
    @pytest.mark.parametrize("detection", list(Detection))
    @pytest.mark.parametrize("lam", [0.01, 0.1, 0.5, 1.0])
    @pytest.mark.parametrize("filter_in_d0", [True, False])
    def test_matches_brute_force_pair_sum(self, dist, detection, lam,
                                          filter_in_d0):
        # oracle: D0^k * sum_i P(i) (1 - q^i) * i t (1-t)^(i-1), with D0 and
        # the survival term summed pair by pair
        p = SourceParams.table_defaults(detection, lam=lam, pair_dist=dist)
        s = scheme(12, detection=detection)
        q = 1.0 - detection_efficiency(p, s)
        pmf = [pair_count_distribution(p, i) for i in range(ORACLE_PAIRS + 1)]
        d0 = math.fsum(w * q**i for i, w in enumerate(pmf))
        if filter_in_d0:
            d0 *= p.eta_f
        for r in (1, 5, 12):
            t = total_efficiency(p, s).pic_transmission[r - 1]
            survives = math.fsum(
                w * (1 - q**i) * i * t * (1 - t) ** (i - 1)
                for i, w in enumerate(pmf) if i >= 1)
            quiet = (r - 1 if s.selection is Selection.FIRST_PHOTON
                     else s.n_bins - r)
            reading = replace(p, include_filter_in_d0=filter_in_d0)
            assert total_efficiency(reading, s).per_bin_success[r - 1] == \
                pytest.approx(d0**quiet * survives, rel=1e-11)


class TestTotalEfficiency:
    def test_breakdown_is_consistent(self):
        p = SourceParams()
        b = total_efficiency(p, scheme(16))
        assert b.eta_total == pytest.approx(math.fsum(b.per_bin_success), abs=1e-12)
        assert len(b.per_bin_success) == len(b.pic_transmission) == 16
        assert all(0.0 <= x <= 1.0 for x in b.per_bin_success)
        assert all(0.0 <= x <= 1.0 for x in b.pic_transmission)
        assert 0.0 <= b.eta_total <= 1.0

    @pytest.mark.parametrize("n", [1, 5, 31, 64])
    def test_ideal_parameters_match_geometric_closed_form(self, n):
        p = SourceParams(eta_f=1.0, eta_c=1.0, eta_sw=1.0, eta_det=1.0,
                         eta_conv=1.0, alpha_inc=0.0)
        lam = p.lam
        expected = (lam * math.exp(-lam) * (1 - math.exp(-lam * n))
                    / (1 - math.exp(-lam)))
        assert total_efficiency(p, scheme(n)).eta_total == pytest.approx(
            expected, abs=1e-12)

    @pytest.mark.parametrize("name", ["eta_f", "eta_c", "eta_sw", "eta_det",
                                      "eta_conv"])
    def test_monotone_in_each_efficiency(self, name):
        base = SourceParams()
        values = [
            total_efficiency(replace(base, **{name: v}), scheme(16)).eta_total
            for v in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_selection_policies_are_permutations_without_delay_loss(self):
        p = SourceParams(alpha_inc=0.0)
        first = total_efficiency(p, scheme(12)).per_bin_success
        last = total_efficiency(
            p, scheme(12, selection=Selection.LAST_PHOTON)).per_bin_success
        assert sorted(first) == pytest.approx(sorted(last), rel=1e-12)
        assert math.fsum(first) == pytest.approx(math.fsum(last), rel=1e-12)

    @pytest.mark.parametrize("topology", list(Topology))
    @pytest.mark.parametrize("detection", list(Detection))
    @pytest.mark.parametrize("lam", [0.02, 0.1, 0.8])
    def test_bin_probabilities_bounded(self, topology, detection, lam):
        p = SourceParams.table_defaults(detection, lam=lam)
        b = total_efficiency(p, scheme(24, topology, detection))
        assert all(0.0 <= x <= 1.0 for x in b.per_bin_success)
        assert b.eta_total <= 1.0


class TestAvgLinearTransmission:
    def test_lossless_chip(self):
        p = SourceParams(alpha_inc=0.0)
        assert avg_linear_transmission(p, 50, 0.1) == pytest.approx(1.0, abs=1e-12)

    def test_single_occupied_bin_is_uniform_average(self):
        p = SourceParams()
        n = 40
        control = math.fsum(
            10 ** (-p.alpha_inc * (n - i) / 10) for i in range(1, n + 1)) / n
        assert avg_linear_transmission(p, n, 0.01) == pytest.approx(
            control, rel=1e-12)

    @pytest.mark.parametrize("n,n_occ", [(6, 2), (12, 3), (20, 4)])
    def test_weights_match_exhaustive_maximum_statistics(self, n, n_occ):
        # oracle: enumerate every n_occ-subset and tally its maximum
        counts = [0] * (n + 1)
        total = 0
        for subset in itertools.combinations(range(1, n + 1), n_occ):
            counts[max(subset)] += 1
            total += 1
        expected = [counts[p] / total for p in range(1, n + 1)]
        weights = last_photon_weights(n, n_occ)
        assert weights == pytest.approx(expected, abs=1e-12)
        assert math.fsum(weights) == pytest.approx(1.0, abs=1e-12)
        assert all(w >= 0 for w in weights)
        # closed-form identity with binomial coefficients
        comb = [math.comb(p - 1, n_occ - 1) / math.comb(n, n_occ)
                for p in range(1, n + 1)]
        assert weights == pytest.approx(comb, abs=1e-12)

    def test_weight_normalization_tight(self):
        for n, lam in ((60, 0.1), (100, 0.06), (128, 0.02)):
            n_occ = math.ceil(lam * n)
            assert math.fsum(last_photon_weights(n, n_occ)) == pytest.approx(
                1.0, abs=1e-12)

    def test_overfull_frame_rejected(self):
        with pytest.raises(DomainError):
            avg_linear_transmission(SourceParams(), 10, 1.5)

    @pytest.mark.parametrize("call,message", [
        (lambda: occupied_bins(MAX_BINS + 1, 0.1),
         f"n_bins must be <= {MAX_BINS}, got {MAX_BINS + 1}$"),
        (lambda: last_photon_weights(MAX_BINS + 1, 1),
         f"n_bins must be <= {MAX_BINS}, got {MAX_BINS + 1}$"),
        (lambda: last_photon_weights(8.0, 2),
         "n_bins must be an integer, got 8.0$"),
        (lambda: last_photon_weights(8, 8.0),
         "n_occupied must be an integer, got 8.0$"),
        (lambda: last_photon_weights(8, 9), "n_occupied must be <= 8, got 9$"),
        (lambda: last_photon_weights(8, 0), "n_occupied must be >= 1, got 0$")],
        ids=["occupied-over-cap", "weights-over-cap",
             "weights-float-depth", "weights-float-count",
             "weights-overfull", "weights-empty"])
    def test_counts_read_by_the_depth_rule(self, call, message):
        with pytest.raises(DomainError, match=f"^{message}"):
            call()

    @pytest.mark.parametrize("lam", [0.0, -0.1, math.nan, math.inf])
    def test_lambda_outside_unit_interval_rejected(self, lam):
        with pytest.raises(DomainError, match=r"lam must be in \(0, 1\]"):
            avg_linear_transmission(SourceParams(), 10, lam)

    def test_literal_exponent_flag(self):
        p = SourceParams(alpha_inc=0.03)
        weights = last_photon_weights(40, 4)
        expected = math.fsum(w * 10 ** (-0.03 * (40 - i))
                             for i, w in enumerate(weights, start=1))
        literal = replace(p, literal_exponent=True)
        assert avg_linear_transmission(literal, 40, 0.1) == \
            pytest.approx(expected, rel=1e-12)
        assert avg_linear_transmission(literal, 40, 0.1) < \
            avg_linear_transmission(p, 40, 0.1)


class TestGenerationRate:
    def test_design_points(self):
        p = SourceParams()
        assert generation_rate(p, scheme(31)) == pytest.approx(806.45e6, rel=1e-3)
        assert generation_rate(p, scheme(63)) == pytest.approx(396.8e6, rel=1e-3)
        assert generation_rate(p, scheme(1)) == pytest.approx(25e9, rel=1e-12)

    def test_overflowing_rate_rejected(self):
        with pytest.raises(DomainError, match="not finite"):
            generation_rate(SourceParams(period=5e-324), scheme(31))
