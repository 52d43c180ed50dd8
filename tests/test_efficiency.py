import itertools
import math

import pytest

from photonmux.efficiency import (
    avg_linear_transmission,
    bin_success,
    detection_efficiency,
    first_photon_weights,
    generation_rate,
    last_photon_weights,
    no_herald_probability,
    pic_transmission,
    switch_passes,
    total_efficiency,
)
from photonmux.model import (
    Detection,
    DomainError,
    PairDistribution,
    SchemeConfig,
    Selection,
    SourceParams,
    Topology,
    pair_count_distribution,
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
        without = no_herald_probability(p.with_(include_filter_in_d0=False),
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
        bare_d0 = no_herald_probability(p.with_(include_filter_in_d0=False),
                                        eta_d)
        assert heralded + bare_d0 == pytest.approx(1.0, abs=1e-12)


class TestPicTransmission:
    def test_single_line_last_bin_is_lossless(self):
        p = SourceParams(eta_f=1.0, eta_c=1.0, eta_sw=1.0)
        assert pic_transmission(p, scheme(8, Topology.SINGLE_DELAY_LINE), 8) == 1.0

    def test_binary_pass_count_is_depth_plus_one(self):
        s = scheme(8)
        assert switch_passes(s, 1) == 4
        assert switch_passes(s, 8) == 4
        p_unit = SourceParams(eta_f=1.0, eta_c=1.0, alpha_inc=0.0)
        assert pic_transmission(p_unit, s, 5) == pytest.approx(0.87**4, rel=1e-12)

    def test_binary_beats_single_line_for_early_bins(self):
        p = SourceParams(alpha_inc=0.0)
        binary = pic_transmission(p, scheme(32), 1)
        line = pic_transmission(p, scheme(32, Topology.SINGLE_DELAY_LINE), 1)
        assert binary / line == pytest.approx(0.87**6 / 0.87**31, rel=1e-9)
        # the binary topology dominates whenever fewer passes are needed
        for r in range(1, 32 - 6):
            assert pic_transmission(p, scheme(32), r) > pic_transmission(
                p, scheme(32, Topology.SINGLE_DELAY_LINE), r)

    def test_decibel_convention(self):
        p = SourceParams(eta_f=1.0, eta_c=1.0, eta_sw=1.0, alpha_inc=3.0)
        assert pic_transmission(p, scheme(2), 1) == pytest.approx(
            10 ** (-3.0 / 10.0), rel=1e-12)

    def test_literal_exponent_flag(self):
        p = SourceParams(eta_f=1.0, eta_c=1.0, eta_sw=1.0, alpha_inc=0.03)
        assert pic_transmission(p.with_(literal_exponent=True), scheme(2), 1) == \
            pytest.approx(10 ** (-0.03), rel=1e-12)

    def test_bin_out_of_range(self):
        with pytest.raises(DomainError):
            pic_transmission(SourceParams(), scheme(8), 9)


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


class TestBinSuccess:
    def test_no_pumping_never_succeeds(self):
        p = SourceParams(lam=0.0)
        assert all(bin_success(p, scheme(8), r) == 0.0 for r in range(1, 9))

    def test_single_bin_policies_agree(self):
        p = SourceParams()
        first = bin_success(p, scheme(1), 1)
        last = bin_success(p, scheme(1, selection=Selection.LAST_PHOTON), 1)
        assert first == last > 0.0

    def test_first_photon_weights_early_bins_without_delay_loss(self):
        p = SourceParams(alpha_inc=0.0)
        values = [bin_success(p, scheme(8), r) for r in range(1, 9)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_blind_detector_never_heralds(self):
        p = SourceParams(eta_det=0.0)
        assert all(bin_success(p, scheme(8), r) == 0.0 for r in range(1, 9))

    @pytest.mark.parametrize("dist", list(PairDistribution))
    def test_lossless_chip_keeps_only_single_pairs(self, dist):
        # with unit transmission one photon always survives from a single
        # pair and never from two or more
        p = SourceParams(lam=0.4, eta_f=1.0, eta_c=1.0, eta_sw=1.0,
                         alpha_inc=0.0, pair_dist=dist)
        eta_d = detection_efficiency(p, scheme(1))
        assert bin_success(p, scheme(1), 1) == pytest.approx(
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
            t = pic_transmission(p, s, r)
            survives = math.fsum(
                w * (1 - q**i) * i * t * (1 - t) ** (i - 1)
                for i, w in enumerate(pmf) if i >= 1)
            quiet = (r - 1 if s.selection is Selection.FIRST_PHOTON
                     else s.n_bins - r)
            reading = p.with_(include_filter_in_d0=filter_in_d0)
            assert bin_success(reading, s, r) == \
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
            total_efficiency(base.with_(**{name: v}), scheme(16)).eta_total
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

    def test_first_photon_weights_mirror(self):
        assert first_photon_weights(10, 3) == list(
            reversed(last_photon_weights(10, 3)))

    def test_weight_normalization_tight(self):
        for n, lam in ((60, 0.1), (100, 0.06), (128, 0.02)):
            n_occ = math.ceil(lam * n)
            assert math.fsum(last_photon_weights(n, n_occ)) == pytest.approx(
                1.0, abs=1e-12)

    def test_overfull_frame_rejected(self):
        with pytest.raises(DomainError):
            avg_linear_transmission(SourceParams(), 10, 1.5)

    def test_selection_choice(self):
        p = SourceParams()
        last = avg_linear_transmission(p, 60, 0.1, Selection.LAST_PHOTON)
        first = avg_linear_transmission(p, 60, 0.1, Selection.FIRST_PHOTON)
        assert last > first  # late bins carry less delay loss

    def test_literal_exponent_flag(self):
        p = SourceParams(alpha_inc=0.03)
        weights = last_photon_weights(40, 4)
        expected = math.fsum(w * 10 ** (-0.03 * (40 - i))
                             for i, w in enumerate(weights, start=1))
        literal = p.with_(literal_exponent=True)
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
