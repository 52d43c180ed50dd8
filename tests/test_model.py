import dataclasses
import json
import math
import re
import sys

import numpy as np
import pytest

from photonmux.app import find_crossing, optimize_bins, sweep_values
from photonmux.config import ConfigError
from photonmux.efficiency import (
    avg_linear_transmission,
    no_herald_probability,
    occupied_bins,
    total_efficiency,
)
from photonmux.montecarlo import estimate_eta
from photonmux.model import (
    DEFAULT_ALPHA_INC,
    MAX_BINS,
    MAX_PAIRS,
    NONNEGATIVE,
    PAIR_LAWS,
    POSITIVE,
    UNIT,
    Detection,
    DomainError,
    PairDistribution,
    Range,
    SchemeConfig,
    Selection,
    SourceParams,
    check_unit,
    field_kinds,
    pair_count_distribution,
    pair_generating_function,
    sample_pairs,
)

from generating_derivative import pair_generating_derivative

#: Every float field of SourceParams, in field order.
FLOAT_FIELDS = [name for name, kind, _, _ in field_kinds(SourceParams)
                if kind is float]


class TestSourceParams:
    def test_defaults_match_design_table(self):
        p = SourceParams()
        assert p.eta_f == 0.99
        assert p.eta_c == 0.84
        assert p.eta_sw == 0.87
        assert p.eta_conv == 0.85
        assert p.eta_det == 0.7
        assert p.lam == 0.1
        assert p.period == 40e-12
        assert p.pair_dist is PairDistribution.POISSON

    def test_table_defaults_switch_detector_efficiency(self):
        assert SourceParams.table_defaults(Detection.SINGLE_DETECTOR).eta_det == 0.7
        assert SourceParams.table_defaults(Detection.DETECTOR_ARRAY).eta_det == 0.8

    def test_default_alpha_inc_near_0p03_db(self):
        assert DEFAULT_ALPHA_INC == pytest.approx(0.03, abs=2e-4)
        # 0.1 dB/cm over c * 40 ps / 4 of waveguide, in that operation order
        assert DEFAULT_ALPHA_INC.hex() == "0x1.eb2e121143820p-6"

    @pytest.mark.parametrize("field,value", [
        ("lam", -0.1), ("period", 0.0), ("alpha_inc", -1e-3),
        ("eta_f", 1.2), ("eta_c", -0.1), ("eta_sw", 2.0),
        ("eta_det", 1.0001), ("eta_conv", -1e-9),
        ("literal_exponent", "false"), ("include_filter_in_d0", "no"),
        ("literal_exponent", 1), ("include_filter_in_d0", 0),
        ("pair_dist", "poisson"), ("pair_dist", "junk"), ("pair_dist", None),
        ("lam", True), ("lam", "0.1"), ("eta_f", "0.9"), ("period", None),
        ("alpha_inc", False), ("eta_sw", 0.5 + 0j), ("eta_det", [0.7]),
    ])
    def test_rejects_out_of_domain(self, field, value):
        with pytest.raises(DomainError):
            SourceParams(**{field: value})

    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf,
        pytest.param(10**400, id="huge-int")])
    @pytest.mark.parametrize("field", FLOAT_FIELDS)
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(DomainError, match=f"^{field} must be"):
            SourceParams(**{field: value})

    def test_float_fields_take_only_real_numbers(self):
        p = SourceParams(lam=np.float32(0.25), period=np.float64(40e-12),
                         eta_f=1, alpha_inc=0)
        assert (p.lam, p.eta_f, p.alpha_inc) == (np.float32(0.25), 1, 0)
        with pytest.raises(DomainError,
                           match=r"^lam must be a real number, got True$"):
            SourceParams(lam=True)
        with pytest.raises(DomainError,
                           match=r"^eta_f must be a real number, got '0.9'$"):
            SourceParams(eta_f="0.9")

    def test_thermal_pumping_bounded_at_construction(self):
        # each law's bound is its record's lam_below; Poisson has none
        for dist, law in PAIR_LAWS.items():
            bound = law.lam_below
            if bound == math.inf:
                SourceParams(lam=1e300, pair_dist=dist)
                continue
            SourceParams(lam=math.nextafter(bound, 0.0), pair_dist=dist)
            for lam in (bound, bound + 0.5):
                message = (f"{dist.value} pair distribution requires "
                           f"lam < {bound:g}, got {lam}")
                with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                    SourceParams(lam=lam, pair_dist=dist)
        # a string is refused before the bound, whatever the pair law it names
        with pytest.raises(DomainError, match="^pair_dist must be a Pair"):
            SourceParams(lam=2.5, pair_dist="thermal")

    def test_immutable(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SourceParams().lam = 0.5

    def test_every_pair_law_has_a_record(self):
        assert set(PAIR_LAWS) == set(PairDistribution)


class TestSchemeConfig:
    def test_selection_defaults_to_protocol_pairing(self):
        assert SchemeConfig(n_bins=4).selection is Selection.FIRST_PHOTON
        array = SchemeConfig(n_bins=4, detection=Detection.DETECTOR_ARRAY)
        assert array.selection is Selection.LAST_PHOTON

    def test_mismatched_selection_needs_override(self):
        with pytest.raises(DomainError):
            SchemeConfig(n_bins=4, selection=Selection.LAST_PHOTON)
        cfg = SchemeConfig(n_bins=4, selection=Selection.LAST_PHOTON,
                           allow_mismatched_selection=True)
        assert cfg.selection is Selection.LAST_PHOTON

    @pytest.mark.parametrize("kwargs", [
        {"topology": "binary"}, {"detection": "array"},
        {"selection": "first", "allow_mismatched_selection": True},
        {"allow_mismatched_selection": "no"},
        {"allow_mismatched_selection": 1},
    ], ids=["topology-str", "detection-str", "selection-str",
            "allow-str", "allow-int"])
    def test_variants_take_only_their_kind(self, kwargs):
        field = next(iter(kwargs))
        with pytest.raises(DomainError, match=f"^{field} must be a "):
            SchemeConfig(n_bins=31, **kwargs)

    def test_rejects_empty_frame(self):
        with pytest.raises(DomainError):
            SchemeConfig(n_bins=0)

    def test_depth_is_capped(self):
        assert SchemeConfig(n_bins=MAX_BINS).n_bins == MAX_BINS
        with pytest.raises(DomainError, match=f"<= {MAX_BINS}"):
            SchemeConfig(n_bins=MAX_BINS + 1)


#: Values that put another field out of range; a wrong kind is still named.
OUT_OF_RANGE = {
    SourceParams: {"lam": -1.0, "eta_f": 2.0},
    SchemeConfig: {"n_bins": 0, "selection": Selection.LAST_PHOTON},
}


@pytest.mark.parametrize("cls,field", [
    pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
    for cls in OUT_OF_RANGE for f in dataclasses.fields(cls)])
def test_every_field_refuses_a_wrong_kind(cls, field):
    """A field added without a kind check fails here by name."""
    with pytest.raises(DomainError, match=f"^{field} must be "):
        cls(**{**OUT_OF_RANGE[cls], field: object()})


def test_range_words():
    assert (NONNEGATIVE.words, POSITIVE.words, UNIT.words) == (
        ">= 0", "> 0", "in [0, 1]")


@pytest.mark.parametrize("cls,field", [
    pytest.param(cls, name, id=f"{cls.__name__}.{name}")
    for cls in (SourceParams, SchemeConfig)
    for name, kind, _, _ in field_kinds(cls) if kind is float])
def test_every_float_field_states_a_range(cls, field):
    """A float field added without a range fails here by name."""
    ranges = {name: bounds for name, *_, bounds in field_kinds(cls)}
    assert isinstance(ranges[field], Range), f"{field} states no range"


@pytest.mark.parametrize("field", FLOAT_FIELDS)
def test_range_edges(field):
    """The floats just outside a field's range are refused in the range's
    words, and its ends are kept."""
    bounds = {name: b for name, *_, b in field_kinds(SourceParams)}[field]
    outside = [math.nextafter(bounds.low, -math.inf)]
    if bounds.high < sys.float_info.max:
        outside.append(math.nextafter(bounds.high, math.inf))
    for value in outside:
        with pytest.raises(DomainError, match=(
                f"^{field} must be {re.escape(bounds.words)}, got {value}$")):
            SourceParams(**{field: value})
    for value in (bounds.low, bounds.high):
        assert getattr(SourceParams(**{field: value}), field) == value


def test_faults_are_reported_kinds_then_ranges_then_the_thermal_bound():
    """Every field's kind, then every range, each in field order, and the
    thermal bound last."""
    thermal = PairDistribution.THERMAL_APPROX
    cases = [
        ({"lam": -1.0, "eta_f": "0.9"}, "eta_f must be a real number"),
        ({"eta_f": 2.0, "alpha_inc": math.inf}, "eta_f must be in [0, 1]"),
        ({"lam": math.nan, "period": 0.0}, "lam must be finite"),
        ({"pair_dist": thermal, "lam": 3.0, "period": 0.0},
         "period must be > 0"),
        ({"pair_dist": thermal, "lam": 3.0},
         "thermal pair distribution requires lam < 2"),
    ]
    for kwargs, message in cases:
        with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
            SourceParams(**kwargs)


@pytest.mark.parametrize("field", FLOAT_FIELDS)
def test_float_fields_are_stored_as_floats(field):
    """A numpy float32 design gives the bits of the same value given as a
    Python float, and its breakdown serializes."""
    default = next(f.default for f in dataclasses.fields(SourceParams)
                   if f.name == field)
    single = np.float32(default)
    p32 = SourceParams(**{field: single})
    p64 = SourceParams(**{field: float(single)})
    assert type(getattr(p32, field)) is float
    s = SchemeConfig(n_bins=31)
    b32, b64 = total_efficiency(p32, s), total_efficiency(p64, s)
    assert b32.eta_total.hex() == b64.eta_total.hex()
    assert (optimize_bins(p32, s).eta_max.hex()
            == optimize_bins(p64, s).eta_max.hex())
    json.dumps(b32.per_bin_success)


BIG = 10**5000
P, S = SourceParams(), SchemeConfig(n_bins=31)


@pytest.mark.parametrize("call,name,error", [
    (lambda: SchemeConfig(n_bins=BIG), "n_bins", DomainError),
    (lambda: SourceParams(lam=BIG), "lam", DomainError),
    (lambda: SourceParams(eta_f=BIG), "eta_f", DomainError),
    (lambda: SourceParams(alpha_inc=-BIG), "alpha_inc", DomainError),
    (lambda: find_crossing(P, 0.85, 0.99, BIG), "tol", DomainError),
    (lambda: find_crossing(P, 0.85, BIG), "hi", DomainError),
    (lambda: estimate_eta(P, S, BIG, 0), "n_trials", DomainError),
    (lambda: check_unit("eta", BIG), "eta", DomainError),
    (lambda: occupied_bins(8, BIG), "lam", DomainError),
    (lambda: sweep_values("eta_sw", None, 0.5, BIG, 0.1), "max", ConfigError),
    (lambda: optimize_bins(P, S, 1, BIG), "n_max", DomainError),
], ids=["n_bins", "lam", "eta_f", "alpha_inc", "tol", "hi", "n_trials",
        "check_unit", "occupied_bins", "sweep_values", "n_max"])
def test_int_too_long_to_print_is_named_by_size(call, name, error):
    """Python refuses to print an int of more than 4,300 digits; the
    message gives its size instead."""
    with pytest.raises(error, match=(
            rf"{name}.*(a negative|an) integer of 16610 bits\b")):
        call()


@pytest.mark.parametrize("call,name,error", [
    (lambda v: check_unit("eta_d", v), "eta_d", DomainError),
    (lambda v: no_herald_probability(P, v), "eta_d", DomainError),
    (lambda v: occupied_bins(8, v), "lam", DomainError),
    (lambda v: avg_linear_transmission(P, 8, v), "lam", DomainError),
    (lambda v: find_crossing(P, v, 0.99), "lo", DomainError),
    (lambda v: find_crossing(P, 0.85, v), "hi", DomainError),
    (lambda v: find_crossing(P, 0.85, 0.99, tol=v), "tol", DomainError),
    (lambda v: sweep_values("eta_sw", None, v, 1, 0.1), "min", ConfigError),
    (lambda v: sweep_values("eta_sw", None, 0, 1, v), "step", ConfigError),
], ids=["check_unit", "no_herald", "occupied_bins", "avg_lin", "lo", "hi",
        "tol", "sweep_min", "sweep_step"])
@pytest.mark.parametrize("value", ["0.5", True], ids=repr)
def test_real_arguments_refuse_text_and_bools(call, name, error, value):
    with pytest.raises(error, match=(
            f"^{name} must be a real number, got {re.escape(repr(value))}$")):
        call(value)


def test_real_arguments_are_read_as_floats():
    """A numpy float32 bracket bisects in float, not float32."""
    got = find_crossing(P, np.float32(0.85), np.float32(0.99))
    assert type(got) is float
    assert got == find_crossing(P, float(np.float32(0.85)),
                                float(np.float32(0.99)))
    assert type(check_unit("eta", np.float32(0.5))) is float
    assert type(SourceParams(eta_f=1).eta_f) is float


class TestPairCountDistribution:
    def test_poisson_no_pumping(self):
        p = SourceParams(lam=0.0)
        assert pair_count_distribution(p, 0) == 1.0
        assert pair_count_distribution(p, 3) == 0.0

    def test_poisson_single_pair(self):
        p = SourceParams(lam=0.1)
        assert pair_count_distribution(p, 1) == pytest.approx(
            0.1 * math.exp(-0.1), rel=1e-12)

    def test_thermal_matches_renormalized_weights(self):
        # oracle: raw weights (n+1)(lam/2)^n e^-lam summed to n=100
        lam = 0.1
        p = SourceParams(lam=lam, pair_dist=PairDistribution.THERMAL_APPROX)
        raw = [(n + 1) * (lam / 2) ** n * math.exp(-lam) for n in range(101)]
        total = math.fsum(raw)
        for n in (0, 1, 2, 5):
            assert pair_count_distribution(p, n) == pytest.approx(
                raw[n] / total, rel=1e-12)
        assert math.fsum(pair_count_distribution(p, n) for n in range(101)) \
            == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("dist", list(PairDistribution))
    @pytest.mark.parametrize("lam", [0.02, 0.1, 0.5, 1.0])
    def test_normalization_over_truncation_range(self, dist, lam):
        p = SourceParams(lam=lam, pair_dist=dist)
        total = math.fsum(pair_count_distribution(p, n) for n in range(201))
        assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("dist", list(PairDistribution))
    @pytest.mark.parametrize("lam", [0.05, 0.3, 0.9])
    def test_monotone_nonincreasing_below_unit_pumping(self, dist, lam):
        p = SourceParams(lam=lam, pair_dist=dist)
        values = [pair_count_distribution(p, n) for n in range(40)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_negative_count_rejected(self):
        with pytest.raises(DomainError):
            pair_count_distribution(SourceParams(), -1)
        with pytest.raises(DomainError,
                           match="^pair count must be an integer, got 1.5$"):
            pair_count_distribution(SourceParams(), 1.5)

    def test_thermal_needs_lam_below_two(self):
        p = SourceParams(lam=1.9999, pair_dist=PairDistribution.THERMAL_APPROX)
        assert pair_count_distribution(p, 0) > 0
        with pytest.raises(DomainError):
            pair_count_distribution(
                SourceParams(lam=2.0, pair_dist=PairDistribution.THERMAL_APPROX), 0)


#: (law, lam) of each sampler check, the family of its Bonferroni threshold.
SAMPLER_CASES = [(dist, lam) for dist in PairDistribution for lam in (0.3, 1.5)]


class TestSamplePairs:
    @pytest.mark.parametrize("dist", list(PairDistribution))
    def test_no_pumping_gives_zeros_and_draws_nothing(self, dist):
        # negative_binomial(2, 1.0) would also give zeros, but it consumes
        # draws; the Poisson draw at lam = 0 leaves the stream where it was
        rng = np.random.default_rng(7)
        pairs = sample_pairs(SourceParams(lam=0.0, pair_dist=dist), rng, 9)
        assert pairs.dtype == np.int64
        assert pairs.tolist() == [0] * 9
        assert rng.random() == np.random.default_rng(7).random()

    @pytest.mark.parametrize("dist,lam", SAMPLER_CASES)
    def test_draws_follow_the_pmf(self, dist, lam):
        # chi-square of 200k draws against pair_count_distribution, the tail
        # from the first cell expected below 5 pooled into one cell (into
        # the cell before it if it is still below 5), Bonferroni-corrected
        scipy_stats = pytest.importorskip("scipy.stats")
        p, n = SourceParams(lam=lam, pair_dist=dist), 200_000
        counts = np.bincount(sample_pairs(p, np.random.default_rng(5), n),
                             minlength=MAX_PAIRS + 1).tolist()
        expected = [n * pair_count_distribution(p, k)
                    for k in range(MAX_PAIRS + 1)]
        cut = next(k for k, e in enumerate(expected) if e < 5)
        if n - math.fsum(expected[:cut]) < 5:
            cut -= 1
        observed = counts[:cut] + [n - sum(counts[:cut])]
        expected = expected[:cut] + [n - math.fsum(expected[:cut])]
        _, p_value = scipy_stats.chisquare(observed, expected)
        assert p_value > 0.001 / len(SAMPLER_CASES), p_value


class TestPairGeneratingFunction:
    @pytest.mark.parametrize("dist", list(PairDistribution))
    @pytest.mark.parametrize("lam", [0.0, 0.02, 0.3, 1.0, 1.5])
    def test_normalized_with_mean_slope(self, dist, lam):
        p = SourceParams(lam=lam, pair_dist=dist)
        mean = math.fsum(n * pair_count_distribution(p, n) for n in range(201))
        assert pair_generating_function(p, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert pair_generating_derivative(p)(1.0) == pytest.approx(
            mean, rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("lam", [0.02, 0.3, 1.0, 1.5])
    def test_mean_closed_forms(self, lam):
        poisson = SourceParams(lam=lam)
        thermal = SourceParams(lam=lam, pair_dist=PairDistribution.THERMAL_APPROX)
        x = lam / 2
        assert pair_generating_derivative(poisson)(1.0) == pytest.approx(
            lam, rel=1e-15)
        assert pair_generating_derivative(thermal)(1.0) == pytest.approx(
            2 * x / (1 - x), rel=1e-15)

    @pytest.mark.parametrize("dist", list(PairDistribution))
    @pytest.mark.parametrize("lam", [0.02, 0.3, 1.0, 1.5])
    @pytest.mark.parametrize("z", [0.0, 0.05, 0.405, 0.76, 0.999])
    def test_matches_pmf_power_series(self, dist, lam, z):
        # oracle: sum_n P(n) z^n and sum_n n P(n) z^(n-1) to n = 200
        p = SourceParams(lam=lam, pair_dist=dist)
        pmf = [pair_count_distribution(p, n) for n in range(201)]
        g = math.fsum(w * z**n for n, w in enumerate(pmf))
        dg = math.fsum(n * w * z ** (n - 1) for n, w in enumerate(pmf) if n)
        assert pair_generating_function(p, z) == pytest.approx(g, abs=1e-14)
        assert pair_generating_derivative(p)(z) == pytest.approx(dg, abs=1e-14)

