"""The curve evaluator against the one-N closed form, to the bit.

``eta_curve`` builds the work that does not depend on N once per curve;
every value must still equal ``total_efficiency(...).eta_total`` exactly.
The answers read from curves (``find_crossing`` and the fig3 files) are
pinned to the values they had before ``eta_curve`` existed.
"""
import hashlib
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from photonmux.app import emit_fig3, find_crossing, optimize_bins
from photonmux.config import parse_config
from photonmux.efficiency import (avg_linear_transmission, eta_curve,
                                  total_efficiency)
from photonmux.model import (
    MAX_BINS,
    Detection,
    DomainError,
    PairDistribution,
    SchemeConfig,
    Selection,
    SourceParams,
    Topology,
)

#: Pump strength of each pair law, as in ``test_closed_form_bits``.
LAMBDAS = {PairDistribution.POISSON: 0.3, PairDistribution.THERMAL_APPROX: 0.7}


def _designs():
    for dist, topology, detection, selection, d0, literal in (
            itertools.product(LAMBDAS, Topology, Detection, Selection,
                              (True, False), (False, True))):
        key = (f"{dist.value}/{topology.value}/{detection.value}/"
               f"{selection.value}/d0={d0}/literal={literal}")
        params = SourceParams.table_defaults(
            detection, lam=LAMBDAS[dist], pair_dist=dist,
            include_filter_in_d0=d0, literal_exponent=literal)
        scheme = SchemeConfig(n_bins=1, topology=topology,
                              detection=detection, selection=selection,
                              allow_mismatched_selection=True)
        yield key, (params, scheme)


DESIGNS = dict(_designs())


def _hex_curve(params, scheme, n_values) -> list[str]:
    return [float.hex(eta) for eta in eta_curve(params, scheme, n_values)]


def _hex_points(params, scheme, n_values) -> list[str]:
    return [float.hex(total_efficiency(params,
                                       replace(scheme, n_bins=n)).eta_total)
            for n in n_values]


def test_every_combination_is_covered():
    assert len(DESIGNS) == 64


def test_every_pair_law_has_a_pump_strength():
    assert set(LAMBDAS) == set(PairDistribution)


@pytest.mark.parametrize("key", list(DESIGNS))
def test_curve_to_128_is_the_closed_form(key):
    params, scheme = DESIGNS[key]
    n_values = range(1, 129)
    assert _hex_curve(params, scheme, n_values) == _hex_points(
        params, scheme, n_values)


@pytest.mark.parametrize("key", [
    "poisson/single-line/array/last/d0=True/literal=False",
    "thermal/binary/single/first/d0=False/literal=True",
    "poisson/binary/array/last/d0=True/literal=False"])
def test_curve_to_max_bins_is_the_closed_form(key):
    params, scheme = DESIGNS[key]
    n_values = range(1, MAX_BINS + 1)
    assert _hex_curve(params, scheme, n_values) == _hex_points(
        params, scheme, n_values)


@pytest.mark.parametrize("key", [
    "poisson/binary/single/first/d0=True/literal=False",
    "thermal/single-line/array/last/d0=False/literal=True",
    "poisson/binary/array/last/d0=True/literal=False"])
def test_unsorted_and_repeated_depths(key):
    params, scheme = DESIGNS[key]
    n_values = (64, 3, MAX_BINS, 3, 1, 64, 17, 1)
    assert _hex_curve(params, scheme, n_values) == _hex_points(
        params, scheme, n_values)


def test_scheme_depth_is_not_read():
    params, scheme = DESIGNS["poisson/binary/single/first/d0=True/"
                             "literal=False"]
    assert eta_curve(params, scheme, (5, 9)) == eta_curve(
        params, replace(scheme, n_bins=MAX_BINS), (5, 9))


def test_empty_curve():
    assert eta_curve(SourceParams(), SchemeConfig(n_bins=1), ()) == ()


@pytest.mark.parametrize("n_values,message", [
    ((4, 0), "n_bins must be >= 1, got 0"),
    ((MAX_BINS + 1, 4), f"n_bins must be <= {MAX_BINS}, got {MAX_BINS + 1}"),
    ((math.nan,), "n_bins must be an integer, got nan"),
    ((4, math.nan, 8), "n_bins must be an integer, got nan"),
    ((31.0,), "n_bins must be an integer, got 31.0"),
    ((2.5, 4), "n_bins must be an integer, got 2.5"),
    ((4, True), "n_bins must be an integer, got True")])
def test_depth_outside_the_cap_is_rejected(n_values, message):
    with pytest.raises(DomainError, match=message):
        eta_curve(SourceParams(), SchemeConfig(n_bins=1), n_values)


@pytest.mark.parametrize("build", [
    lambda: SchemeConfig(n_bins=31.0),
    lambda: SchemeConfig(n_bins=math.nan),
    lambda: SchemeConfig(n_bins=2.5),
    lambda: SchemeConfig(n_bins=True),
    lambda: optimize_bins(SourceParams(), SchemeConfig(n_bins=1), 1.5, 8),
    lambda: optimize_bins(SourceParams(), SchemeConfig(n_bins=1), 1, math.nan),
    lambda: avg_linear_transmission(SourceParams(), 2.5, 0.5),
    lambda: avg_linear_transmission(SourceParams(), math.nan, 0.5),
], ids=["scheme-float", "scheme-nan", "scheme-fraction", "scheme-bool",
        "n_min-fraction", "n_max-nan", "fig3c-fraction", "fig3c-nan"])
def test_depth_that_is_not_an_integer_is_rejected(build):
    with pytest.raises(DomainError, match="must be an integer"):
        build()


def test_numpy_integer_depths_pass():
    params = SourceParams()
    scheme = SchemeConfig(n_bins=np.int64(31))
    assert type(scheme.n_bins) is int
    assert total_efficiency(params, scheme) == total_efficiency(
        params, SchemeConfig(n_bins=31))
    assert eta_curve(params, scheme, [np.int32(5), np.int64(31)]) == \
        eta_curve(params, scheme, (5, 31))
    assert optimize_bins(params, scheme, np.int64(1), np.int64(8)) == \
        optimize_bins(params, scheme, 1, 8)


#: (config text, include_filter_in_d0, literal_exponent) of each pinned
#: point: the defaults, and a thermal array config at N = 63 read with
#: ``--d0-excludes-filter --literal-loss-exponent``.
PINNED_POINTS = {
    "default": ("", True, False),
    "thermal-array-63": ("pair_dist = thermal\ndetection = array\n"
                         "n_bins = 63\n", False, True),
}

#: ``float.hex(find_crossing(params, lo, hi, 1e-3))`` per point and bracket.
PINNED_CROSSINGS = {
    ("default", 0.85, 0.99): "0x1.efd1eb851eb84p-1",
    ("default", 0.5, 1.0): "0x1.efc0000000000p-1",
    ("thermal-array-63", 0.85, 0.99): "0x1.eddc28f5c28f4p-1",
    ("thermal-array-63", 0.5, 1.0): "0x1.edc0000000000p-1",
}

#: SHA-256 of the four files ``emit_fig3`` writes, in the order it returns
#: them (the metadata records ``photonmux.__version__``).
PINNED_FIG3 = {
    "default":
        "3de1f6fd502889e990fedf0e09f6ebd3d0c3f9ebf37377088d279efd8c3f80ee",
    "thermal-array-63":
        "024739a56ebd52711357d38003d611370455f597ed676e3ea7365fea3fe8a645",
}


def _pinned_params(point: str) -> SourceParams:
    text, d0, literal = PINNED_POINTS[point]
    params, _ = parse_config(text)
    return replace(params, include_filter_in_d0=d0, literal_exponent=literal)


@pytest.mark.parametrize("point,lo,hi", list(PINNED_CROSSINGS))
def test_crossing_keeps_its_bits(point, lo, hi):
    value = find_crossing(_pinned_params(point), lo, hi, 1e-3)
    assert float.hex(value) == PINNED_CROSSINGS[point, lo, hi]


@pytest.mark.parametrize("point", list(PINNED_FIG3))
def test_fig3_keeps_its_bytes(point, tmp_path):
    digest = hashlib.sha256()
    for path in emit_fig3(tmp_path, _pinned_params(point)):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    assert digest.hexdigest() == PINNED_FIG3[point]
