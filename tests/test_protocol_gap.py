"""The protocol gap against both full curves, and the premise it rests on.

``protocol_gap`` reads the detector array's best efficiency at the octave
tops of 1..N_MAX only.  That is exact because a last-photon curve on the
binary tree never falls within an octave of N (a run of N with one
``switch_passes(N)``); a first-photon curve can, so the single detector is
read at every N.
"""
from dataclasses import replace
from itertools import groupby

import pytest
from hypothesis import given, settings, strategies as st

from photonmux import app
from photonmux.app import protocol_gap
from photonmux.efficiency import eta_curve
from photonmux.model import (
    N_MAX,
    PROTOCOL_ETA_DET,
    Detection,
    PairDistribution,
    SchemeConfig,
    Selection,
    SourceParams,
    Topology,
    switch_passes,
)

PROPERTY = settings(deadline=None, derandomize=True, database=None,
                    max_examples=150)

DEPTHS = range(1, N_MAX + 1)
#: Depths of N_MAX's range by octave, each a run of one switch count:
#: 1, 2..3, 4..7, ..., 64..127, 128.
OCTAVES = [list(run) for _, run in groupby(DEPTHS, key=switch_passes)]


def test_octave_tops_are_the_last_depth_of_each_octave():
    assert app.OCTAVE_TOPS == tuple(octave[-1] for octave in OCTAVES) == (
        1, 3, 7, 15, 31, 63, 127, 128)


def test_octave_tops_follow_the_switch_count(monkeypatch):
    """Under the hardware count (N - 1).bit_length() + 1 the octaves are
    1, 2, 3..4, ..., 65..128, so the tops are the powers of two."""
    monkeypatch.setattr(app, "switch_passes",
                        lambda n: (n - 1).bit_length() + 1)
    assert app._octave_tops() == (1, 2, 4, 8, 16, 32, 64, 128)


@st.composite
def designs(draw):
    dist = draw(st.sampled_from(PairDistribution))
    lam_max = 1.999 if dist is PairDistribution.THERMAL_APPROX else 4.0
    unit = st.floats(0.0, 1.0)
    return SourceParams(
        lam=draw(st.floats(0.0, lam_max)), pair_dist=dist,
        eta_f=draw(unit), eta_c=draw(unit), eta_conv=draw(unit),
        alpha_inc=draw(st.floats(0.0, 0.5)),
        include_filter_in_d0=draw(st.booleans()),
        literal_exponent=draw(st.booleans()))


SWITCH = st.floats(0.0, 1.0, exclude_min=True)


def _curve(params, eta_sw, detection, selection=None):
    """Efficiency at every N of 1..N_MAX of the protocol-matched binary-tree
    design: switch transmission ``eta_sw``, the protocol's detector."""
    matched = replace(params, eta_sw=eta_sw,
                      eta_det=PROTOCOL_ETA_DET[detection])
    scheme = SchemeConfig(n_bins=1, topology=Topology.BINARY_DELAY,
                          detection=detection, selection=selection,
                          allow_mismatched_selection=True)
    return eta_curve(matched, scheme, DEPTHS)


def _reference_gap(params, eta_sw):
    single = max(_curve(params, eta_sw, Detection.SINGLE_DETECTOR))
    array = max(_curve(params, eta_sw, Detection.DETECTOR_ARRAY))
    return single - array


def _assert_gap_is_the_full_curves_gap(params, eta_sw):
    assert float.hex(protocol_gap(params, eta_sw)) == float.hex(
        _reference_gap(params, eta_sw))


@PROPERTY
@given(designs(), SWITCH)
def test_gap_is_the_full_curves_gap(params, eta_sw):
    _assert_gap_is_the_full_curves_gap(params, eta_sw)


#: (design overrides, eta_sw) at the edges of the domain.  On the lossless
#: chip the array peaks at N = 128, alone in its octave 128..255, so the
#: octave tops must include N_MAX.
EDGES = {
    "no-pairs": ({"lam": 0.0}, 0.87),
    "dim-switch": ({}, 1e-3),
    "lossless-chip": ({"eta_f": 1.0, "eta_c": 1.0, "alpha_inc": 0.0}, 1.0),
    "no-delay-loss": ({"alpha_inc": 0.0}, 0.87),
}


@pytest.mark.parametrize("d0", [True, False])
@pytest.mark.parametrize("literal", [False, True])
@pytest.mark.parametrize("dist", list(PairDistribution))
@pytest.mark.parametrize("edge", list(EDGES))
def test_gap_at_the_edges(edge, dist, literal, d0):
    overrides, eta_sw = EDGES[edge]
    params = SourceParams(pair_dist=dist, include_filter_in_d0=d0,
                          literal_exponent=literal, **overrides)
    _assert_gap_is_the_full_curves_gap(params, eta_sw)


@PROPERTY
@given(designs(), SWITCH, st.sampled_from(Detection))
def test_last_photon_curve_never_falls_within_an_octave(params, eta_sw,
                                                        detection):
    curve = _curve(params, eta_sw, detection, Selection.LAST_PHOTON)
    for octave in OCTAVES:
        etas = [curve[n - 1] for n in octave]
        assert etas == sorted(etas)


#: First-photon counterexample: the protocol-matched single detector on the
#: binary tree, thermal pairs.
THERMAL_DESIGN = {"lam": 0.345, "alpha_inc": 0.256,
                  "pair_dist": PairDistribution.THERMAL_APPROX}


@pytest.mark.parametrize("d0", [True, False])
@pytest.mark.parametrize("literal", [False, True])
def test_first_photon_curve_falls_within_an_octave(literal, d0):
    params = SourceParams(include_filter_in_d0=d0, literal_exponent=literal,
                          **THERMAL_DESIGN)
    curve = _curve(params, 0.724, Detection.SINGLE_DETECTOR)
    falls = [n for n in range(9, 16) if curve[n - 1] < curve[n - 2]]
    assert falls == list(range(9, 16))


def test_first_photon_best_lies_inside_an_octave():
    """At eta_sw = 1 the same design's single-detector best is at N = 9,
    above every octave top, so its maximum must be read at every N."""
    curve = _curve(SourceParams(**THERMAL_DESIGN), 1.0,
                   Detection.SINGLE_DETECTOR)
    tops = [octave[-1] for octave in OCTAVES]
    assert curve.index(max(curve)) + 1 == 9
    assert max(curve) > max(curve[n - 1] for n in tops)
