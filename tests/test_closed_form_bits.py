"""The closed form's answers, pinned to the bit.

``closed_form_bits.json`` holds ``float.hex(eta_total)`` and a digest of
``per_bin_success`` for both pair laws, both topologies, every pairing of
detection and selection and all four readings, at N = 1, 31, 128 and 1024.
A speed-up of ``total_efficiency`` that moves one bit of one answer
fails here.  Re-record only at a commit whose answers are known
to be right: ``PYTHONPATH=src python tests/test_closed_form_bits.py``.
"""
import hashlib
import itertools
import json
import os

import pytest

from photonmux.efficiency import (
    detection_efficiency,
    quiet_bins,
    total_efficiency,
)
from photonmux.model import (
    Detection,
    PairDistribution,
    SchemeConfig,
    Selection,
    SourceParams,
    Topology,
)

from generating_derivative import pair_generating_derivative

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "closed_form_bits.json")
#: Pump strength of each pair law: a weak Poisson and a strong thermal source.
LAMBDAS = {PairDistribution.POISSON: 0.3, PairDistribution.THERMAL_APPROX: 0.7}
N_VALUES = (1, 31, 128, 1024)


def _designs():
    for dist, topology, detection, selection, d0, literal, n in (
            itertools.product(LAMBDAS, Topology, Detection, Selection,
                              (True, False), (False, True), N_VALUES)):
        key = (f"{dist.value}/{topology.value}/{detection.value}/"
               f"{selection.value}/d0={d0}/literal={literal}/N={n}")
        params = SourceParams.table_defaults(
            detection, lam=LAMBDAS[dist], pair_dist=dist,
            include_filter_in_d0=d0, literal_exponent=literal)
        scheme = SchemeConfig(n_bins=n, topology=topology,
                              detection=detection, selection=selection,
                              allow_mismatched_selection=True)
        yield key, params, scheme


def _bits(params, scheme) -> list[str]:
    result = total_efficiency(params, scheme)
    text = ",".join(map(float.hex, result.per_bin_success))
    return [float.hex(result.eta_total),
            hashlib.sha256(text.encode()).hexdigest()]


DESIGNS = {key: (params, scheme) for key, params, scheme in _designs()}


@pytest.fixture(scope="module")
def recorded() -> dict:
    with open(PATH) as fh:
        return json.load(fh)


def test_every_design_is_recorded(recorded):
    assert sorted(recorded) == sorted(DESIGNS)


def test_every_pair_law_has_a_pump_strength():
    assert set(LAMBDAS) == set(PairDistribution)


@pytest.mark.parametrize("key", list(DESIGNS))
def test_total_efficiency_keeps_its_bits(key, recorded):
    assert _bits(*DESIGNS[key]) == recorded[key]


POISSON, THERMAL = PairDistribution.POISSON, PairDistribution.THERMAL_APPROX
#: Designs the pinned ones do not reach: no pumping on either law, a thermal
#: source at the edge of its domain, a perfect herald (q = 0), a chip that
#: passes nothing (t = 0) and one that loses nothing (t = 1).
EDGE_PARAMS = {
    "poisson-lam=0": SourceParams(lam=0.0, pair_dist=POISSON),
    "thermal-lam=0": SourceParams(lam=0.0, pair_dist=THERMAL),
    "thermal-lam=1.999": SourceParams(lam=1.999, pair_dist=THERMAL),
    "poisson-eta_d=1": SourceParams(lam=0.3, eta_conv=1.0, eta_det=1.0),
    "thermal-eta_d=1": SourceParams(lam=0.7, pair_dist=THERMAL,
                                    eta_conv=1.0, eta_det=1.0),
    "poisson-eta_sw=0": SourceParams(lam=0.3, eta_sw=0.0),
    "thermal-eta_sw=0": SourceParams(lam=0.7, pair_dist=THERMAL, eta_sw=0.0),
    **{f"{dist.value}-lossless": SourceParams(
        lam=0.5, pair_dist=dist, eta_f=1.0, eta_c=1.0, eta_sw=1.0,
        eta_det=1.0, eta_conv=1.0, alpha_inc=0.0)
       for dist in (POISSON, THERMAL)},
}


@pytest.mark.parametrize("selection", Selection)
@pytest.mark.parametrize("topology", Topology)
@pytest.mark.parametrize("key", list(EDGE_PARAMS))
def test_per_bin_success_is_the_model_derivative_expression(
        key, topology, selection):
    # B(r) writes G' inline; it must keep the bits of the expression built
    # on the reference G'
    params = EDGE_PARAMS[key]
    g1 = pair_generating_derivative(params)
    for n in (1, 7, 64):
        scheme = SchemeConfig(n_bins=n, topology=topology, selection=selection,
                              allow_mismatched_selection=True)
        result = total_efficiency(params, scheme)
        q = 1.0 - detection_efficiency(params, scheme)
        d0 = result.d0
        expected = [d0 ** k * (t * (g1(1.0 - t) - q * g1(q * (1.0 - t))))
                    for k, t in zip(quiet_bins(scheme.selection,
                                               scheme.n_bins),
                                    result.pic_transmission)]
        assert list(map(float.hex, result.per_bin_success)) == list(
            map(float.hex, expected)), n


if __name__ == "__main__":
    with open(PATH, "w") as fh:
        json.dump({key: _bits(*design) for key, design in DESIGNS.items()},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
