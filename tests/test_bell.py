import cmath
import math

import numpy as np
import pytest

from photonmux.bell import (
    BELL_STATES,
    HBS_DETECTOR_PORTS,
    HERALD_PATTERNS,
    CircuitElement,
    FockState,
    H,
    V,
    hbs_circuit,
    hbs_enumeration,
    mode_index,
    nonpolarizing_coupler,
    polarization_rotator,
    polarizing_coupler,
    two_source_circuit,
    two_source_enumeration,
)


def norm_squared(state):
    return math.fsum(abs(a) ** 2 for a in state.amplitudes.values())


def photon_numbers(state):
    """The total photon number of each occupation the state holds."""
    return {sum(occ) for occ in state.amplitudes}


def single_photon(port, pol, n_modes=8):
    occ = [0] * n_modes
    occ[mode_index(port, pol)] = 1
    return FockState.from_occupation(tuple(occ))


class TestCircuitElements:
    def test_non_unitary_rejected_at_construction(self):
        with pytest.raises(ValueError):
            CircuitElement("bad", (0, 1), [[1.0, 0.0], [0.5, 1.0]])

    def test_every_standard_element_is_unitary(self):
        for elem in (polarization_rotator(0, 0.3),
                     polarizing_coupler(0, 1),
                     nonpolarizing_coupler(2, 3)):
            U = np.asarray(elem.matrix)
            assert np.abs(U.conj().T @ U - np.eye(len(elem.modes))).max() < 1e-12

    @pytest.mark.parametrize("matrix", [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[1, 0], [0]],
        [[1, 0]],
        [1, 0],
    ], ids=["too-large", "ragged", "too-few-rows", "flat"])
    def test_wrong_shape_rejected_at_construction(self, matrix):
        with pytest.raises(ValueError, match="2 rows of 2"):
            CircuitElement("bad", (0, 1), matrix)

    @pytest.mark.parametrize("build", [
        lambda: CircuitElement("x", (0, 1), [[math.nan, 0], [0, 1]]),
        lambda: CircuitElement("x", (0, 1), [[1, 0], [0, complex(1, math.nan)]]),
        lambda: CircuitElement("x", (0, 1), [[1, 0], [0, math.inf]]),
        lambda: polarization_rotator(0, math.nan),
        lambda: FockState(2, {(1, 0): math.nan}),
        lambda: FockState(2, {(1, 0): 1.0, (0, 1): complex(0, math.inf)}),
    ], ids=["matrix-nan", "matrix-nan-imaginary", "matrix-inf",
            "rotator-nan-angle", "state-nan", "state-inf-imaginary"])
    def test_non_finite_number_rejected(self, build):
        with pytest.raises(ValueError, match="not finite"):
            build()

    def test_polarizing_coupler_transmits_horizontal(self):
        state = single_photon(0, H, 4).apply(polarizing_coupler(0, 1))
        assert state.amplitudes == {(1, 0, 0, 0): pytest.approx(1.0)}

    def test_polarizing_coupler_reflects_vertical(self):
        state = single_photon(0, V, 4).apply(polarizing_coupler(0, 1))
        ((occ, amp),) = state.amplitudes.items()
        assert occ == (0, 0, 0, 1)
        assert abs(amp) == pytest.approx(1.0)

    def test_half_turn_rotator_maps_h_to_v(self):
        state = single_photon(0, H, 2).apply(polarization_rotator(0, math.pi / 2))
        ((occ, amp),) = state.amplitudes.items()
        assert occ == (0, 1)
        assert abs(amp) == pytest.approx(1.0)

    def test_balanced_coupler_splits_single_photon(self):
        state = single_photon(0, H, 4).apply(nonpolarizing_coupler(0, 1))
        mags = sorted(abs(a) for a in state.amplitudes.values())
        assert mags == pytest.approx([1 / math.sqrt(2)] * 2)
        assert norm_squared(state) == pytest.approx(1.0, abs=1e-12)


class TestFockState:
    def test_norm_and_photon_number_preserved_through_circuit(self):
        state = FockState.from_occupation((1, 0, 1, 0, 1, 0, 1, 0))
        for element in hbs_circuit():
            state = state.apply(element)
            assert norm_squared(state) == pytest.approx(1.0, abs=1e-10)
            assert photon_numbers(state) == {4}

    def test_two_photons_one_mode_normalization(self):
        # both photons into one coupler port: amplitudes keep norm 1
        occ = [0] * 4
        occ[0] = 2
        state = FockState.from_occupation(tuple(occ)).apply(
            nonpolarizing_coupler(0, 1))
        assert norm_squared(state) == pytest.approx(1.0, abs=1e-12)

    def test_element_beyond_the_modes_rejected(self):
        # polarizing_coupler(0, 1) acts on modes 0..3; the state has two
        with pytest.raises(ValueError, match="mode out of range"):
            FockState(2, {(1, 0): 1.0}).apply(polarizing_coupler(0, 1))


class TestHeraldedBellCircuit:
    def test_herald_probability_is_three_sixteenths(self):
        assert hbs_enumeration().herald_probability == pytest.approx(
            3 / 16, abs=1e-10)

    def test_pattern_split_and_heralded_states(self):
        enum = hbs_enumeration()
        # each two-detector coincidence carries 1/32
        for name, outcome in enum.patterns.items():
            assert outcome.probability == pytest.approx(1 / 32, abs=1e-10)
        # the four cross patterns herald the matching Bell state exactly
        for name, (_, label) in HERALD_PATTERNS.items():
            outcome = enum.patterns[name]
            assert outcome.bell_label == label
            if label is not None:
                assert outcome.fidelity == pytest.approx(1.0, abs=1e-10)
        assert enum.patterns["D1H,D2H"].bell_label == "phi_plus"
        assert enum.patterns["D1V,D2V"].bell_label == "phi_plus"
        assert enum.patterns["D1H,D2V"].bell_label == "psi_plus"
        assert enum.patterns["D1V,D2H"].bell_label == "psi_plus"

    def test_bell_yield_and_false_heralds(self):
        enum = hbs_enumeration()
        assert enum.bell_yield == pytest.approx(1 / 8, abs=1e-10)
        assert enum.false_herald_probability == pytest.approx(1 / 16, abs=1e-10)
        assert enum.herald_probability == pytest.approx(
            enum.bell_yield + enum.false_herald_probability, abs=1e-10)

    def test_all_detection_patterns_sum_to_unity(self):
        state = FockState.from_occupation((1, 0, 1, 0, 1, 0, 1, 0))
        final = state.apply_all(hbs_circuit())
        assert norm_squared(final) == pytest.approx(1.0, abs=1e-10)

    def test_removing_middle_rotation_changes_the_distribution(self):
        # the circuit without the rotators around the middle coupler
        quarter = math.pi / 4
        elements = [polarization_rotator(p, quarter) for p in range(4)]
        elements += [polarizing_coupler(0, 1), polarizing_coupler(2, 3),
                     polarizing_coupler(1, 2)]
        final = FockState.from_occupation((1, 0, 1, 0, 1, 0, 1, 0)).apply_all(elements)

        def outcome(name):
            """Click probability of one detector pattern and the amplitudes
            it leaves with one photon in each output port (0 and 3)."""
            prob, pair = 0.0, {}
            for occ, amp in final.amplitudes.items():
                if (occ[2], occ[3], occ[4], occ[5]) != HERALD_PATTERNS[name][0]:
                    continue
                prob += abs(amp) ** 2
                if occ[0] + occ[1] == 1 and occ[6] + occ[7] == 1:
                    key = (occ[1], occ[7])  # H = 0, V = 1 in each port
                    pair[key] = pair.get(key, 0j) + amp
            return prob, pair

        # click mass doubles on the cross patterns and the heralded states
        # degrade: the polarization-matched patterns drop to fidelity 1/2,
        # the crossed ones keep no valid output pair at all
        matched, pair = outcome("D1H,D2H")
        assert matched == pytest.approx(1 / 16, abs=1e-10)
        ref = BELL_STATES["phi_plus"]
        overlap = sum(ref.get(k, 0.0) * a for k, a in pair.items())
        cond_prob = sum(abs(a) ** 2 for a in pair.values())
        assert abs(overlap) ** 2 / cond_prob == pytest.approx(0.5, abs=1e-10)
        crossed, pair = outcome("D1H,D2V")
        assert crossed == pytest.approx(1 / 16, abs=1e-10)
        assert pair == {}
        assert hbs_enumeration().patterns["D1H,D2H"].probability != pytest.approx(
            matched, abs=1e-3)

    def test_global_phase_invariance(self):
        base = FockState.from_occupation((1, 0, 1, 0, 1, 0, 1, 0))
        phased = FockState(8, {occ: a * cmath.exp(1j * 1.234)
                               for occ, a in base.amplitudes.items()})
        final = phased.apply_all(hbs_circuit())
        total = 0.0
        d_modes = (2, 3, 4, 5)
        for occ, amp in final.amplitudes.items():
            det = tuple(occ[m] for m in d_modes)
            if sorted(det) == [0, 0, 1, 1]:
                total += abs(amp) ** 2
        assert total == pytest.approx(3 / 16, abs=1e-10)

    def test_mirror_symmetry_of_source_pairs(self):
        # exchanging the two source pairs (mirroring the chip top-to-bottom)
        # leaves the herald probability unchanged
        quarter = math.pi / 4
        elements = [polarization_rotator(p, quarter) for p in range(4)]
        elements += [polarizing_coupler(2, 3), polarizing_coupler(0, 1)]
        elements += [polarization_rotator(2, quarter),
                     polarization_rotator(1, quarter)]
        elements.append(polarizing_coupler(2, 1))
        elements += [polarization_rotator(2, -quarter),
                     polarization_rotator(1, -quarter)]
        final = FockState.from_occupation((1, 0, 1, 0, 1, 0, 1, 0)).apply_all(elements)
        total = 0.0
        for occ, amp in final.amplitudes.items():
            det = (occ[2], occ[3], occ[4], occ[5])
            if sorted(det) == [0, 0, 1, 1]:
                total += abs(amp) ** 2
        assert total == pytest.approx(3 / 16, abs=1e-10)

    def test_bucket_detectors_accept_more_events(self):
        resolved = hbs_enumeration(number_resolving=True)
        bucket = hbs_enumeration(number_resolving=False)
        assert bucket.herald_probability > resolved.herald_probability


#: Each heralding detector's name, in detector-mode order: D1 is port 1 and
#: D2 port 2, each split into H and V.
DETECTOR_NAMES = [f"D{port}{'HV'[pol]}" for port in HBS_DETECTOR_PORTS
                  for pol in (H, V)]


class TestHeraldTable:
    def test_detector_names_follow_the_mode_order(self):
        modes = [mode_index(port, pol) for port in HBS_DETECTOR_PORTS
                 for pol in (H, V)]
        assert modes == sorted(modes)

    @pytest.mark.parametrize("name", list(HERALD_PATTERNS))
    def test_name_lists_exactly_the_detectors_that_click(self, name):
        clicks, _ = HERALD_PATTERNS[name]
        fired = name.split(",")
        assert clicks == tuple(int(d in fired) for d in DETECTOR_NAMES)
        assert fired == sorted(fired, key=DETECTOR_NAMES.index)

    @pytest.mark.parametrize("name", list(HERALD_PATTERNS))
    def test_cross_port_rows_and_only_they_announce_a_bell_state(self, name):
        _, label = HERALD_PATTERNS[name]
        first, second = (d[:2] for d in name.split(","))
        if first != second:
            assert label in BELL_STATES
        else:
            assert label is None


class TestTwoSourceCircuit:
    def test_coincidence_probability_is_half(self):
        assert two_source_enumeration()[0] == pytest.approx(0.5, abs=1e-10)

    def test_conditional_state_is_the_singlet(self):
        prob, cond = two_source_enumeration()
        ref = BELL_STATES["psi_minus"]
        overlap = sum(ref.get(k, 0.0) * a for k, a in cond.items())
        assert abs(overlap) ** 2 / prob == pytest.approx(1.0, abs=1e-10)

    def test_identical_photons_bunch(self):
        # a vertical second photon leaves the rotator horizontal, identical
        # to the first, so both photons leave through the same port
        final = FockState.from_occupation((1, 0, 0, 1)).apply_all(
            two_source_circuit())
        coincidence = sum(abs(a) ** 2 for occ, a in final.amplitudes.items()
                          if occ[0] + occ[1] == 1 and occ[2] + occ[3] == 1)
        assert coincidence == pytest.approx(0.0, abs=1e-10)
        assert norm_squared(final) == pytest.approx(1.0, abs=1e-12)

