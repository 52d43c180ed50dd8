import itertools
import math

import numpy as np
import pytest

from photonmux.bell import (
    BELL_STATES,
    HBS_DETECTOR_PORTS,
    HBS_SOURCES,
    HERALD_PATTERNS,
    CircuitElement,
    H,
    V,
    evolve,
    hbs_circuit,
    hbs_enumeration,
    mode_index,
    nonpolarizing_coupler,
    polarization_rotator,
    polarizing_coupler,
    two_source_circuit,
    two_source_enumeration,
)

#: The four-source circuit's start: one horizontal photon in each port.
HBS_START = (1, 0) * HBS_SOURCES


def norm_squared(amplitudes):
    return math.fsum(abs(a) ** 2 for a in amplitudes.values())


def single_photon(port, pol, n_modes=8):
    occ = [0] * n_modes
    occ[mode_index(port, pol)] = 1
    return tuple(occ)


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
    ], ids=["matrix-nan", "matrix-nan-imaginary", "matrix-inf",
            "rotator-nan-angle"])
    def test_non_finite_number_rejected(self, build):
        with pytest.raises(ValueError, match="not finite"):
            build()

    @pytest.mark.parametrize("label, build", [
        # a negative mode would act on a mode counted from the end
        ("swap", lambda: CircuitElement("swap", (-1, 0), [[0, 1], [1, 0]])),
        # a repeated mode would count its photons twice
        ("split", lambda: CircuitElement(
            "split", (0, 0), [[2 ** -0.5, 1j * 2 ** -0.5],
                              [1j * 2 ** -0.5, 2 ** -0.5]])),
        ("half", lambda: CircuitElement("half", (0.5, 1), [[1, 0], [0, 1]])),
        ("PR(port -1, 0.3000)", lambda: polarization_rotator(-1, 0.3)),
    ], ids=["negative", "repeated", "non-integer", "rotator-negative-port"])
    def test_mode_that_cannot_be_applied_rejected_at_construction(
            self, label, build):
        with pytest.raises(ValueError, match="not distinct integers") as exc:
            build()
        assert str(exc.value).startswith(f"{label}: modes ")

    def test_polarizing_coupler_transmits_horizontal(self):
        amplitudes = evolve(single_photon(0, H, 4), [polarizing_coupler(0, 1)])
        assert amplitudes == {(1, 0, 0, 0): pytest.approx(1.0)}

    def test_polarizing_coupler_reflects_vertical(self):
        amplitudes = evolve(single_photon(0, V, 4), [polarizing_coupler(0, 1)])
        ((occ, amp),) = amplitudes.items()
        assert occ == (0, 0, 0, 1)
        assert abs(amp) == pytest.approx(1.0)

    def test_half_turn_rotator_maps_h_to_v(self):
        amplitudes = evolve(single_photon(0, H, 2),
                            [polarization_rotator(0, math.pi / 2)])
        ((occ, amp),) = amplitudes.items()
        assert occ == (0, 1)
        assert abs(amp) == pytest.approx(1.0)

    def test_balanced_coupler_splits_single_photon(self):
        amplitudes = evolve(single_photon(0, H, 4),
                            [nonpolarizing_coupler(0, 1)])
        mags = sorted(abs(a) for a in amplitudes.values())
        assert mags == pytest.approx([1 / math.sqrt(2)] * 2)
        assert norm_squared(amplitudes) == pytest.approx(1.0, abs=1e-12)


def random_circuit(rng, n_ports):
    """One to six elements drawn from the three element factories."""
    elements = []
    for _ in range(rng.integers(1, 7)):
        p, q = (int(x) for x in rng.choice(n_ports, size=2, replace=False))
        kind = rng.integers(3)
        if kind == 0:
            angle = rng.uniform(0, 2 * math.pi)
            elements.append(polarization_rotator(p, angle))
        elif kind == 1:
            elements.append(polarizing_coupler(p, q))
        else:
            elements.append(nonpolarizing_coupler(p, q))
    return elements


def mode_matrix(circuit, n_modes):
    """The circuit's map on creation operators over all ``n_modes`` modes:
    entry [i, j] is the amplitude with which mode j feeds mode i."""
    U = np.eye(n_modes, dtype=complex)
    for element in circuit:
        M = np.eye(n_modes, dtype=complex)
        M[np.ix_(element.modes, element.modes)] = element.matrix
        U = M @ U
    return U


def permanent_amplitudes(U, start):
    """Every output occupation of the photons of ``start`` and its
    amplitude Perm(U[rows, cols]) / sqrt(prod n_j! prod m_i!), each
    permanent summed over all permutations."""
    n_modes = len(start)
    cols = [m for m, n in enumerate(start) for _ in range(n)]
    perms = np.array(list(itertools.permutations(range(len(cols)))))
    rows = np.array(list(itertools.combinations_with_replacement(
        range(n_modes), len(cols))))
    sub = U[rows[:, :, None], np.array(cols)[None, None, :]]
    perm = np.prod(sub[:, np.arange(len(cols)), perms], axis=2).sum(axis=1)
    norm_in = math.prod(math.factorial(n) for n in start)
    out = {}
    for row, value in zip(rows, perm):
        occ = tuple(np.bincount(row, minlength=n_modes).tolist())
        norm_out = math.prod(math.factorial(n) for n in occ)
        out[occ] = value / math.sqrt(norm_in * norm_out)
    return out


class TestEvolve:
    def test_norm_and_photon_number_preserved_through_circuit(self):
        circuit = hbs_circuit()
        for n in range(1, len(circuit) + 1):
            amplitudes = evolve(HBS_START, circuit[:n])
            assert norm_squared(amplitudes) == pytest.approx(1.0, abs=1e-10)
            assert {sum(occ) for occ in amplitudes} == {4}

    def test_two_photons_one_mode_normalization(self):
        # both photons into one coupler port: amplitudes keep norm 1
        amplitudes = evolve((2, 0, 0, 0), [nonpolarizing_coupler(0, 1)])
        assert norm_squared(amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_element_beyond_the_modes_rejected(self):
        # polarizing_coupler(0, 1) acts on modes 0..3; the start has two
        with pytest.raises(ValueError, match="mode out of range"):
            evolve((1, 0), [polarizing_coupler(0, 1)])

    @pytest.mark.parametrize("start", [
        # the rotator acts on modes 0, 1 and would carry the -1 through
        (1, 0, -1, 0),
        (-1, 0),
        (0.5, 0),
    ], ids=["negative-outside-element", "negative", "non-integer"])
    def test_start_that_is_not_a_photon_count_rejected(self, start):
        with pytest.raises(ValueError,
                           match="counts are not integers >= 0") as exc:
            evolve(start, [polarization_rotator(0, 0.3)])
        assert str(exc.value).startswith(f"start {start!r}: ")

    def test_random_circuits_match_the_permanent_formula(self):
        rng = np.random.default_rng(20011)
        bunched = 0
        for trial in range(200):
            n_ports = int(rng.integers(2, 5))
            n_modes = 2 * n_ports
            circuit = random_circuit(rng, n_ports)
            start = tuple(np.bincount(
                rng.integers(n_modes, size=rng.integers(1, 5)),
                minlength=n_modes).tolist())
            bunched += max(start) > 1
            expected = permanent_amplitudes(mode_matrix(circuit, n_modes),
                                            start)
            amplitudes = evolve(start, circuit)
            assert set(amplitudes) <= set(expected), trial
            worst = max(abs(amplitudes.get(occ, 0j) - a)
                        for occ, a in expected.items())
            assert worst < 1e-12, (trial, start, [e.label for e in circuit])
        assert bunched > 0


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
        final = evolve(HBS_START, hbs_circuit())
        assert norm_squared(final) == pytest.approx(1.0, abs=1e-10)

    def test_removing_middle_rotation_changes_the_distribution(self):
        # the circuit without the rotators around the middle coupler
        quarter = math.pi / 4
        elements = [polarization_rotator(p, quarter) for p in range(4)]
        elements += [polarizing_coupler(0, 1), polarizing_coupler(2, 3),
                     polarizing_coupler(1, 2)]
        final = evolve(HBS_START, elements)

        def outcome(name):
            """Click probability of one detector pattern and the amplitudes
            it leaves with one photon in each output port (0 and 3)."""
            prob, pair = 0.0, {}
            for occ, amp in final.items():
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
        final = evolve(HBS_START, elements)
        total = 0.0
        for occ, amp in final.items():
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
        final = evolve((1, 0, 0, 1), two_source_circuit())
        coincidence = sum(abs(a) ** 2 for occ, a in final.items()
                          if occ[0] + occ[1] == 1 and occ[2] + occ[3] == 1)
        assert coincidence == pytest.approx(0.0, abs=1e-10)
        assert norm_squared(final) == pytest.approx(1.0, abs=1e-12)



#: Every number of both enumerations as ``float.hex``, recorded at
#: ``8553601`` before the Fock-space evolution became one function: for each
#: detector kind (number resolving or not) the herald probability, Bell
#: yield and false-herald probability, and each pattern's probability and
#: fidelity (None for a false herald).
HBS_BITS = {
    True: {
        "herald_probability": "0x1.8000000000000p-3",
        "bell_yield": "0x1.ffffffffffffep-4",
        "false_herald_probability": "0x1.0000000000002p-4",
        "patterns": {
            "D1H,D2H": ("0x1.ffffffffffffdp-6", "0x1.fffffffffffffp-1"),
            "D1V,D2V": ("0x1.ffffffffffffdp-6", "0x1.fffffffffffffp-1"),
            "D1H,D2V": ("0x1.0000000000000p-5", "0x1.ffffffffffffep-1"),
            "D1V,D2H": ("0x1.0000000000000p-5", "0x1.ffffffffffffep-1"),
            "D1H,D1V": ("0x1.0000000000002p-5", None),
            "D2H,D2V": ("0x1.0000000000002p-5", None),
        },
    },
    False: {
        "herald_probability": "0x1.3800000000001p-2",
        "bell_yield": "0x1.ffffffffffffep-4",
        "false_herald_probability": "0x1.a000000000004p-4",
        "patterns": {
            "D1H,D2H": ("0x1.a000000000000p-5", "0x1.fffffffffffffp-1"),
            "D1V,D2V": ("0x1.a000000000000p-5", "0x1.fffffffffffffp-1"),
            "D1H,D2V": ("0x1.a000000000000p-5", "0x1.ffffffffffffep-1"),
            "D1V,D2H": ("0x1.a000000000000p-5", "0x1.ffffffffffffep-1"),
            "D1H,D1V": ("0x1.a000000000003p-5", None),
            "D2H,D2V": ("0x1.a000000000003p-5", None),
        },
    },
}

#: The two-source coincidence probability and each conditional amplitude's
#: (real, imaginary) parts, as ``float.hex``, recorded at ``8553601``.
TWO_SOURCE_BITS = (
    "0x1.ffffffffffffcp-2",
    {(H, V): ("0x1.ffffffffffffep-2", "0x0.0p+0"),
     (V, H): ("-0x1.ffffffffffffep-2", "0x0.0p+0")},
)


class TestEnumerationBits:
    @pytest.mark.parametrize("number_resolving", [True, False],
                             ids=["number-resolving", "bucket"])
    def test_hbs_enumeration_keeps_its_bits(self, number_resolving):
        enum = hbs_enumeration(number_resolving)
        pins = HBS_BITS[number_resolving]
        for field in ("herald_probability", "bell_yield",
                      "false_herald_probability"):
            assert getattr(enum, field).hex() == pins[field], field
        assert {name: (outcome.probability.hex(),
                       None if outcome.fidelity is None
                       else outcome.fidelity.hex())
                for name, outcome in enum.patterns.items()} == pins["patterns"]

    def test_two_source_enumeration_keeps_its_bits(self):
        probability, cond = two_source_enumeration()
        bits = {pair: (a.real.hex(), a.imag.hex()) for pair, a in cond.items()}
        assert (probability.hex(), bits) == TWO_SOURCE_BITS
