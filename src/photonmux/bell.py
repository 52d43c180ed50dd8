"""Entangled-state generation from multiplexed single-photon sources.

Brute-force Fock-space enumeration of two small linear-optics circuits:

* a four-source heralded Bell circuit: all four photons pass 45-degree
  polarization rotators, the outer pairs collide on polarizing couplers,
  the two inner ports meet on a third polarizing coupler operated in the
  45-degree-rotated basis, and both inner ports are detected
  polarization-resolved.  A coincidence of two distinct heralding detectors
  (probability 3/16) announces an output pair on the outer ports; the four
  cross-port click patterns leave that pair in a pure Bell state.

* a two-source post-selected circuit: one photon is rotated to vertical and
  both meet on a 50/50 coupler; a coincidence across the two output ports
  (probability 1/2) post-selects the polarization singlet.

Both circuits read one click table, :func:`_click_table` (the two-source
circuit has no detectors, so its table is one empty pattern).  :func:`evolve`
gives its amplitudes by substituting creation operators, not by permanents,
and every element is checked unitary, on distinct modes, at construction.
Coupler convention: symmetric, a factor i on the cross path of the 50/50
coupler; the polarizing coupler transmits horizontal and reflects vertical
with no extra phase (the convention fixes state signs, not probabilities).

``photonmux bell --eta`` composes these two enumerated probabilities with
the source efficiency: eta to the power of the circuit's source count.
"""
from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

H, V = 0, 1
_PRUNE = 1e-15
UNITARITY_TOL = 1e-12


def mode_index(port: int, pol: int) -> int:
    """Flat index of a polarization-resolved spatial mode."""
    return 2 * port + pol


class CircuitElement:
    """A linear-optics element: a unitary acting on a few modes.

    ``matrix[i][j]`` is the amplitude with which input mode ``modes[j]``
    feeds output mode ``modes[i]`` (as a map on creation operators).
    """

    def __init__(self, label: str, modes: tuple[int, ...], matrix) -> None:
        self.label = label
        self.modes = tuple(modes)
        k = len(self.modes)
        if not (all(isinstance(m, numbers.Integral) and m >= 0
                    for m in self.modes) and len(set(self.modes)) == k):
            raise ValueError(f"{label}: modes {self.modes!r} are not "
                             f"distinct integers >= 0")
        shape_error = f"{label}: matrix is not {k} rows of {k} numbers"
        try:
            self.matrix = tuple(tuple(complex(u) for u in row) for row in matrix)
        except TypeError as exc:
            raise ValueError(shape_error) from exc
        if len(self.matrix) != k or any(len(row) != k for row in self.matrix):
            raise ValueError(shape_error)
        if not all(cmath.isfinite(u) for row in self.matrix for u in row):
            raise ValueError(f"{label}: matrix entry is not finite")
        # largest entry of U^dagger U - I
        deviation = max(
            (abs(sum(row[i].conjugate() * row[j] for row in self.matrix)
                 - (i == j))
             for i in range(k) for j in range(k)), default=0.0)
        if deviation > UNITARITY_TOL:
            raise ValueError(f"{label}: element is not unitary "
                             f"(deviation {deviation:.2e})")


def polarization_rotator(port: int, angle: float) -> CircuitElement:
    """Rotate the polarization of one spatial port by ``angle``."""
    c, s = math.cos(angle), math.sin(angle)
    return CircuitElement(
        f"PR(port {port}, {angle:.4f})",
        (mode_index(port, H), mode_index(port, V)),
        [[c, -s], [s, c]])


def polarizing_coupler(p: int, q: int) -> CircuitElement:
    """Polarizing coupler: transmits horizontal, reflects vertical."""
    return CircuitElement(
        f"PDC(ports {p},{q})",
        (mode_index(p, H), mode_index(p, V), mode_index(q, H), mode_index(q, V)),
        [[1, 0, 0, 0],
         [0, 0, 0, 1],
         [0, 0, 1, 0],
         [0, 1, 0, 0]])


def nonpolarizing_coupler(p: int, q: int) -> CircuitElement:
    """50/50 polarization-insensitive coupler, i on the cross path."""
    t = 1.0 / math.sqrt(2.0)
    r = 1j * t
    return CircuitElement(
        f"NPC(ports {p},{q})",
        (mode_index(p, H), mode_index(p, V), mode_index(q, H), mode_index(q, V)),
        [[t, 0, r, 0],
         [0, t, 0, r],
         [r, 0, t, 0],
         [0, r, 0, t]])


def evolve(start: tuple[int, ...], circuit) -> dict[tuple[int, ...], complex]:
    """Amplitude of each occupation once the photons of ``start`` have
    passed each element of ``circuit`` in turn, by substitution of creation
    operators; amplitudes within ``_PRUNE`` of 0 go after each element.
    ValueError if a count of ``start`` is not an integer >= 0, or if an
    element acts on a mode beyond ``start``."""
    if not all(isinstance(n, numbers.Integral) and n >= 0 for n in start):
        raise ValueError(f"start {start!r}: counts are not integers >= 0")
    state = {tuple(start): 1.0 + 0j}
    for element in circuit:
        if any(m >= len(start) for m in element.modes):
            raise ValueError(f"{element.label}: mode out of range")
        U = element.matrix
        k = len(element.modes)
        out: dict[tuple[int, ...], complex] = {}
        for occ, amp in state.items():
            inside = [occ[m] for m in element.modes]
            # expand prod_j (sum_i U[i][j] a_i^dag)^(n_j) as monomials
            poly: dict[tuple[int, ...], complex] = {(0,) * k: 1.0 + 0j}
            for j, n_j in enumerate(inside):
                for _ in range(n_j):
                    nxt: dict[tuple[int, ...], complex] = {}
                    for mono, coef in poly.items():
                        for i in range(k):
                            u = U[i][j]
                            if u == 0:
                                continue
                            key = mono[:i] + (mono[i] + 1,) + mono[i + 1:]
                            nxt[key] = nxt.get(key, 0j) + coef * u
                    poly = nxt
            norm_in = math.prod(math.factorial(n) for n in inside)
            for mono, coef in poly.items():
                new_occ = list(occ)
                for i, m in enumerate(element.modes):
                    new_occ[m] = mono[i]
                key = tuple(new_occ)
                norm_out = math.prod(math.factorial(n) for n in mono)
                value = amp * coef * math.sqrt(norm_out / norm_in)
                out[key] = out.get(key, 0j) + value
        state = {occ: a for occ, a in out.items() if abs(a) > _PRUNE}
    return state


def _output_pair(occ: tuple[int, ...], ports: tuple[int, int]
                 ) -> tuple[int, int] | None:
    """(polarization in the first port, in the second) when each of the two
    output ports holds exactly one photon, else None."""
    pols = []
    for port in ports:
        counts = (occ[mode_index(port, H)], occ[mode_index(port, V)])
        if sum(counts) != 1:
            return None
        pols.append(counts.index(1))
    return tuple(pols)


def _click_table(start: tuple[int, ...], circuit, detector_modes,
                 output_ports: tuple[int, int], number_resolving: bool):
    """Evolve the occupation ``start`` through ``circuit`` once and group the
    amplitudes by click pattern (each detector mode's photon count, or 0/1
    for bucket detectors): each pattern's probability, and its amplitudes
    with one photon in each output port keyed by :func:`_output_pair`."""
    probability, pairs = {}, {}
    for occ, amp in evolve(start, circuit).items():
        clicks = tuple(occ[m] for m in detector_modes)
        if not number_resolving:
            clicks = tuple(int(k >= 1) for k in clicks)
        probability[clicks] = probability.get(clicks, 0.0) + abs(amp) ** 2
        pair = _output_pair(occ, output_ports)
        if pair is not None:
            cond = pairs.setdefault(clicks, {})
            cond[pair] = cond.get(pair, 0j) + amp
    return probability, pairs


# --- heralded Bell generation from four sources -----------------------------

#: Output ports carrying the generated pair and ports feeding the heralding
#: detectors, in the four-source circuit.
HBS_OUTPUT_PORTS = (0, 3)
HBS_DETECTOR_PORTS = (1, 2)
#: Single-photon sources each circuit takes, one horizontal photon per port.
HBS_SOURCES = 4
POST_SELECTED_SOURCES = 2

#: Reference Bell amplitudes over (output-1 pol, output-2 pol).
BELL_STATES = {
    "phi_plus": {(H, H): 1 / math.sqrt(2), (V, V): 1 / math.sqrt(2)},
    "phi_minus": {(H, H): 1 / math.sqrt(2), (V, V): -1 / math.sqrt(2)},
    "psi_plus": {(H, V): 1 / math.sqrt(2), (V, H): 1 / math.sqrt(2)},
    "psi_minus": {(H, V): 1 / math.sqrt(2), (V, H): -1 / math.sqrt(2)},
}

#: Each herald pattern's clicks on (D1H, D1V, D2H, D2V), D1 seeing port 1
#: and D2 port 2, and the Bell state it announces (None: a false herald).
HERALD_PATTERNS = {
    "D1H,D2H": ((1, 0, 1, 0), "phi_plus"),
    "D1V,D2V": ((0, 1, 0, 1), "phi_plus"),
    "D1H,D2V": ((1, 0, 0, 1), "psi_plus"),
    "D1V,D2H": ((0, 1, 1, 0), "psi_plus"),
    "D1H,D1V": ((1, 1, 0, 0), None),
    "D2H,D2V": ((0, 0, 1, 1), None),
}


@dataclass(frozen=True)
class PatternOutcome:
    """One heralding click pattern of the four-source circuit."""

    probability: float
    bell_label: str | None = None
    fidelity: float | None = None


@dataclass(frozen=True)
class HbsEnumeration:
    """Full enumeration of the four-source heralded Bell circuit."""

    herald_probability: float
    patterns: dict[str, PatternOutcome]
    bell_yield: float
    false_herald_probability: float


def hbs_circuit() -> list[CircuitElement]:
    """Element list of the four-source circuit.

    The middle coupler is operated in the 45-degree basis by rotating its
    two ports before and back after it; that rotated basis is what makes
    all four cross patterns herald Bell states.
    """
    quarter = math.pi / 4
    elements = [polarization_rotator(p, quarter) for p in range(4)]
    elements += [polarizing_coupler(0, 1), polarizing_coupler(2, 3)]
    elements += [polarization_rotator(1, quarter),
                 polarization_rotator(2, quarter)]
    elements.append(polarizing_coupler(1, 2))
    elements += [polarization_rotator(1, -quarter),
                 polarization_rotator(2, -quarter)]
    return elements


def hbs_enumeration(number_resolving: bool = True) -> HbsEnumeration:
    """Enumerate every detector pattern of the four-source circuit.

    A herald is a coincidence of exactly two distinct detectors.  With
    number-resolving detectors that means exactly one photon in each of two
    detector modes; with bucket detectors (``number_resolving=False``) any
    pattern lighting exactly two distinct modes counts.  For the four
    cross-port patterns the output pair, conditioned on one photon in each
    output port, is compared against the matching Bell state.
    """
    detector_modes = [mode_index(port, pol) for port in HBS_DETECTOR_PORTS
                      for pol in (H, V)]
    probability, pairs = _click_table(
        (1, 0) * HBS_SOURCES, hbs_circuit(), detector_modes, HBS_OUTPUT_PORTS,
        number_resolving)

    patterns: dict[str, PatternOutcome] = {}
    bell_yield = 0.0
    for name, (clicks, label) in HERALD_PATTERNS.items():
        prob = probability.get(clicks, 0.0)
        if label is None:
            patterns[name] = PatternOutcome(probability=prob)
            continue
        cond = pairs.get(clicks, {})
        cond_prob = math.fsum(abs(a) ** 2 for a in cond.values())
        fid = None
        if cond_prob > 0.0:
            ref = BELL_STATES[label]
            ov = sum(ref.get(k, 0.0) * a for k, a in cond.items())
            fid = abs(ov) ** 2 / cond_prob
            bell_yield += cond_prob
        patterns[name] = PatternOutcome(
            probability=prob, bell_label=label, fidelity=fid)

    herald_probability = math.fsum(p.probability for p in patterns.values())
    return HbsEnumeration(
        herald_probability=herald_probability,
        patterns=patterns,
        bell_yield=bell_yield,
        false_herald_probability=herald_probability - math.fsum(
            p.probability for p in patterns.values() if p.bell_label),
    )


# --- two-source post-selected entanglement ----------------------------------

def two_source_circuit() -> list[CircuitElement]:
    """One photon rotated to vertical, then a 50/50 coupler on both ports."""
    return [polarization_rotator(1, math.pi / 2), nonpolarizing_coupler(0, 1)]


def two_source_enumeration():
    """Coincidence probability and conditional two-photon state of the
    two-source circuit.

    Both photons enter horizontal, so after the pi/2 rotation they are
    orthogonal at the coupler and a coincidence leaves the singlet.
    """
    _, pairs = _click_table((1, 0) * POST_SELECTED_SOURCES,
                            two_source_circuit(), (), (0, 1),
                            number_resolving=True)
    cond = pairs.get((), {})
    probability = math.fsum(abs(a) ** 2 for a in cond.values())
    return probability, cond
