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

Amplitudes are evolved by direct substitution of creation operators, not by
permanents, and every element is checked unitary at construction.  Coupler
convention: symmetric, a factor i on the cross path of the 50/50 coupler;
the polarizing coupler transmits horizontal and reflects vertical with no
extra phase (the convention fixes state signs, not probabilities).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .model import DomainError

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
        shape_error = f"{label}: matrix is not {k} rows of {k} numbers"
        try:
            self.matrix = tuple(tuple(complex(u) for u in row) for row in matrix)
        except TypeError as exc:
            raise ValueError(shape_error) from exc
        if len(self.matrix) != k or any(len(row) != k for row in self.matrix):
            raise ValueError(shape_error)
        # largest entry of U^dagger U - I
        deviation = max(
            (abs(sum(row[i].conjugate() * row[j] for row in self.matrix)
                 - (i == j))
             for i in range(k) for j in range(k)), default=0.0)
        if deviation > UNITARITY_TOL:
            raise ValueError(f"{label}: element is not unitary "
                             f"(deviation {deviation:.2e})")

    def __repr__(self) -> str:
        return f"CircuitElement({self.label!r}, modes={self.modes})"


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


class FockState:
    """Sparse photon-number state over ``n_modes`` polarization-resolved
    modes: a map from occupation tuples to complex amplitudes."""

    def __init__(self, n_modes: int, amplitudes: dict[tuple[int, ...], complex]):
        self.n_modes = n_modes
        self.amplitudes = {
            occ: complex(a) for occ, a in amplitudes.items() if abs(a) > _PRUNE}

    @classmethod
    def from_occupation(cls, occupation: tuple[int, ...]) -> "FockState":
        return cls(len(occupation), {tuple(occupation): 1.0 + 0j})

    def norm_squared(self) -> float:
        return math.fsum(abs(a) ** 2 for a in self.amplitudes.values())

    def photon_number(self) -> int:
        totals = {sum(occ) for occ in self.amplitudes}
        if len(totals) != 1:
            raise ValueError("state mixes photon-number sectors")
        return totals.pop()

    def apply(self, element: CircuitElement) -> "FockState":
        """Transform by the element's creation-operator substitution."""
        if any(m >= self.n_modes for m in element.modes):
            raise ValueError(f"{element.label}: mode out of range")
        U = element.matrix
        k = len(element.modes)
        out: dict[tuple[int, ...], complex] = {}
        for occ, amp in self.amplitudes.items():
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
        return FockState(self.n_modes, out)

    def apply_all(self, elements) -> "FockState":
        state = self
        for element in elements:
            state = state.apply(element)
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


# --- heralded Bell generation from four sources -----------------------------

#: Output ports carrying the generated pair and ports feeding the heralding
#: detectors, in the four-source circuit.
HBS_OUTPUT_PORTS = (0, 3)
HBS_DETECTOR_PORTS = (1, 2)

#: Reference Bell amplitudes over (output-1 pol, output-2 pol).
BELL_STATES = {
    "phi_plus": {(H, H): 1 / math.sqrt(2), (V, V): 1 / math.sqrt(2)},
    "phi_minus": {(H, H): 1 / math.sqrt(2), (V, V): -1 / math.sqrt(2)},
    "psi_plus": {(H, V): 1 / math.sqrt(2), (V, H): 1 / math.sqrt(2)},
    "psi_minus": {(H, V): 1 / math.sqrt(2), (V, H): -1 / math.sqrt(2)},
}

#: Detector labels: D1 sees port 1 of the coupler stage (H and V split),
#: D2 the other.  The four cross-port coincidences announce Bell states.
HERALD_PATTERNS = {
    "D1H,D2H": (1, 0, 1, 0),
    "D1V,D2V": (0, 1, 0, 1),
    "D1H,D2V": (1, 0, 0, 1),
    "D1V,D2H": (0, 1, 1, 0),
    "D1H,D1V": (1, 1, 0, 0),
    "D2H,D2V": (0, 0, 1, 1),
}
_PATTERN_NAMES = {pattern: name for name, pattern in HERALD_PATTERNS.items()}
BELL_PATTERN_LABELS = {
    "D1H,D2H": "phi_plus",
    "D1V,D2V": "phi_plus",
    "D1H,D2V": "psi_plus",
    "D1V,D2H": "psi_plus",
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


def hbs_circuit(include_middle_rotation: bool = True) -> list[CircuitElement]:
    """Element list of the four-source circuit.

    The middle coupler is operated in the 45-degree basis by rotating its
    two ports before and back after it; ``include_middle_rotation=False``
    drops those rotators (a degraded variant used to demonstrate that the
    rotated basis is what makes all four cross patterns herald Bell states).
    """
    quarter = math.pi / 4
    elements = [polarization_rotator(p, quarter) for p in range(4)]
    elements += [polarizing_coupler(0, 1), polarizing_coupler(2, 3)]
    if include_middle_rotation:
        elements += [polarization_rotator(1, quarter),
                     polarization_rotator(2, quarter)]
    elements.append(polarizing_coupler(1, 2))
    if include_middle_rotation:
        elements += [polarization_rotator(1, -quarter),
                     polarization_rotator(2, -quarter)]
    return elements


def hbs_enumeration(include_middle_rotation: bool = True,
                    number_resolving: bool = True) -> HbsEnumeration:
    """Enumerate every detector pattern of the four-source circuit.

    A herald is a coincidence of exactly two distinct detectors.  With
    number-resolving detectors that means exactly one photon in each of two
    detector modes; with bucket detectors (``number_resolving=False``) any
    pattern lighting exactly two distinct modes counts.  For the four
    cross-port patterns the output pair, conditioned on one photon in each
    output port, is compared against the matching Bell state.
    """
    start = FockState.from_occupation((1, 0, 1, 0, 1, 0, 1, 0))
    state = start.apply_all(hbs_circuit(include_middle_rotation))
    detector_modes = [mode_index(port, pol) for port in HBS_DETECTOR_PORTS
                      for pol in (H, V)]

    totals = {name: 0.0 for name in HERALD_PATTERNS}
    conditionals: dict[str, dict[tuple[int, int], complex]] = {
        name: {} for name in BELL_PATTERN_LABELS}
    for occ, amp in state.amplitudes.items():
        det = tuple(occ[m] for m in detector_modes)
        if not number_resolving:
            det = tuple(int(k >= 1) for k in det)
        name = _PATTERN_NAMES.get(det)
        if name is None:
            continue
        totals[name] += abs(amp) ** 2
        pair = _output_pair(occ, HBS_OUTPUT_PORTS)
        if name in conditionals and pair is not None:
            cond = conditionals[name]
            cond[pair] = cond.get(pair, 0j) + amp

    patterns: dict[str, PatternOutcome] = {}
    bell_yield = 0.0
    for name, prob in totals.items():
        label = BELL_PATTERN_LABELS.get(name)
        if label is None:
            patterns[name] = PatternOutcome(probability=prob)
            continue
        cond = conditionals[name]
        cond_prob = math.fsum(abs(a) ** 2 for a in cond.values())
        fid = None
        if cond_prob > 0.0:
            ref = BELL_STATES[label]
            ov = sum(ref.get(k, 0.0) * a for k, a in cond.items())
            fid = abs(ov) ** 2 / cond_prob
            bell_yield += cond_prob
        patterns[name] = PatternOutcome(
            probability=prob, bell_label=label, fidelity=fid)

    herald_probability = math.fsum(totals.values())
    return HbsEnumeration(
        herald_probability=herald_probability,
        patterns=patterns,
        bell_yield=bell_yield,
        false_herald_probability=herald_probability - math.fsum(
            totals[n] for n in BELL_PATTERN_LABELS),
    )


# --- two-source post-selected entanglement ----------------------------------

def two_source_circuit() -> list[CircuitElement]:
    """One photon rotated to vertical, then a 50/50 coupler on both ports."""
    return [polarization_rotator(1, math.pi / 2), nonpolarizing_coupler(0, 1)]


def two_source_enumeration(second_pol: int = H):
    """Coincidence probability and conditional two-photon state of the
    two-source circuit.

    ``second_pol`` sets the second photon's input polarization before the
    pi/2 rotation; horizontal inputs (the default) yield orthogonal photons
    at the coupler and the singlet output, while ``second_pol=V`` makes the
    photons identical and the coincidence vanishes by bunching.
    """
    start = FockState.from_occupation((1, 0) + ((1, 0) if second_pol == H else (0, 1)))
    state = start.apply_all(two_source_circuit())
    cond: dict[tuple[int, int], complex] = {}
    for occ, amp in state.amplitudes.items():
        pair = _output_pair(occ, (0, 1))
        if pair is not None:
            cond[pair] = amp
    probability = math.fsum(abs(a) ** 2 for a in cond.values())
    return probability, cond


class BellScheme(Enum):
    HBS4 = "hbs4"
    POST_SELECTED2 = "post-selected2"


#: Success bounds of the two schemes for unit-efficiency photons.
SCHEME_BOUNDS = {
    BellScheme.HBS4: Fraction(3, 16),
    BellScheme.POST_SELECTED2: Fraction(1, 2),
}


def composed_success(eta: float, scheme: BellScheme) -> float:
    """Success probability with source efficiency ``eta``: the scheme bound
    times eta per consumed photon (four photons or two)."""
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"eta must be in [0, 1], got {eta}")
    bound = float(SCHEME_BOUNDS[scheme])
    power = 4 if scheme is BellScheme.HBS4 else 2
    return bound * eta**power
