"""Digital control plane of the multiplexer.

The variable delay circuit is a chain of delay stages (coarsest first, lengths
2^(m-1) T ... 2T, T for N = 2^m bins) bounded by 2x2 phase switches.  A photon
heralded in bin r must be delayed by (N - r) pump periods so that every frame
emits in the same output slot; the per-stage switch phases that realize this
are periodic in the bin index and can therefore be produced by divided clocks
rather than by a processor.

Routing convention: phase pi means cross.  The photon enters the first switch
on the bypass rail, so a pi on the entry stage steers it into the coarsest
delay.  After the coarsest stage the rails merge onto the delay-side input of
the second switch (a pi there *skips* the next delay); the remaining stages
form a two-rail chain where the phase is the XOR of consecutive delay bits,
and the exit switch folds the final rail onto the output port.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .model import DomainError, as_integer, check_depth, switch_passes

PHASE_PI = math.pi


@dataclass(frozen=True)
class PhaseSchedule:
    """Per-bin, per-stage switch phases for one frame of ``n_bins`` bins.

    Row r-1 holds the phases applied while bin r's photon traverses the
    chain; entries are 0 or pi.  Stage 0 is the coarsest (entry) switch,
    the last stage the exit switch.
    """

    n_bins: int
    phases: tuple[tuple[float, ...], ...]

    def row(self, bin_index: int) -> tuple[float, ...]:
        i = as_integer("bin index", bin_index, 1, self.n_bins)
        return self.phases[i - 1]


def _stage_clocks(n_bins: int) -> tuple[tuple[int, int], ...]:
    """(half period, offset) in bins of each stage's drive square wave, entry
    stage first: the stage's phase bit in bin r is
    ((r - 1 + offset) // half) % 2, 1 meaning pi."""
    m = switch_passes(n_bins) - 1  # log2(n_bins), the exit switch's index
    clocks = [(n_bins // 2, n_bins // 2)]
    if m >= 2:
        clocks.append((n_bins // 4, 0))
    clocks += [(2 ** (m - s), 2 ** (m - s - 1)) for s in range(2, m)]
    clocks.append((1, 1))
    return tuple(clocks)


def phase_schedule(n_bins: int) -> PhaseSchedule:
    """Switch-phase matrix for a full frame; ``n_bins`` is read by
    :func:`check_depth` and must be a power of two >= 2.

    Bin r's row routes its photon through delay (n_bins - r) T.  Each column
    is one stage's divided-clock drive waveform sampled at the bin rate: a
    square wave whose period, the stage's clock division, is twice the half
    period that :func:`_stage_clocks` gives.
    """
    n_bins = check_depth(n_bins)
    if n_bins < 2 or n_bins & (n_bins - 1):
        raise DomainError(
            f"switch phases need a power-of-two n_bins >= 2, got {n_bins}")
    clocks = _stage_clocks(n_bins)
    rows = tuple(
        tuple(PHASE_PI if ((r - 1 + offset) // half) % 2 else 0.0
              for half, offset in clocks)
        for r in range(1, n_bins + 1))
    return PhaseSchedule(n_bins=n_bins, phases=rows)


@dataclass(frozen=True)
class HeraldFrame:
    """One frame of heralding-detector outcomes; bit r-1 is set when the
    detector fired in bin r."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.bits:
            raise DomainError("herald frame must contain at least one bin")
        if not set(self.bits) <= {0, 1}:
            raise DomainError("herald bits must be 0 or 1")

    @classmethod
    def from_string(cls, text: str) -> "HeraldFrame":
        """The frame whose bit r-1 is character r-1 of ``text``; DomainError
        unless each character is "0" or "1"."""
        if not set(text) <= {"0", "1"}:
            raise DomainError(f"herald bits must be 0 or 1, got {text!r}")
        return cls(tuple(map(int, text)))


def select_first(frame: HeraldFrame) -> int | None:
    """Bin index of the earliest herald, or None for an idle frame."""
    for i, bit in enumerate(frame.bits):
        if bit:
            return i + 1
    return None


def select_last(frame: HeraldFrame) -> tuple[tuple[int, ...], int | None]:
    """Lookup-table last-photon selection.

    Returns the one-hot output frame driving the decision switch together
    with the selected bin index; an all-zero input yields an all-zero output
    (the source idles that frame).
    """
    selected = None
    for i in range(len(frame.bits) - 1, -1, -1):
        if frame.bits[i]:
            selected = i + 1
            break
    out = [0] * len(frame.bits)
    if selected is not None:
        out[selected - 1] = 1
    return tuple(out), selected
