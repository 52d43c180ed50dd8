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

from .model import DomainError

PHASE_PI = math.pi


def _exit_stage(n_bins: int) -> int:
    """log2(n_bins), the index of the exit switch; DomainError unless
    n_bins is a power of two >= 2."""
    if n_bins < 2 or n_bins & (n_bins - 1):
        raise DomainError(
            f"switch phases need a power-of-two n_bins >= 2, got {n_bins}")
    return n_bins.bit_length() - 1


@dataclass(frozen=True)
class PhaseSchedule:
    """Per-bin, per-stage switch phases for one frame of ``n_bins`` bins.

    Row r-1 holds the phases applied while bin r's photon traverses the
    chain; entries are 0 or pi.  Stage 0 is the coarsest (entry) switch,
    stage ``stage_count - 1`` the exit switch.
    """

    n_bins: int
    phases: tuple[tuple[float, ...], ...]

    @property
    def stage_count(self) -> int:
        return len(self.phases[0])

    def row(self, bin_index: int) -> tuple[float, ...]:
        if not 1 <= bin_index <= self.n_bins:
            raise DomainError(
                f"bin index must be in [1, {self.n_bins}], got {bin_index}")
        return self.phases[bin_index - 1]

    def decode_delay(self, bin_index: int) -> int:
        """Recover the delay (in bins) encoded by one row of phases.

        Inverts the routing convention stage by stage and checks that the
        exit-stage phase is consistent with the recovered path.
        """
        row = self.row(bin_index)
        m = self.stage_count - 1
        bits = [0] * m
        bits[0] = int(row[0] == PHASE_PI)
        if m >= 2:
            bits[1] = 1 - int(row[1] == PHASE_PI)
        for s in range(2, m):
            bits[s] = bits[s - 1] ^ int(row[s] == PHASE_PI)
        if int(row[m] == PHASE_PI) != bits[m - 1]:
            raise DomainError(
                f"inconsistent exit phase in row for bin {bin_index}")
        return sum(bits[s] << (m - 1 - s) for s in range(m))


def _stage_clocks(n_bins: int) -> tuple[tuple[int, int], ...]:
    """(half period, offset) in bins of each stage's drive square wave, entry
    stage first: the stage's phase bit in bin r is
    ((r - 1 + offset) // half) % 2, 1 meaning pi."""
    m = _exit_stage(n_bins)
    clocks = [(n_bins // 2, n_bins // 2)]
    if m >= 2:
        clocks.append((n_bins // 4, 0))
    clocks += [(2 ** (m - s), 2 ** (m - s - 1)) for s in range(2, m)]
    clocks.append((1, 1))
    return tuple(clocks)


def phase_schedule(n_bins: int) -> PhaseSchedule:
    """Switch-phase matrix for a full frame; requires n_bins a power of two.

    Bin r's row routes its photon through delay (n_bins - r) T.  Each column
    is one stage's divided-clock square wave sampled at the bin rate (see
    :func:`drive_waveforms`); :meth:`PhaseSchedule.decode_delay` inverts it.
    """
    clocks = _stage_clocks(n_bins)
    rows = tuple(
        tuple(PHASE_PI if ((r - 1 + offset) // half) % 2 else 0.0
              for half, offset in clocks)
        for r in range(1, n_bins + 1))
    return PhaseSchedule(n_bins=n_bins, phases=rows)


def clock_divisions(n_bins: int) -> tuple[int, ...]:
    """Clock division factor per stage: the full period, in bins, of each
    stage's drive square wave."""
    return tuple(2 * half for half, _ in _stage_clocks(n_bins))


def drive_waveforms(n_bins: int, n_frames: int) -> tuple[tuple[float, ...], ...]:
    """Per-stage drive waveforms sampled at the bin rate over ``n_frames``:
    each stage's phase-schedule column, repeated once per frame."""
    if n_frames < 1:
        raise DomainError(f"n_frames must be >= 1, got {n_frames}")
    return tuple(column * n_frames
                 for column in zip(*phase_schedule(n_bins).phases))


@dataclass(frozen=True)
class HeraldFrame:
    """One frame of heralding-detector outcomes; bit r-1 is set when the
    detector fired in bin r."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.bits:
            raise DomainError("herald frame must contain at least one bin")
        if any(b not in (0, 1) for b in self.bits):
            raise DomainError("herald bits must be 0 or 1")

    @classmethod
    def from_string(cls, text: str) -> "HeraldFrame":
        return cls(tuple(int(c) for c in text))


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
