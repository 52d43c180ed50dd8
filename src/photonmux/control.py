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

:func:`phase_schedule` gives each bin's row of switch phases.  The decision
logic reads one :class:`HeraldFrame` and gives the bin whose photon the
chain delays: :func:`select_first` the earliest herald, :func:`select_last`
the latest, each None for an idle frame.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .model import DomainError, check_depth, switch_passes

PHASE_PI = math.pi

#: What a herald frame reads its bits from: ``bytes()`` would read an int as
#: a length and a numpy array's memory as bytes.
_BIT_SEQUENCES = (bytearray, bytes, tuple, list)


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


def phase_schedule(n_bins: int) -> tuple[tuple[float, ...], ...]:
    """Switch phases for a full frame, one row per bin, bin r at index
    r - 1; ``n_bins`` is read by :func:`check_depth` and must be a power of
    two >= 2.

    Bin r's row holds the phases, 0 or pi, applied while its photon
    traverses the chain, entry (coarsest) stage first and the exit switch
    last, and routes the photon through delay (n_bins - r) T.  Each column
    is one stage's divided-clock drive waveform sampled at the bin rate: a
    square wave whose period, the stage's clock division, is twice the half
    period that :func:`_stage_clocks` gives.
    """
    n_bins = check_depth(n_bins)
    if n_bins < 2 or n_bins & (n_bins - 1):
        raise DomainError(
            f"switch phases need a power-of-two n_bins >= 2, got {n_bins}")
    clocks = _stage_clocks(n_bins)
    return tuple(
        tuple(PHASE_PI if ((r - 1 + offset) // half) % 2 else 0.0
              for half, offset in clocks)
        for r in range(1, n_bins + 1))


@dataclass(frozen=True)
class HeraldFrame:
    """One frame of heralding-detector outcomes; bit r-1 is set when the
    detector fired in bin r.  A tuple, list, bytes or bytearray of integers
    0 and 1 (a bool or numpy integer too) is stored as a tuple of ints."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        bits = self.bits
        try:
            packed = bytes(bits) if isinstance(bits, _BIT_SEQUENCES) else None
        except (TypeError, ValueError):
            packed = None
        if packed is None or packed.translate(None, b"\0\1"):
            raise DomainError("herald bits must be a tuple, list or bytes "
                              f"of 0s and 1s, got {bits!r}")
        if not packed:
            raise DomainError("herald frame must contain at least one bin")
        object.__setattr__(self, "bits", tuple(packed))

    @classmethod
    def from_string(cls, text: str) -> "HeraldFrame":
        """The frame whose bit r-1 is character r-1 of ``text``; DomainError
        unless each character is "0" or "1"."""
        if not set(text) <= {"0", "1"}:
            raise DomainError(f"herald bits must be 0 or 1, got {text!r}")
        return cls(tuple(map(int, text)))


def select_first(frame: HeraldFrame) -> int | None:
    """Bin index of the earliest herald, or None for an idle frame."""
    bits = frame.bits
    return bits.index(1) + 1 if 1 in bits else None


def select_last(frame: HeraldFrame) -> int | None:
    """Bin index of the latest herald, or None for an idle frame (the
    source idles that frame)."""
    bits = frame.bits
    return len(bits) - operator.indexOf(reversed(bits), 1) if 1 in bits else None
