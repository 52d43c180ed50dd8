import itertools
import math
import re

import numpy as np
import pytest

from photonmux.control import (
    PHASE_PI,
    HeraldFrame,
    _stage_clocks,
    phase_schedule,
    select_first,
    select_last,
)
from photonmux.efficiency import quiet_bins, total_efficiency
from photonmux.model import (
    MAX_BINS,
    DomainError,
    SchemeConfig,
    Selection,
    SourceParams,
    switch_passes,
)

PI = math.pi
#: Every frame size the switch phases support.
POWERS_OF_TWO = [2 ** m for m in range(1, MAX_BINS.bit_length())]

# Reference phase table for an 8-bin frame: bin, delay (in pump periods),
# stage phases entry-to-exit.  This is the conformance oracle for the
# schedule generator.
EIGHT_BIN_TABLE = [
    (1, 7, (PI, 0., 0., PI)),
    (2, 6, (PI, 0., PI, 0.)),
    (3, 5, (PI, PI, PI, PI)),
    (4, 4, (PI, PI, 0., 0.)),
    (5, 3, (0., 0., 0., PI)),
    (6, 2, (0., 0., PI, 0.)),
    (7, 1, (0., PI, PI, PI)),
    (8, 0, (0., PI, 0., 0.)),
]


def decode_delay(schedule, bin_index):
    """The delay, in bins, that one row of ``schedule`` encodes.

    Inverts the routing convention stage by stage and checks that the
    exit-stage phase is consistent with the recovered path.
    """
    row = schedule[bin_index - 1]
    m = len(row) - 1
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


class TestPhaseSchedule:
    def test_eight_bin_table_verbatim(self):
        sched = phase_schedule(8)
        assert len(sched) == 8
        assert len(sched[0]) == 4
        # a numpy-integer depth gives the same schedule
        assert phase_schedule(np.int64(8)) == sched
        for bin_index, delay, phases in EIGHT_BIN_TABLE:
            assert sched[bin_index - 1] == pytest.approx(phases)
            assert decode_delay(sched, bin_index) == delay

    @pytest.mark.parametrize("n", POWERS_OF_TWO)
    def test_round_trip_delay(self, n):
        sched = phase_schedule(n)
        for r in range(1, n + 1):
            assert decode_delay(sched, r) == n - r

    def test_flipped_exit_phase_is_inconsistent(self):
        sched = phase_schedule(8)
        for r, row in enumerate(sched, start=1):
            flipped = row[:-1] + (0.0 if row[-1] == PHASE_PI else PHASE_PI,)
            bad = sched[:r - 1] + (flipped,) + sched[r:]
            with pytest.raises(DomainError,
                               match=f"inconsistent exit phase .* bin {r}$"):
                decode_delay(bad, r)

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_stage_count_is_log_depth_plus_exit(self, n):
        assert len(phase_schedule(n)[0]) == int(math.log2(n)) + 1

    @pytest.mark.parametrize("n", POWERS_OF_TWO)
    def test_loss_model_passes_every_stage_once(self, n):
        # with only switch loss, every bin of the binary tree passes
        # eta_sw ** N.bit_length(): one pass per stage of the schedule
        params = SourceParams(eta_f=1.0, eta_c=1.0, eta_sw=0.5, alpha_inc=0.0)
        pic = total_efficiency(params, SchemeConfig(n_bins=n)).pic_transmission
        stages = len(phase_schedule(n)[0])
        assert n.bit_length() == stages == switch_passes(n)
        assert pic == (0.5 ** stages,) * n

    @pytest.mark.parametrize("bad", [1, 3, 6, 12, 100, 8.0, 2 * MAX_BINS])
    def test_rejects_non_power_of_two(self, bad):
        with pytest.raises(DomainError):
            phase_schedule(bad)


class TestStageColumns:
    """Each schedule column is one stage's divided-clock drive waveform."""

    @pytest.mark.parametrize("n", POWERS_OF_TWO)
    def test_finest_stage_alternates_every_bin(self, n):
        columns = list(zip(*phase_schedule(n)))
        assert columns[-1] == (PI, 0.) * (n // 2)

    @pytest.mark.parametrize("n", POWERS_OF_TWO)
    def test_coarsest_stage_switches_once_per_half_frame(self, n):
        columns = list(zip(*phase_schedule(n)))
        assert columns[0] == (PI,) * (n // 2) + (0.,) * (n // 2)

    def test_divisions_are_least_column_periods(self):
        def least_periods(n):
            # the least period of each column over two frames
            waves = [column * 2 for column in zip(*phase_schedule(n))]
            return tuple(next(p for p in range(1, len(wave))
                              if wave[p:] == wave[:-p]) for wave in waves)

        assert least_periods(2) == (2, 2)
        assert least_periods(4) == (4, 2, 2)
        assert least_periods(8) == (8, 4, 4, 2)
        assert least_periods(np.int64(8)) == (8, 4, 4, 2)
        assert least_periods(16) == (16, 8, 8, 4, 2)
        # each is the full period of its stage's drive square wave
        for n in POWERS_OF_TWO:
            periods = least_periods(n)
            assert len(periods) == n.bit_length()
            assert periods == tuple(2 * half for half, _ in _stage_clocks(n))


class TestSelection:
    def test_first_photon_examples(self):
        assert select_first(HeraldFrame.from_string("10000000")) == 1
        assert select_first(HeraldFrame.from_string("01000001")) == 2
        assert select_first(HeraldFrame.from_string("00000000")) is None

    @pytest.mark.parametrize("text,expected_out,expected_bin", [
        ("10000000", "10000000", 1),
        ("01000000", "01000000", 2),
        ("11000000", "01000000", 2),
        ("00100000", "00100000", 3),
        ("10100000", "00100000", 3),
        ("00010000", "00010000", 4),
        ("00001000", "00001000", 5),
        ("00000100", "00000100", 6),
        ("00000010", "00000010", 7),
        ("10100001", "00000001", 8),
        ("11111111", "00000001", 8),
        ("00000000", "00000000", None),
    ])
    def test_last_photon_lookup_rows(self, text, expected_out, expected_bin):
        # the lookup table's output sets the selected bin's bit alone
        selected = select_last(HeraldFrame.from_string(text))
        assert selected == expected_bin
        assert expected_out == "".join(
            "1" if r == selected else "0" for r in range(1, 9))

    def test_last_photon_exhaustive_equals_highest_set_bit(self):
        for bits in itertools.product((0, 1), repeat=8):
            expected = max((i + 1 for i, b in enumerate(bits) if b), default=None)
            assert select_last(HeraldFrame(bits)) == expected

    def test_first_of_reversed_mirrors_last(self):
        for bits in itertools.product((0, 1), repeat=8):
            frame = HeraldFrame(bits)
            mirrored = HeraldFrame(tuple(reversed(bits)))
            last = select_last(frame)
            first = select_first(mirrored)
            if last is None:
                assert first is None
            else:
                assert first == len(bits) + 1 - last

    @pytest.mark.parametrize("selection", Selection)
    @pytest.mark.parametrize("n", range(1, 9))
    def test_selection_leaves_the_closed_forms_quiet_bins_quiet(
            self, n, selection):
        # the control plane picks, in every frame, a bin whose k(r) quiet
        # bins on the policy's side (before it for first-photon, after it
        # for last) are quiet: the closed form's and the Monte Carlo
        # plan's k(r) describe the frames it selects
        first = selection is Selection.FIRST_PHOTON
        select = select_first if first else select_last
        quiet = quiet_bins(selection, n)
        for bits in itertools.product((0, 1), repeat=n):
            r = select(HeraldFrame(bits))
            if not any(bits):
                assert r is None
                continue
            k = quiet[r - 1]
            side = bits[r - 1 - k:r - 1] if first else bits[r:r + k]
            assert bits[r - 1] == 1
            assert len(side) == k and not any(side)

    # anything but a tuple, list or bytes of integers 0 and 1 is refused,
    # and named: another integer, a float bit, a numpy float or bool, a numpy
    # array, the text "01" as a string or as bytes, a bare number
    @pytest.mark.parametrize("bad", [
        (0, 2, 0), (0, -1), (0.0, 1.0, True), (0, np.float64(1)),
        (0, np.True_), np.array([0, 1]), np.array([]), "01", b"01", 3],
        ids=["two", "minus-one", "floats", "numpy-float", "numpy-bool",
             "numpy-array", "empty-numpy-array", "str", "bytes-text", "int"])
    def test_frame_refuses_bad_bits(self, bad):
        with pytest.raises(DomainError, match=(
                "^herald bits must be a tuple, list or bytes of 0s and 1s, "
                f"got {re.escape(repr(bad))}$")):
            HeraldFrame(bad)

    # a list, bytes, numpy integers and bools are stored as a tuple of the
    # ints 0 and 1, so that a frame hashes
    @pytest.mark.parametrize("good", [
        [0, 1, 1], bytearray(b"\0\1\1"), b"\0\1\1",
        tuple(np.array([0, 1, 1])), (False, True, 1)],
        ids=["list", "bytearray", "bytes", "numpy-ints", "bools"])
    def test_frame_stores_bits_as_ints(self, good):
        frame = HeraldFrame(good)
        assert frame.bits == (0, 1, 1)
        assert list(map(type, frame.bits)) == [int] * 3
        assert hash(frame) == hash(HeraldFrame((0, 1, 1)))
        assert select_last(frame) == 3

    def test_frame_validation(self):
        with pytest.raises(DomainError, match="at least one bin$"):
            HeraldFrame(())
        with pytest.raises(DomainError, match="at least one bin$"):
            HeraldFrame([])
        # only the characters 0 and 1 are bits: not a letter, nor another
        # script's digit one
        for text in ("1a", "\u0661"):
            with pytest.raises(DomainError, match=(
                    f"^herald bits must be 0 or 1, got {re.escape(repr(text))}$")):
                HeraldFrame.from_string(text)
