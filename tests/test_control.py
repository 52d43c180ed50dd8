import itertools
import math

import pytest

from photonmux.control import (
    HeraldFrame,
    clock_divisions,
    drive_waveforms,
    phase_schedule,
    select_first,
    select_last,
)
from photonmux.model import MAX_BINS, DomainError

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


class TestPhaseSchedule:
    def test_eight_bin_table_verbatim(self):
        sched = phase_schedule(8)
        assert sched.stage_count == 4
        for bin_index, delay, phases in EIGHT_BIN_TABLE:
            assert sched.row(bin_index) == pytest.approx(phases)
            assert sched.decode_delay(bin_index) == delay

    @pytest.mark.parametrize("n", POWERS_OF_TWO)
    def test_round_trip_delay(self, n):
        sched = phase_schedule(n)
        for r in range(1, n + 1):
            assert sched.decode_delay(r) == n - r

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_stage_count_is_log_depth_plus_exit(self, n):
        assert phase_schedule(n).stage_count == int(math.log2(n)) + 1

    @pytest.mark.parametrize("bad", [1, 3, 6, 12, 100])
    def test_rejects_non_power_of_two(self, bad):
        with pytest.raises(DomainError):
            phase_schedule(bad)


class TestDriveWaveforms:
    def test_finest_stage_alternates_every_bin(self):
        waves = drive_waveforms(8, 1)
        assert waves[3] == pytest.approx((PI, 0., PI, 0., PI, 0., PI, 0.))

    def test_coarsest_stage_half_frame(self):
        waves = drive_waveforms(8, 1)
        assert waves[0] == pytest.approx((PI, PI, PI, PI, 0., 0., 0., 0.))

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_waveforms_reproduce_schedule_every_frame(self, n):
        n_frames = 3
        sched = phase_schedule(n)
        waves = drive_waveforms(n, n_frames)
        for frame in range(n_frames):
            for r in range(1, n + 1):
                sample = tuple(w[frame * n + r - 1] for w in waves)
                assert sample == pytest.approx(sched.row(r))

    def test_divisions_cover_declared_periods(self):
        assert clock_divisions(2) == (2, 2)
        assert clock_divisions(4) == (4, 2, 2)
        assert clock_divisions(8) == (8, 4, 4, 2)
        assert clock_divisions(16) == (16, 8, 8, 4, 2)
        # each division is the least period of its stage's waveform
        for n in POWERS_OF_TWO:
            waves = drive_waveforms(n, 2)
            divisions = clock_divisions(n)
            assert len(divisions) == len(waves) == n.bit_length()
            for div, wave in zip(divisions, waves):
                assert wave == wave[:n] * 2
                least = next(p for p in range(1, len(wave))
                             if wave[p:] == wave[:-p])
                assert least == div


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
        out, selected = select_last(HeraldFrame.from_string(text))
        assert out == tuple(int(c) for c in expected_out)
        assert selected == expected_bin

    def test_last_photon_exhaustive_equals_highest_set_bit(self):
        for bits in itertools.product((0, 1), repeat=8):
            frame = HeraldFrame(bits)
            out, selected = select_last(frame)
            expected = max((i + 1 for i, b in enumerate(bits) if b), default=None)
            assert selected == expected
            assert sum(out) == (0 if expected is None else 1)
            if expected is not None:
                assert out[expected - 1] == 1

    def test_first_of_reversed_mirrors_last(self):
        for bits in itertools.product((0, 1), repeat=8):
            frame = HeraldFrame(bits)
            mirrored = HeraldFrame(tuple(reversed(bits)))
            _, last = select_last(frame)
            first = select_first(mirrored)
            if last is None:
                assert first is None
            else:
                assert first == len(bits) + 1 - last

    def test_frame_validation(self):
        with pytest.raises(DomainError):
            HeraldFrame(())
        with pytest.raises(DomainError):
            HeraldFrame((0, 2, 0))
