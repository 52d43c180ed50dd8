import json
import math
import random
import re
from enum import Enum

import numpy as np
import pytest

from photonmux.app import (
    MAX_SWEEP_POINTS,
    SWEEPABLE,
    SweepSpec,
    emit_fig3,
    find_crossing,
    optimize_bins,
    protocol_gap,
    sweep,
    sweep_values,
    write_csv,
)
from photonmux.config import (
    KEYS,
    MAX_CONFIG_BYTES,
    ConfigError,
    _parse_value,
    load_config,
    parse_config,
)
from photonmux.efficiency import total_efficiency
from photonmux.model import (
    MAX_BINS,
    N_MAX,
    Detection,
    DomainError,
    SchemeConfig,
    Selection,
    SourceParams,
    Topology,
)

GOOD_CONFIG = """
# design point
lambda = 0.1
eta_sw = 0.9
n_bins = 16
topology = binary
detection = array
"""


class TestConfigParsing:
    def test_round_trip(self):
        params, scheme = parse_config(GOOD_CONFIG)
        assert params.lam == 0.1
        assert params.eta_sw == 0.9
        assert params.eta_det == 0.8  # matched to the array protocol
        assert scheme.n_bins == 16
        assert scheme.detection is Detection.DETECTOR_ARRAY
        assert scheme.selection is Selection.LAST_PHOTON

    def test_defaults_when_empty(self):
        params, scheme = parse_config("")
        assert params == SourceParams()
        assert scheme.n_bins == 31

    def test_unknown_key_rejected_with_key_name(self):
        with pytest.raises(ConfigError, match="wombat"):
            parse_config("wombat = 3")

    def test_repeated_key_rejected_with_both_line_numbers(self):
        with pytest.raises(ConfigError,
                           match=r"line 3: .*'lambda'.* line 1\)"):
            parse_config("lambda = 0.1\n# stronger pumping\nlambda = 0.3")
        # a repeat is rejected even when it restates the same value
        with pytest.raises(ConfigError, match="repeated"):
            parse_config("n_bins=8\nn_bins = 8")

    @pytest.mark.parametrize("key,kind", [
        (key, kind)
        for key, (_, _, kind) in KEYS.items()
        if issubclass(kind, Enum)])
    def test_enum_values_are_stripped_and_lowercased(self, key, kind):
        for member in kind:
            for text in (f" {member.value.title()} ",
                         f" {member.value.upper()} "):
                assert _parse_value(key, text, kind) is member

    def test_bad_enum_value(self):
        with pytest.raises(ConfigError, match="topology"):
            parse_config("topology = hexagonal")

    def test_bad_line_shape(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just some words")

    @pytest.mark.parametrize("text", ["yes", "true", "on", "1", " Yes "])
    def test_mismatched_selection_override(self, text):
        _, scheme = parse_config("detection = array\nselection = first\n"
                                 f"allow_mismatched_selection = {text}")
        assert scheme.allow_mismatched_selection is True
        assert scheme.detection is Detection.DETECTOR_ARRAY
        assert scheme.selection is Selection.FIRST_PHOTON

    def test_explicit_eta_det_kept(self):
        params, _ = parse_config("detection = array\neta_det = 0.75")
        assert params.eta_det == 0.75

    def test_out_of_domain_value_surfaces(self):
        with pytest.raises(DomainError):
            parse_config("eta_sw = 1.5")

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.cfg")

    def test_load_config_undecodable_file(self, tmp_path):
        cfg = tmp_path / "binary.cfg"
        cfg.write_bytes(b"\xff\xfe")
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(cfg)

    def test_load_config_reads_a_leading_byte_order_mark(self, tmp_path):
        cfg = tmp_path / "bom.cfg"
        cfg.write_text("lambda = 0.3\nn_bins = 8\n", encoding="utf-8-sig")
        assert cfg.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_config(cfg) == parse_config("lambda = 0.3\nn_bins = 8\n")

    def test_load_config_caps_the_file_size(self, tmp_path):
        cfg = tmp_path / "long.cfg"
        text = "lambda = 0.3\n"
        text += "#" * (MAX_CONFIG_BYTES - len(text) - 1) + "\n"
        cfg.write_text(text)
        assert load_config(cfg) == parse_config("lambda = 0.3")
        cfg.write_text(text + "\n")
        with pytest.raises(ConfigError,
                           match=f"longer than {MAX_CONFIG_BYTES} bytes"):
            load_config(cfg)


class TestSweep:
    def test_zero_pumping_gives_flat_zero_curve(self):
        spec = SweepSpec("n_bins", tuple(range(1, 20)),
                         SourceParams(lam=0.0), SchemeConfig(n_bins=1))
        curve = sweep(spec)
        assert all(eta == 0.0 for _, eta in curve.points)
        assert curve.eta_max == 0.0
        assert curve.best_x == 1  # ties resolve to the smallest value

    def test_numpy_integer_depths_are_stored_as_ints(self, tmp_path):
        spec = SweepSpec("n_bins", (np.int64(3), np.int64(5)), SourceParams(),
                         SchemeConfig(n_bins=1))
        assert [type(n) for n in spec.values] == [int, int]
        curve = sweep(spec)
        assert curve.points == sweep(SweepSpec(
            "n_bins", (3, 5), SourceParams(), SchemeConfig(n_bins=1))).points
        assert [type(n) for n, _ in curve.points] == [int, int]
        path = tmp_path / "sweep.csv"
        write_csv(path, ("n_bins", "eta"), curve.points)
        rows = path.read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["3", "5"]

    def test_headline_optimum(self):
        curve = optimize_bins(SourceParams(), SchemeConfig(n_bins=1), 1, 128)
        assert curve.best_x == 31
        assert curve.eta_max == pytest.approx(0.2797, abs=5e-4)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigError, match="not_a_knob"):
            SweepSpec("not_a_knob", (1, 2), SourceParams(), SchemeConfig(n_bins=4))

    def test_out_of_domain_sweep_value(self):
        spec = SweepSpec("eta_sw", (0.5, 1.5), SourceParams(),
                         SchemeConfig(n_bins=4))
        with pytest.raises(DomainError):
            sweep(spec)

    def test_lambda_sweeps_the_pumping_strength(self):
        spec = SweepSpec("lambda", (0.05, 0.2), SourceParams(),
                         SchemeConfig(n_bins=16))
        want = [total_efficiency(SourceParams(lam=lam),
                                 SchemeConfig(n_bins=16)).eta_total
                for lam in (0.05, 0.2)]
        assert [eta for _, eta in sweep(spec).points] == want

    def test_sweeping_other_parameters(self):
        spec = SweepSpec("eta_sw", (0.8, 0.9, 0.99), SourceParams(),
                         SchemeConfig(n_bins=16))
        curve = sweep(spec)
        etas = [eta for _, eta in curve.points]
        assert etas == sorted(etas)
        assert curve.best_x == 0.99


def _accumulated_grid(lo, hi, step):
    """Reference grid: the running sum that sweep grids were first built
    with (it ends only for a step well above the float spacing)."""
    values = []
    x = lo
    while x <= hi + 1e-12:
        values.append(round(x, 12))
        x += step
    return tuple(values)


class TestSweepValues:
    def test_every_int_or_float_key_but_period_is_sweepable(self):
        assert SWEEPABLE == {key for key, (_, _, kind) in KEYS.items()
                             if kind in (int, float)} - {"period"}
        assert SWEEPABLE == {"n_bins", "lambda", "eta_f", "eta_c", "eta_sw",
                             "eta_det", "eta_conv", "alpha_inc"}

    def test_values_take_the_key_type(self):
        assert sweep_values("n_bins", "8, 16,31") == (8, 16, 31)
        assert sweep_values("lambda", "0.1,1e-2") == (0.1, 0.01)

    @pytest.mark.parametrize("key,values,bad", [
        ("n_bins", "1,x", "x"), ("n_bins", "8,,16", ""),
        ("n_bins", "8.0", "8.0"), ("lambda", "0.1,0.1.1", "0.1.1")])
    def test_bad_item_gets_the_config_file_message(self, key, values, bad):
        with pytest.raises(ConfigError) as from_config:
            parse_config(f"{key} = {bad}")
        with pytest.raises(ConfigError) as from_sweep:
            sweep_values(key, values)
        assert str(from_sweep.value) == str(from_config.value)

    def test_n_bins_grid_defaults(self):
        values = sweep_values("n_bins")
        assert values == tuple(range(1, N_MAX + 1))
        assert all(type(n) is int for n in values)
        assert sweep_values("n_bins", lo=4.0, hi=20.0, step=8.0) == (4, 12, 20)

    def test_grid_matches_the_accumulated_reference(self):
        rng = random.Random(2024)
        grids = [(0.85, 0.99, 0.01), (0.01, 0.2, 0.0125), (0.5, 0.4, 0.1)]
        for _ in range(500):
            lo = round(rng.uniform(0.0, 1.0), rng.choice((2, 3)))
            hi = round(rng.uniform(lo, 1.0), rng.choice((2, 3)))
            grids.append((lo, hi, round(rng.uniform(0.001, 0.2), 4)))
        for lo, hi, step in grids:
            assert sweep_values("eta_sw", lo=lo, hi=hi,
                                step=step) == _accumulated_grid(lo, hi, step)

    def test_grid_stays_within_max(self):
        # a step longer than the range once added a point a step past --max
        assert sweep_values("lambda", lo=0.0, hi=5e-13, step=1e-12) == (0.0,)
        # endpoints that float error puts a hair past --max are kept
        assert sweep_values("eta_sw", lo=0.85, hi=0.99,
                            step=0.07) == (0.85, 0.92, 0.99)
        assert sweep_values("eta_sw", lo=0.0, hi=0.9,
                            step=0.3) == (0.0, 0.3, 0.6, 0.9)

    @pytest.mark.parametrize("key,lo,hi,step,match", [
        ("eta_sw", 0.5, 0.6, 0.0, "step > 0"),
        ("eta_sw", 0.5, 0.6, -0.1, "step > 0"),
        ("eta_sw", 0.5, 0.6, math.nan, "step > 0"),
        ("eta_sw", 0.5, math.inf, 0.1, "finite bounds"),
        pytest.param("eta_sw", 0.5, 10**400, 0.1,
                     "finite bounds.* max=10{400} ", id="huge-int-max"),
        pytest.param("eta_sw", 0.5, 0.6, 10**400,
                     "finite bounds.* step=10{400}$", id="huge-int-step"),
        ("eta_sw", 0.5, None, 0.1, "need --min, --max and --step"),
        ("n_bins", None, None, 0.0, "step > 0"),
        ("n_bins", None, None, 0.5, "integral"),
        ("n_bins", 1.5, None, None, "integral"),
        ("lambda", 1e-14, 5e-14, 1e-14, "repeats points"),
        ("eta_sw", 0.5, 0.5000000000001, 1e-14, "repeats points"),
    ])
    def test_bad_grid_rejected(self, key, lo, hi, step, match):
        with pytest.raises(ConfigError, match=match):
            sweep_values(key, lo=lo, hi=hi, step=step)

    def test_point_cap(self):
        # Grids far over the cap run in a subprocess (test_cli.TestEndsInTime),
        # where a missing cap fails on a timeout instead of filling memory.
        assert len(sweep_values("n_bins", hi=float(MAX_SWEEP_POINTS))) \
            == MAX_SWEEP_POINTS
        with pytest.raises(ConfigError, match="limit"):
            sweep_values("eta_sw", ",".join(["0.5"] * (MAX_SWEEP_POINTS + 1)))

    def test_values_and_grid_are_exclusive(self):
        with pytest.raises(ConfigError, match="not both"):
            sweep_values("n_bins", "8,16", lo=1.0)

    def test_unknown_parameter(self):
        with pytest.raises(ConfigError, match="period"):
            sweep_values("period", "1")


class TestDepthCap:
    """N below 1 or over MAX_BINS is rejected before any point is
    evaluated."""

    @pytest.mark.parametrize("n_min,n_max", [(1, 10**12), (1, MAX_BINS + 1),
                                             (-10**12, 8), (0, 8), (5, 3)])
    def test_optimize_rejects_the_range_before_building_it(self, n_min, n_max):
        with pytest.raises(DomainError, match=f"n_max <= {MAX_BINS}"):
            optimize_bins(SourceParams(), SchemeConfig(n_bins=1), n_min, n_max)

    def test_n_bins_sweep_rejected_before_evaluation(self, monkeypatch):
        def evaluated(*args, **kwargs):
            raise AssertionError("a point was evaluated")

        monkeypatch.setattr("photonmux.app.total_efficiency", evaluated)
        monkeypatch.setattr("photonmux.app.eta_curve", evaluated)
        for values, message in (
                (sweep_values("n_bins", "8,2000"),
                 f"n_bins must be <= {MAX_BINS}, got 2000$"),
                (sweep_values("n_bins", "2000,0"),
                 f"n_bins must be <= {MAX_BINS}, got 2000$"),
                (sweep_values("n_bins", hi=float(MAX_BINS + 1)),
                 f"<= {MAX_BINS}"),
                (sweep_values("n_bins", "8,0"), "n_bins must be >= 1, got 0")):
            with pytest.raises(DomainError, match=message):
                sweep(SweepSpec("n_bins", values, SourceParams(),
                                SchemeConfig(n_bins=1)))


def test_write_csv_turns_os_errors_into_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot write"):
        write_csv(tmp_path / "absent" / "x.csv", ("n_bins", "eta"), [(1, 0.5)])


class TestCrossing:
    def test_crossing_near_design_value(self):
        value = find_crossing(SourceParams(), 0.85, 0.99, tol=1e-3)
        assert value == pytest.approx(0.95, abs=0.02)

    def test_degenerate_bracket_is_error(self):
        with pytest.raises(DomainError):
            find_crossing(SourceParams(), 0.9, 0.9)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf,
                                     pytest.param(10**400, id="huge-int")])
    def test_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(DomainError, match="tol must be finite"):
            find_crossing(SourceParams(), 0.85, 0.99, tol)

    @pytest.mark.parametrize("lo", [0.0, -0.5, math.nan])
    def test_bracket_must_start_above_zero(self, lo):
        # at eta_sw = 0 neither protocol emits, so the gap there is 0
        with pytest.raises(DomainError, match="need 0 < lo <= hi"):
            find_crossing(SourceParams(), lo, 0.5)

    @pytest.mark.parametrize("field", ["lam", "eta_c", "eta_conv"])
    def test_no_crossing_where_neither_protocol_emits(self, field):
        params = SourceParams(**{field: 0.0})
        assert protocol_gap(params, 0.85) == 0.0
        with pytest.raises(DomainError, match="no protocol crossing .* both "
                                              "protocols reach eta = 0"):
            find_crossing(params, 0.85, 0.99)

    @pytest.mark.parametrize("gaps,calls,expected", [
        ((0.0, 1.0), (0.5, 1.0), 0.5),
        ((1.0, 0.0), (0.5, 1.0), 1.0),
        ((1.0, -1.0, 1.0, -1.0, 0.0), (0.5, 1.0, 0.75, 0.875, 0.8125), 0.8125),
        ((1.0, -1.0, -1.0, 0.0), (0.5, 1.0, 0.75, 0.625), 0.625),
    ], ids=["lo", "hi", "mid-below", "mid-above"])
    def test_zero_gap_is_the_crossing(self, monkeypatch, gaps, calls,
                                      expected):
        # scripted gaps: one per bracket end, then one per midpoint; the
        # zero's eta_sw is returned after one check that eta there is > 0
        script, received, best = iter(gaps), [], []
        monkeypatch.setattr("photonmux.app.protocol_gap", lambda p, eta_sw: (
            received.append(eta_sw) or next(script)))
        monkeypatch.setattr("photonmux.app._protocol_best", lambda p, eta_sw: (
            best.append(eta_sw) or (0.3, 0.2)))
        assert find_crossing(SourceParams(), 0.5, 1.0) == expected
        assert received == list(calls)
        assert best == [expected]

    def test_tiny_tol_ends_at_adjacent_floats(self, monkeypatch):
        # no bracket is narrower than 1e-300, so bisection ends only where
        # the midpoint rounds to a bracket end
        calls = []

        def gap(params, eta_sw):
            calls.append((eta_sw, protocol_gap(params, eta_sw)))
            return calls[-1][1]

        monkeypatch.setattr("photonmux.app.protocol_gap", gap)
        value = find_crossing(SourceParams(), 0.85, 0.99, tol=1e-300)
        assert 0.85 <= value <= 0.99
        assert all(g for _, g in calls)
        # replay the bisection from the recorded gaps to its last bracket
        (lo, g_lo), (hi, _) = calls[:2]
        for mid, g in calls[2:]:
            if math.copysign(1.0, g) == math.copysign(1.0, g_lo):
                lo, g_lo = mid, g
            else:
                hi = mid
        assert math.nextafter(lo, hi) == hi
        assert value in (lo, hi)
        # floats in [0.5, 1) lie 2**-53 apart, so halving a bracket of 0.14
        # there reaches adjacent floats within 51 midpoints
        assert len(calls) <= 2 + 51

    def test_gap_is_monotone_decreasing_on_bracket(self):
        params = SourceParams()
        grid = [0.85 + 0.14 * k / 49 for k in range(50)]
        gaps = [protocol_gap(params, x) for x in grid]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[0] > 0 > gaps[-1]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig3")
    written = emit_fig3(out, SourceParams())
    return out, written


class TestEmitFig3:
    @pytest.mark.parametrize("target", ["file", "file/sub"])
    def test_out_dir_blocked_by_a_file(self, tmp_path, target):
        (tmp_path / "file").write_text("")
        with pytest.raises(ConfigError, match="cannot create"):
            emit_fig3(tmp_path / target, SourceParams())

    def test_files_and_headers(self, outputs):
        out, written = outputs
        names = [p.split("/")[-1] for p in written]
        assert names == ["fig3a.csv", "fig3b.csv", "fig3c.csv",
                         "fig3_metadata.json"]
        a_header = (out / "fig3a.csv").read_text().splitlines()[0]
        assert a_header == ("N,eta_binary_single,eta_binary_array,"
                            "eta_singleline_single,eta_singleline_array")
        c_header = (out / "fig3c.csv").read_text().splitlines()[0]
        assert c_header == ("N,avglin_lambda0.02,avglin_lambda0.06,"
                            "avglin_lambda0.1,avglin_control")

    def test_values_are_probabilities(self, outputs):
        out, _ = outputs
        for name in ("fig3a.csv", "fig3b.csv", "fig3c.csv"):
            rows = (out / name).read_text().splitlines()[1:]
            assert len(rows) == 128
            for row in rows:
                for cell in row.split(",")[1:]:
                    assert 0.0 <= float(cell) <= 1.0

    @pytest.mark.parametrize("name,eta_sw", [("fig3a.csv", 0.87),
                                             ("fig3b.csv", 0.98)])
    def test_cells_are_protocol_matched_total_efficiency(self, outputs, name,
                                                         eta_sw):
        protocols = {
            "eta_binary_single": (Topology.BINARY_DELAY,
                                  Detection.SINGLE_DETECTOR, 0.7),
            "eta_binary_array": (Topology.BINARY_DELAY,
                                 Detection.DETECTOR_ARRAY, 0.8),
            "eta_singleline_single": (Topology.SINGLE_DELAY_LINE,
                                      Detection.SINGLE_DETECTOR, 0.7),
            "eta_singleline_array": (Topology.SINGLE_DELAY_LINE,
                                     Detection.DETECTOR_ARRAY, 0.8),
        }
        out, _ = outputs
        header, *rows = (out / name).read_text().splitlines()
        columns = header.split(",")[1:]
        assert sorted(columns) == sorted(protocols)
        for row in rows:
            n, *cells = row.split(",")
            for column, cell in zip(columns, cells, strict=True):
                topology, detection, eta_det = protocols[column]
                params = SourceParams(eta_sw=eta_sw, eta_det=eta_det)
                scheme = SchemeConfig(n_bins=int(n), topology=topology,
                                      detection=detection)
                assert cell == repr(total_efficiency(params, scheme).eta_total)

    def test_sidecar_blocked_by_a_directory(self, tmp_path):
        sidecar = tmp_path / "fig3_metadata.json"
        sidecar.mkdir()
        with pytest.raises(ConfigError,
                           match=f"^cannot write {re.escape(str(sidecar))}: "):
            emit_fig3(tmp_path, SourceParams())

    def test_metadata_records_provenance_fields(self, outputs):
        out, _ = outputs
        meta = json.loads((out / "fig3_metadata.json").read_text())
        assert meta["code_version"]
        assert "rng_algorithm" not in meta
        # every config parameter; fig3 sets eta_sw itself and lists its values
        assert set(meta["parameters"]) == (
            {key for key, (cls, _, _) in KEYS.items() if cls is SourceParams}
            - {"eta_sw"} | {"eta_sw_values"})
        assert meta["parameters"]["lambda"] == 0.1
        assert meta["parameters"]["pair_dist"] == "poisson"
        assert meta["parameters"]["eta_det"] == {"single": 0.7, "array": 0.8}
        assert "seed" not in meta

    def test_literal_loss_exponent_reaches_fig3c(self, outputs, tmp_path):
        out, _ = outputs
        literal = tmp_path / "literal"
        emit_fig3(literal, SourceParams(), literal_exponent=True)
        meta = json.loads((literal / "fig3_metadata.json").read_text())
        assert meta["literal_loss_exponent"] is True
        base_rows = (out / "fig3c.csv").read_text().splitlines()[1:]
        literal_rows = (literal / "fig3c.csv").read_text().splitlines()[1:]
        assert base_rows[0] == literal_rows[0]  # N = 1 has no delay
        for base, lit in zip(base_rows[1:], literal_rows[1:]):
            # every column, the control included, loses ten times the decibels
            assert all(float(x) < float(y) for x, y in
                       zip(lit.split(",")[1:], base.split(",")[1:]))

    def test_reruns_are_byte_identical(self, outputs, tmp_path):
        out, _ = outputs
        again = tmp_path / "again"
        emit_fig3(again, SourceParams())
        for name in ("fig3a.csv", "fig3b.csv", "fig3c.csv",
                     "fig3_metadata.json"):
            assert (again / name).read_bytes() == (out / name).read_bytes()

    def test_control_column_strictly_decreasing(self, outputs):
        out, _ = outputs
        rows = (out / "fig3c.csv").read_text().splitlines()[1:]
        control = [float(r.split(",")[-1]) for r in rows]
        assert all(b < a for a, b in zip(control, control[1:]))

    def test_last_photon_column_steps_at_occupancy_increments(self, outputs):
        out, _ = outputs
        rows = (out / "fig3c.csv").read_text().splitlines()[1:]
        lam_col = [float(r.split(",")[3]) for r in rows]  # lambda = 0.1
        for n in range(2, 129):
            delta = lam_col[n - 1] - lam_col[n - 2]
            increments = math.ceil(0.1 * n) != math.ceil(0.1 * (n - 1))
            if increments:
                assert delta > 0, f"expected an upward step at N={n}"
            else:
                assert delta < 0, f"expected smooth decay at N={n}"

    def test_last_photon_dominates_control_at_strong_pumping(self, outputs):
        out, _ = outputs
        rows = (out / "fig3c.csv").read_text().splitlines()[1:]
        for row in rows:
            cells = row.split(",")
            n = int(cells[0])
            if n >= 20:
                assert float(cells[3]) > float(cells[4])

    def test_binary_topology_dominates_single_line_beyond_small_frames(self, outputs):
        # with few bins the single delay line pays fewer switch passes and
        # genuinely wins; the fixed log-depth switch count takes over at
        # N = 11 and dominates from there on
        out, _ = outputs
        rows = (out / "fig3a.csv").read_text().splitlines()[1:]
        for row in rows:
            cells = [float(c) for c in row.split(",")]
            n = int(cells[0])
            if n >= 11:
                assert cells[1] > cells[3]
                assert cells[2] > cells[4]
