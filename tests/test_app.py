import json
import math

import pytest

from photonmux.app import (
    ConfigError,
    SweepSpec,
    emit_fig3,
    find_crossing,
    load_config,
    optimize_bins,
    parse_config,
    protocol_gap,
    sweep,
)
from photonmux.model import (
    Detection,
    DomainError,
    SchemeConfig,
    Selection,
    SourceParams,
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

    def test_bad_enum_value(self):
        with pytest.raises(ConfigError, match="topology"):
            parse_config("topology = hexagonal")

    def test_bad_line_shape(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just some words")

    def test_explicit_eta_det_kept(self):
        params, _ = parse_config("detection = array\neta_det = 0.75")
        assert params.eta_det == 0.75

    def test_out_of_domain_value_surfaces(self):
        with pytest.raises(DomainError):
            parse_config("eta_sw = 1.5")

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.cfg")


class TestSweep:
    def test_zero_pumping_gives_flat_zero_curve(self):
        spec = SweepSpec("n_bins", tuple(range(1, 20)),
                         SourceParams(lam=0.0), SchemeConfig(n_bins=1))
        curve = sweep(spec)
        assert all(eta == 0.0 for _, eta in curve.points)
        assert curve.eta_max == 0.0
        assert curve.best_x == 1  # ties resolve to the smallest value

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
        with pytest.raises(ConfigError):
            sweep(spec)

    def test_sweeping_other_parameters(self):
        spec = SweepSpec("eta_sw", (0.8, 0.9, 0.99), SourceParams(),
                         SchemeConfig(n_bins=16))
        curve = sweep(spec)
        etas = [eta for _, eta in curve.points]
        assert etas == sorted(etas)
        assert curve.best_x == 0.99


class TestCrossing:
    def test_crossing_near_design_value(self):
        value = find_crossing(SourceParams(), 0.85, 0.99, tol=1e-3)
        assert value == pytest.approx(0.95, abs=0.02)

    def test_degenerate_bracket_is_error(self):
        with pytest.raises(DomainError):
            find_crossing(SourceParams(), 0.9, 0.9)

    def test_gap_is_monotone_decreasing_on_bracket(self):
        params = SourceParams()
        grid = [0.85 + 0.14 * k / 49 for k in range(50)]
        gaps = [protocol_gap(params, x) for x in grid]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[0] > 0 > gaps[-1]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig3")
    written = emit_fig3(out, SourceParams(), seed=0)
    return out, written


class TestEmitFig3:
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

    def test_metadata_records_provenance_fields(self, outputs):
        out, _ = outputs
        meta = json.loads((out / "fig3_metadata.json").read_text())
        assert meta["code_version"]
        assert "pcg64" in meta["rng_algorithm"]
        assert meta["parameters"]["lambda"] == 0.1
        assert meta["parameters"]["eta_det"] == {"single": 0.7, "array": 0.8}

    def test_literal_loss_exponent_reaches_fig3c(self, outputs, tmp_path):
        out, _ = outputs
        literal = tmp_path / "literal"
        emit_fig3(literal, SourceParams(), seed=0, literal_exponent=True)
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
        emit_fig3(again, SourceParams(), seed=0)
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
