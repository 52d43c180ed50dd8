import json
import math
import os
import subprocess
import sys

import pytest

import photonmux
from photonmux.app import protocol_gap
from photonmux.cli import EXIT_CONFIG, EXIT_DOMAIN, EXIT_OK, main
from photonmux.model import SourceParams


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def assert_rejected(capsys, argv, code):
    """``argv`` exits with ``code`` and one message line, printing nothing."""
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


def run_cli(*argv):
    """``python -m photonmux.cli ARGV`` in a fresh interpreter; a run that
    does not end within 60 s fails the test instead of hanging the suite."""
    src = os.path.dirname(os.path.dirname(photonmux.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "photonmux.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


class TestEval:
    def test_default_point(self, capsys):
        code, payload = run_json(capsys, ["eval", "--json"])
        assert code == EXIT_OK
        assert payload["n_bins"] == 31
        assert payload["eta_total"] == pytest.approx(0.2797, abs=5e-4)
        assert payload["eta_detection"] == pytest.approx(0.595)

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "point.cfg"
        cfg.write_text("n_bins = 8\ndetection = array\n")
        code, payload = run_json(capsys, ["eval", "--json", "--config", str(cfg)])
        assert code == EXIT_OK
        assert payload["n_bins"] == 8
        assert payload["detection"] == "array"
        assert payload["selection"] == "last"

    def test_unknown_key_exits_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n")
        assert main(["eval", "--config", str(cfg)]) == EXIT_CONFIG
        assert "nonsense" in capsys.readouterr().err

    @pytest.mark.parametrize("line,field", [("lambda = nan", "lam"),
                                            ("alpha_inc = inf", "alpha_inc"),
                                            ("period = -inf", "period")])
    def test_non_finite_value_exits_domain_error(self, capsys, tmp_path,
                                                 line, field):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert main(["eval", "--config", str(cfg)]) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert f"{field} must be finite" in captured.err
        assert captured.out == ""

    def test_model_flags_change_result(self, capsys):
        _, base = run_json(capsys, ["eval", "--json"])
        _, nofilter = run_json(capsys, ["eval", "--json", "--d0-excludes-filter"])
        _, literal = run_json(capsys, ["eval", "--json", "--literal-loss-exponent"])
        assert nofilter["eta_total"] > base["eta_total"]
        assert literal["eta_total"] < base["eta_total"]


class TestSweepAndOptimize:
    def test_sweep_values(self, capsys):
        code, payload = run_json(
            capsys, ["sweep", "--json", "--param", "n_bins",
                     "--values", "8,16,31"])
        assert code == EXIT_OK
        assert [x for x, _ in payload["points"]] == [8, 16, 31]
        assert payload["best_x"] == 31

    def test_sweep_writes_csv(self, capsys, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(["sweep", "--param", "n_bins", "--min", "1", "--max", "16",
                     "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "n_bins,eta"
        assert len(lines) == 17

    def test_sweep_csv_matches_json_points(self, capsys, tmp_path):
        out = tmp_path / "curve.csv"
        argv = ["sweep", "--json", "--param", "eta_sw", "--min", "0.85",
                "--max", "0.99", "--step", "0.01"]
        code, payload = run_json(capsys, argv + ["--out", str(out)])
        assert code == EXIT_OK
        rows = "".join(f"{x!r},{y!r}\n" for x, y in payload["points"])
        assert out.read_text() == "eta_sw,eta\n" + rows

    def test_sweep_missing_bounds_is_config_error(self, capsys):
        assert main(["sweep", "--param", "eta_sw"]) == EXIT_CONFIG

    @pytest.mark.parametrize("flags", [
        ["--values", "1,x"],
        ["--values", "8,,16"],
        ["--values", "8,16", "--min", "1"],
        ["--out", "/nonexistent/x.csv"],
        ["--param", "n_bins", "--step", "0"],
        ["--param", "n_bins", "--step", "0.5"],
        ["--param", "n_bins", "--min", "1.5"],
    ])
    def test_bad_sweep_input_is_config_error(self, capsys, flags):
        assert_rejected(capsys, ["sweep", *flags], EXIT_CONFIG)

    def test_optimize(self, capsys):
        code, payload = run_json(capsys, ["optimize", "--json"])
        assert code == EXIT_OK
        assert payload["best_n"] == 31


class TestCrossing:
    def test_default_bracket(self, capsys):
        code, payload = run_json(capsys, ["crossing", "--json"])
        assert code == EXIT_OK
        assert payload["crossing_eta_sw"] == pytest.approx(0.95, abs=0.02)

    def test_degenerate_bracket_is_domain_error(self, capsys):
        code = main(["crossing", "--lo", "0.9", "--hi", "0.9"])
        assert code == EXIT_DOMAIN
        assert "crossing" in capsys.readouterr().err

    def test_nan_tol_is_domain_error(self, capsys):
        assert_rejected(capsys, ["crossing", "--tol", "nan"], EXIT_DOMAIN)

    def test_reports_the_overridden_topology_and_eta_det(self, capsys,
                                                         tmp_path):
        cfg = tmp_path / "point.cfg"
        cfg.write_text("topology = single-line\neta_det = 0.5\n")
        _, default = run_json(capsys, ["crossing", "--json"])
        code, payload = run_json(capsys, ["crossing", "--json",
                                          "--config", str(cfg)])
        assert code == EXIT_OK
        assert payload == default
        assert payload["topology"] == "binary"
        assert payload["eta_det"] == {"single": 0.7, "array": 0.8}
        assert main(["crossing", "--config", str(cfg)]) == EXIT_OK
        text = capsys.readouterr().out
        assert "binary topology with eta_det single=0.7, array=0.8" in text


class TestMonteCarlo:
    def test_reproducible_and_consistent(self, capsys):
        argv = ["mc", "--json", "--trials", "200000", "--seed", "7"]
        code, first = run_json(capsys, argv)
        assert code == EXIT_OK
        _, second = run_json(capsys, argv)
        assert first == second
        assert abs(first["z_score"]) < 4.0
        assert first["rng_algorithm"].startswith("numpy-pcg64")

    def test_thermal_closed_form_agrees(self, capsys, tmp_path):
        cfg = tmp_path / "thermal.cfg"
        cfg.write_text("pair_dist = thermal\nlambda = 0.3\nn_bins = 8\n")
        code, payload = run_json(capsys, ["mc", "--json", "--config", str(cfg),
                                          "--trials", "400000", "--seed", "5"])
        assert code == EXIT_OK
        assert abs(payload["z_score"]) < 4.0

    def test_truncated_pair_table_exits_domain_error(self, capsys, tmp_path):
        cfg = tmp_path / "thermal.cfg"
        cfg.write_text("pair_dist = thermal\nlambda = 1.9\nn_bins = 8\n")
        code = main(["mc", "--config", str(cfg), "--trials", "1000"])
        assert code == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert "lam = 1.9" in err and "drop 0.000368" in err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_fewer_than_one_worker_is_domain_error(self, capsys, workers):
        assert_rejected(capsys, ["mc", "--trials", "1000", "--workers",
                                 workers], EXIT_DOMAIN)

    def test_workers_do_not_change_result(self, capsys):
        base = ["mc", "--json", "--trials", "600000", "--seed", "3"]
        _, one = run_json(capsys, base + ["--workers", "1"])
        _, four = run_json(capsys, base + ["--workers", "4"])
        assert one == four


class TestBell:
    def test_enumeration_values(self, capsys):
        code, payload = run_json(capsys, ["bell", "--json", "--eta", "0.59"])
        assert code == EXIT_OK
        assert payload["herald_probability"] == pytest.approx(3 / 16, abs=1e-10)
        assert payload["two_source_coincidence"] == pytest.approx(0.5, abs=1e-10)
        assert payload["composed"]["hbs4"] == pytest.approx(
            3 / 16 * 0.59**4, rel=1e-9)


class TestFig3:
    def test_writes_files(self, capsys, tmp_path):
        out = tmp_path / "fig3"
        code, payload = run_json(capsys, ["fig3", "--json", "--out", str(out)])
        assert code == EXIT_OK
        assert len(payload["written"]) == 4
        assert (out / "fig3a.csv").exists()
        assert (out / "fig3_metadata.json").exists()


class TestEndsInTime:
    """Inputs that once looped without end or exhausted memory."""

    @pytest.mark.parametrize("argv,code", [
        (["sweep", "--param", "eta_sw", "--min", "0.5", "--max", "0.6",
          "--step", "0"], EXIT_CONFIG),
        (["sweep", "--param", "eta_sw", "--min", "0.5", "--max", "0.6",
          "--step", "-0.1"], EXIT_CONFIG),
        (["sweep", "--param", "eta_sw", "--min", "0.5", "--max", "0.6",
          "--step", "1e-17"], EXIT_CONFIG),
        (["sweep", "--param", "n_bins", "--max", "1e12"], EXIT_CONFIG),
        (["crossing", "--tol", "0"], EXIT_DOMAIN),
        (["crossing", "--tol", "-1"], EXIT_DOMAIN),
    ], ids=["step-zero", "step-negative", "step-below-spacing",
            "n_bins-over-cap", "tol-zero", "tol-negative"])
    def test_rejected_with_one_line(self, argv, code):
        proc = run_cli(*argv)
        assert proc.returncode == code
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1

    def test_tol_below_float_spacing_ends_at_a_sign_change(self):
        proc = run_cli("crossing", "--json", "--tol", "1e-300")
        assert proc.returncode == EXIT_OK
        x = json.loads(proc.stdout)["crossing_eta_sw"]
        params = SourceParams()
        gap = protocol_gap(params, x)
        neighbours = (protocol_gap(params, math.nextafter(x, toward))
                      for toward in (0.0, 1.0))
        assert any(gap * g <= 0 for g in neighbours)
