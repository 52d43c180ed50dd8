import json

import pytest

from photonmux.cli import EXIT_CONFIG, EXIT_DOMAIN, EXIT_OK, main


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


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

    def test_sweep_missing_bounds_is_config_error(self, capsys):
        assert main(["sweep", "--param", "eta_sw"]) == EXIT_CONFIG

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
