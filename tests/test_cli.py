import argparse
import json
import math
import os
import subprocess
import sys

try:
    import tomllib
except ImportError:  # Python 3.10
    tomllib = None

import pytest

import photonmux
import photonmux.cli
import photonmux.montecarlo
from photonmux.app import emit_fig3, protocol_gap
from photonmux.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_CONFIG,
    EXIT_DOMAIN,
    EXIT_OK,
    _z_score,
    build_parser,
    main,
)
from photonmux.config import MAX_CONFIG_BYTES
from photonmux.model import MAX_BINS, SourceParams

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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


def _fresh_python(*args, stdout=subprocess.PIPE, **environ):
    """``python ARGS`` in a fresh interpreter that imports this photonmux; a
    run that does not end within 60 s fails the test instead of hanging the
    suite.  Each ``environ`` item sets (a string) or unsets (None) one
    environment variable."""
    src = os.path.dirname(os.path.dirname(photonmux.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.update(environ)
    env = {key: value for key, value in env.items() if value is not None}
    return subprocess.run([sys.executable, *args], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env,
                          timeout=60)


def run_cli(*argv):
    """``python -m photonmux.cli ARGV`` in a fresh interpreter."""
    return _fresh_python("-m", "photonmux.cli", *argv)


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

    def test_config_file_with_byte_order_mark(self, capsys, tmp_path):
        cfg = tmp_path / "bom.cfg"
        cfg.write_text("n_bins = 8\ndetection = array\n", encoding="utf-8-sig")
        code, payload = run_json(capsys, ["eval", "--json", "--config", str(cfg)])
        assert code == EXIT_OK
        assert (payload["n_bins"], payload["detection"]) == (8, "array")

    def test_unknown_key_exits_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n")
        assert main(["eval", "--config", str(cfg)]) == EXIT_CONFIG
        assert "nonsense" in capsys.readouterr().err

    def test_repeated_key_exits_config_error(self, tmp_path):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("lambda = 0.1\nn_bins = 8\nlambda = 0.3\n")
        proc = run_cli("eval", "--json", "--config", str(cfg))
        assert proc.returncode == EXIT_CONFIG
        assert proc.stdout == ""
        [message] = proc.stderr.splitlines()
        assert "line 3" in message and "line 1" in message

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

    def test_model_flags_change_result(self, capsys, tmp_path):
        _, base = run_json(capsys, ["eval", "--json"])
        _, nofilter = run_json(capsys, ["eval", "--json", "--d0-excludes-filter"])
        _, literal = run_json(capsys, ["eval", "--json", "--literal-loss-exponent"])
        assert nofilter["eta_total"] > base["eta_total"]
        assert literal["eta_total"] < base["eta_total"]
        # every other subcommand that evaluates the model honours both flags
        answers = {
            ("sweep", "--values", "8,16,31"): "eta_max",
            ("optimize",): "eta_max",
            ("crossing",): "crossing_eta_sw",
            ("mc", "--trials", "20000"): "eta_hat",
        }
        for argv, key in answers.items():
            _, base = run_json(capsys, [*argv, "--json"])
            for flag in ("--d0-excludes-filter", "--literal-loss-exponent"):
                code, flagged = run_json(capsys, [*argv, "--json", flag])
                assert code == EXIT_OK
                assert flagged[key] != base[key], (argv, flag)
        fig3 = {}
        for flag in ("", "--d0-excludes-filter", "--literal-loss-exponent"):
            out = tmp_path / f"fig3{flag}"
            assert main(["fig3", "--out", str(out), *flag.split()]) == EXIT_OK
            fig3[flag] = [(out / name).read_bytes() for name in
                          ("fig3a.csv", "fig3b.csv", "fig3c.csv")]
        capsys.readouterr()
        base, nofilter = fig3[""], fig3["--d0-excludes-filter"]
        # the filter reading moves fig3a and fig3b; fig3c has no D0
        assert [a != b for a, b in zip(nofilter, base)] == [True, True, False]
        assert all(a != b for a, b in zip(fig3["--literal-loss-exponent"], base))


class TestSweepAndOptimize:
    def test_sweep_values(self, capsys):
        code, payload = run_json(
            capsys, ["sweep", "--json", "--param", "n_bins",
                     "--values", "8,16,31"])
        assert code == EXIT_OK
        assert [x for x, _ in payload["points"]] == [8, 16, 31]
        assert payload["best_x"] == 31

    def test_sweep_grid_ends_at_max(self, capsys):
        code, payload = run_json(
            capsys, ["sweep", "--json", "--param", "lambda", "--min", "0",
                     "--max", "5e-13", "--step", "1e-12"])
        assert code == EXIT_OK
        assert [x for x, _ in payload["points"]] == [0.0]

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

    @pytest.mark.parametrize("key,value", [
        ("n_bins", "0"), ("lambda", "-1"), ("eta_f", "1.5"),
        ("eta_c", "-0.1"), ("eta_sw", "1.5"), ("eta_det", "2"),
        ("eta_conv", "-0.5"), ("alpha_inc", "-1"),
    ])
    def test_out_of_domain_value_is_domain_error(self, capsys, tmp_path,
                                                 key, value):
        # the same value exits alike from a config line and a sweep list
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = {value}\n")
        assert_rejected(capsys, ["eval", "--config", str(cfg)], EXIT_DOMAIN)
        assert_rejected(capsys, ["sweep", "--param", key, "--values", value],
                        EXIT_DOMAIN)

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

    @pytest.mark.parametrize("config", [
        "lambda = 5e-324",
        "lambda = 1.9999999999999998\npair_dist = thermal"])
    def test_no_crossing_message_shows_tiny_gaps(self, capsys, tmp_path,
                                                 config):
        cfg = tmp_path / "point.cfg"
        cfg.write_text(config + "\n")
        assert main(["crossing", "--config", str(cfg)]) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert "no protocol crossing" in err
        # both gaps keep their significant digits: non-zero, one sign
        g_lo, g_hi = (float(g) for g in err.split("gap ")[1].split(" -> "))
        assert 0.0 not in (g_lo, g_hi) and (g_lo > 0) == (g_hi > 0)

    @pytest.mark.parametrize("config", ["lambda = 0", "eta_c = 0",
                                        "eta_conv = 0"])
    def test_no_emission_is_no_crossing(self, capsys, tmp_path, config):
        cfg = tmp_path / "point.cfg"
        cfg.write_text(config + "\n")
        assert_rejected(capsys, ["crossing", "--config", str(cfg)],
                        EXIT_DOMAIN)
        proc = run_cli("crossing", "--json", "--config", str(cfg))
        assert proc.returncode == EXIT_DOMAIN
        assert proc.stdout == ""
        assert proc.stderr.startswith("domain error: no protocol crossing")
        assert "both protocols reach eta = 0" in proc.stderr

    def test_bracket_from_zero_is_rejected(self, capsys):
        assert_rejected(capsys, ["crossing", "--lo", "0", "--hi", "0.5",
                                 "--json"], EXIT_DOMAIN)
        proc = run_cli("crossing", "--lo", "0", "--hi", "0.5", "--json")
        assert proc.returncode == EXIT_DOMAIN
        assert proc.stdout == ""
        assert proc.stderr == ("domain error: need 0 < lo <= hi, "
                               "got [0.0, 0.5]\n")

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

    @pytest.mark.parametrize(
        "workers", [str(photonmux.montecarlo.MAX_WORKERS + 1), "100000"])
    def test_more_than_max_workers_is_domain_error(self, capsys, workers):
        # rejected before any thread starts
        assert_rejected(capsys, ["mc", "--trials", "1000", "--workers",
                                 workers], EXIT_DOMAIN)

    def test_z_score_uses_the_closed_form_spread(self, capsys, tmp_path):
        # at eta = 5.9e-6 three trials see no success for any stream;
        # std_err is 0 but the closed form's binomial spread is not, so the
        # disagreement shows
        cfg = tmp_path / "faint.cfg"
        cfg.write_text("lambda = 1e-6\n")
        code, payload = run_json(capsys, ["mc", "--json", "--config", str(cfg),
                                          "--trials", "3", "--seed", "1"])
        assert code == EXIT_OK
        assert payload["eta_hat"] == 0.0 and payload["std_err"] == 0.0
        eta = payload["analytic_eta"]
        assert eta < 1e-4
        assert payload["z_score"] == pytest.approx(
            -eta / math.sqrt(eta * (1 - eta) / 3))
        assert payload["z_score"] == pytest.approx(-4.22e-3, abs=1e-5)

    def test_z_score_without_spread(self):
        assert _z_score(0.0, 0.0, 10) == 0.0
        assert _z_score(1.0, 1.0, 10) == 0.0
        assert _z_score(0.1, 0.0, 10) is None
        assert _z_score(0.9, 1.0, 10) is None

    def test_undefined_z_score_prints_null_and_n_a(self, capsys,
                                                    monkeypatch):
        class Exact:
            eta_total = 1.0

        monkeypatch.setattr(photonmux.cli, "total_efficiency",
                            lambda *args, **kwargs: Exact)
        code, payload = run_json(capsys, ["mc", "--json", "--trials", "100"])
        assert code == EXIT_OK
        assert payload["z_score"] is None
        assert main(["mc", "--trials", "100"]) == EXIT_OK
        assert "(z = n/a)" in capsys.readouterr().out

    def test_subnormal_lambda_runs_silently(self, tmp_path):
        # the herald probability is subnormal, so the quiet count overflows
        # to +inf: no herald, and no numpy warning on stderr
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("lambda = 1e-310\n")
        proc = run_cli("mc", "--json", "--config", str(cfg),
                       "--trials", "100000")
        assert proc.returncode == EXIT_OK
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["eta_hat"] == 0.0

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
        composed = payload["composed"]
        assert composed["hbs4"] == pytest.approx(3 / 16 * 0.59**4, rel=1e-12)
        assert composed["hbs4"] == pytest.approx(0.0227, abs=5e-4)
        assert composed["post_selected2"] == pytest.approx(0.5 * 0.59**2,
                                                           rel=1e-12)

    def test_composed_numbers_take_eta_per_photon(self, capsys):
        _, payload = run_json(capsys, ["bell", "--json", "--eta", "1.0"])
        assert payload["composed"]["hbs4"] == 0.1875
        _, payload = run_json(capsys, ["bell", "--json", "--eta", "0.27"])
        assert payload["composed"]["post_selected2"] == pytest.approx(
            0.5 * 0.27**2, rel=1e-12)

    @pytest.mark.parametrize("eta", ["1.5", "-0.1", "nan", "inf"])
    def test_eta_outside_unit_interval_exits_domain_error(self, eta):
        proc = run_cli("bell", "--json", "--eta", eta)
        assert proc.returncode == EXIT_DOMAIN
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            f"domain error: eta must be in [0, 1], got {float(eta)}"]

    def test_valid_config_and_flags_leave_the_output_unchanged(self, tmp_path):
        cfg = tmp_path / "bell.cfg"
        cfg.write_text("lambda = 0.3\npair_dist = thermal\ndetection = array\n")
        argv = ("bell", "--json", "--eta", "0.59")
        base = run_cli(*argv)
        assert base.returncode == EXIT_OK
        for extra in (("--config", str(cfg)), ("--d0-excludes-filter",),
                      ("--literal-loss-exponent",)):
            proc = run_cli(*argv, *extra)
            assert (proc.returncode, proc.stdout) == (EXIT_OK, base.stdout)


class TestFig3:
    def test_writes_files(self, capsys, tmp_path):
        out = tmp_path / "fig3"
        code, payload = run_json(capsys, ["fig3", "--json", "--out", str(out)])
        assert code == EXIT_OK
        assert len(payload["written"]) == 4
        assert (out / "fig3a.csv").exists()
        assert (out / "fig3_metadata.json").exists()

    def test_takes_no_seed(self, capsys, tmp_path):
        # fig3 draws no random numbers, so a seed flag would change nothing
        with pytest.raises(SystemExit) as exc:
            main(["fig3", "--out", str(tmp_path), "--seed", "5"])
        assert exc.value.code == 2
        assert not list(tmp_path.iterdir())


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
        (["mc", "--trials", "10000000000"], EXIT_DOMAIN),
    ], ids=["step-zero", "step-negative", "step-below-spacing",
            "n_bins-over-cap", "tol-zero", "tol-negative", "mc-trials-over-cap"])
    def test_rejected_with_one_line(self, argv, code):
        proc = run_cli(*argv)
        assert proc.returncode == code
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1

    def test_config_over_the_size_cap(self, tmp_path):
        cfg = tmp_path / "long.cfg"
        cfg.write_text("#" * MAX_CONFIG_BYTES + "\n")
        proc = run_cli("eval", "--config", str(cfg))
        assert proc.returncode == EXIT_CONFIG
        assert proc.stdout == ""
        assert proc.stderr == (f"configuration error: cannot read config "
                               f"{cfg}: longer than {MAX_CONFIG_BYTES} bytes\n")

    @pytest.mark.skipif(not os.path.exists("/dev/zero"),
                        reason="no /dev/zero")
    def test_endless_config(self):
        # under a 1 GiB address-space limit, so that a read without a cap
        # ends in a MemoryError instead of filling the machine's memory
        script = ("import resource, sys\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                  "sys.argv = ['photonmux', 'eval', '--config', '/dev/zero']\n"
                  "from photonmux import cli\n"
                  "cli.run()\n")
        proc = _fresh_python("-c", script)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stdout == ""
        assert proc.stderr == ("configuration error: cannot read config "
                               f"/dev/zero: longer than {MAX_CONFIG_BYTES} "
                               "bytes\n")

    def test_tol_below_float_spacing_ends_at_a_sign_change(self):
        proc = run_cli("crossing", "--json", "--tol", "1e-300")
        assert proc.returncode == EXIT_OK
        x = json.loads(proc.stdout)["crossing_eta_sw"]
        params = SourceParams()
        gap = protocol_gap(params, x)
        neighbours = (protocol_gap(params, math.nextafter(x, toward))
                      for toward in (0.0, 1.0))
        assert any(gap * g <= 0 for g in neighbours)


class TestNoTraceback:
    """Inputs that once ended in a traceback exit 2 or 3 with one line."""

    @pytest.mark.parametrize("argv,code", [
        (["mc", "--trials", "100", "--seed", "-1"], EXIT_DOMAIN),
        (["fig3", "--out", "{tmp}/file"], EXIT_CONFIG),
        (["fig3", "--out", "{tmp}/file/sub"], EXIT_CONFIG),
        (["eval", "--config", "{tmp}/binary.cfg"], EXIT_CONFIG),
        (["optimize", "--n-min", "5", "--n-max", "3"], EXIT_DOMAIN),
        (["eval", "--json", "--config", "{tmp}/tiny-period.cfg"], EXIT_DOMAIN),
    ], ids=["mc-negative-seed", "fig3-out-is-a-file", "fig3-out-under-a-file",
            "config-not-utf8", "optimize-empty-range",
            "eval-rate-not-finite"])
    def test_rejected_with_one_line(self, tmp_path, argv, code):
        (tmp_path / "file").write_text("")
        (tmp_path / "binary.cfg").write_bytes(b"\xff\xfe")
        (tmp_path / "tiny-period.cfg").write_text("period = 5e-324\n")
        proc = run_cli(*(arg.format(tmp=tmp_path) for arg in argv))
        assert proc.returncode == code
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1


    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", [None, "1"],
                             ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [
        ["eval", "--json"], ["eval"], ["bell", "--json"],
        ["sweep", "--values", "8", "--out", "{tmp}/c.csv"]])
    def test_full_stdout(self, capsys, tmp_path, argv, unbuffered):
        # every write to /dev/full fails with ENOSPC; buffered, the failure
        # shows at the flush, unbuffered at the first write
        with open("/dev/full", "w") as full:
            proc = _fresh_python("-m", "photonmux.cli",
                                 *(arg.format(tmp=tmp_path) for arg in argv),
                                 stdout=full, PYTHONUNBUFFERED=unbuffered)
        assert proc.returncode == 1
        [message] = proc.stderr.splitlines()
        assert message.startswith("output error: cannot write to stdout: ")
        assert "No space left on device" in message
        if "--out" in argv:
            # the handler writes its file before the answer is printed
            assert main(["sweep", "--values", "8", "--out",
                         str(tmp_path / "ref.csv")]) == EXIT_OK
            assert ((tmp_path / "c.csv").read_text()
                    == (tmp_path / "ref.csv").read_text())


class TestEverySubcommand:
    """The flags and the config that all subcommands share."""

    def test_takes_the_shared_flags(self):
        shared = ["--config", "c.cfg", "--json", "--literal-loss-exponent",
                  "--d0-excludes-filter"]
        [subparsers] = [action for action in build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction)]
        for name, sub in subparsers.choices.items():
            required = [text for action in sub._actions if action.required
                        for text in (action.option_strings[0], "x")]
            args = build_parser().parse_args([name, *shared, *required])
            assert (args.config, args.json, args.literal_loss_exponent,
                    args.d0_excludes_filter) == ("c.cfg", True, True, True)

    @pytest.mark.parametrize("text", [None, "nonsense = 1\n",
                                      "n_bins = 8\nn_bins = 8\n"],
                             ids=["missing", "unknown-key", "repeated-key"])
    @pytest.mark.parametrize("argv", [
        ["eval"], ["sweep"], ["optimize"], ["crossing"],
        ["mc", "--trials", "10"], ["bell"], ["fig3", "--out", "{tmp}/out"]],
        ids=lambda argv: argv[0])
    def test_bad_config_exits_config_error(self, capsys, tmp_path, text,
                                           argv):
        # the config is read before the subcommand runs, so fig3 writes
        # nothing
        cfg = tmp_path / "bad.cfg"
        if text is not None:
            cfg.write_text(text)
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert_rejected(capsys, [*argv, "--config", str(cfg)], EXIT_CONFIG)
        assert not (tmp_path / "out").exists()


class TestDepthCap:
    """Depths over MAX_BINS exit 3 at once instead of running for hours."""

    @pytest.mark.parametrize("argv", [
        ["optimize", "--n-max", "1000000000000"],
        ["optimize", "--n-max", str(MAX_BINS + 1)],
        ["optimize", "--n-min", "-1000000000000"],
        ["sweep", "--param", "n_bins", "--values", "8,2000"],
        ["sweep", "--param", "n_bins", "--min", "1",
         "--max", str(MAX_BINS + 1)],
    ], ids=["optimize-huge", "optimize-over-cap", "optimize-n-min-huge",
            "sweep-values", "sweep-grid"])
    def test_rejected_with_one_line(self, argv):
        proc = run_cli(*argv)
        assert proc.returncode == EXIT_DOMAIN
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert str(MAX_BINS) in proc.stderr

    def test_config_n_bins_over_cap(self, tmp_path):
        cfg = tmp_path / "deep.cfg"
        cfg.write_text("n_bins = 100000\n")
        proc = run_cli("eval", "--config", str(cfg))
        assert proc.returncode == EXIT_DOMAIN
        assert len(proc.stderr.splitlines()) == 1


class TestClosedReader:
    @pytest.mark.parametrize("argv", [["eval", "--json"],
                                      ["mc", "--json", "--trials", "1000"]])
    def test_exits_1_with_nothing_on_stderr(self, argv):
        # the pipe's read end is closed before the child starts, so every
        # write to stdout fails with EPIPE
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _fresh_python("-m", "photonmux.cli", *argv,
                                 stdout=write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_BROKEN_PIPE == 1
        assert proc.stderr == ""


class TestColdStart:
    """Importing the package loads no submodule, only ``mc`` loads numpy,
    and only sweep, optimize, crossing and fig3 load ``photonmux.app``."""

    def test_import_does_not_load_numpy(self):
        proc = _fresh_python("-c", "import sys, photonmux.cli; "
                                   "print('numpy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @pytest.mark.parametrize("argv,loads_app", [
        (["eval"], False),
        (["sweep", "--values", "8,16"], True),
        (["optimize", "--n-max", "16"], True),
        (["crossing", "--tol", "0.01"], True),
        (["bell", "--eta", "0.59"], False),
        (["fig3", "--out", "OUT"], True),
    ], ids=["eval", "sweep", "optimize", "crossing", "bell", "fig3"])
    def test_subcommand_does_not_load_numpy(self, argv, loads_app, tmp_path):
        argv = [str(tmp_path) if arg == "OUT" else arg for arg in argv]
        script = ("import contextlib, io, sys\n"
                  "from photonmux import cli\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  f"    code = cli.main({argv!r})\n"
                  "print(code, 'numpy' in sys.modules, "
                  "'photonmux.app' in sys.modules)\n")
        proc = _fresh_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == f"{EXIT_OK} False {loads_app}"

    def test_mc_loads_numpy(self):
        proc = _fresh_python("-c", "import sys; from photonmux import cli; "
                                   "cli.main(['mc', '--trials', '10']); "
                                   "print('numpy' in sys.modules, "
                                   "'photonmux.app' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "True False"

    def test_package_import_loads_no_submodule(self):
        proc = _fresh_python("-c", "import sys, photonmux; print(sorted("
                                   "m for m in sys.modules "
                                   "if m.startswith('photonmux.')))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_monte_carlo_names_still_resolve(self):
        assert photonmux.cli.estimate_eta is photonmux.montecarlo.estimate_eta
        for name in ("sweep", "optimize_bins", "find_crossing", "emit_fig3"):
            assert getattr(photonmux.cli, name) is getattr(photonmux.app, name)
        with pytest.raises(AttributeError, match="no_such_name"):
            photonmux.cli.no_such_name


class TestProcessExit:
    """``python -m photonmux.cli`` ends through ``cli.run``, which skips
    interpreter teardown after ``main`` returns; nothing written is lost."""

    @pytest.mark.parametrize("argv,code,teardown", [
        (["eval", "--json"], EXIT_OK, False),
        (["eval", "--json", "--tol", "1"], 2, True),
        (["--version"], EXIT_OK, True),
    ], ids=["answer", "usage-error", "version"])
    def test_teardown_only_after_system_exit(self, argv, code, teardown):
        # an atexit handler runs at interpreter teardown, so it shows
        # whether the process ended through os._exit or the normal exit
        script = ("import atexit, sys\n"
                  "atexit.register(print, 'teardown', file=sys.stderr)\n"
                  f"sys.argv = ['photonmux', *{argv!r}]\n"
                  "from photonmux import cli\n"
                  "cli.run()\n")
        proc = _fresh_python("-c", script)
        assert proc.returncode == code
        assert ("teardown" in proc.stderr.splitlines()) == teardown

    def test_large_json_is_whole(self, capsys, tmp_path):
        cfg = tmp_path / "deep.cfg"
        cfg.write_text(f"n_bins = {MAX_BINS}\n")
        argv = ["eval", "--json", "--config", str(cfg)]
        proc = run_cli(*argv)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert len(proc.stdout) > 16384  # more than one stdout buffer
        assert main(argv) == EXIT_OK
        assert proc.stdout == capsys.readouterr().out
        assert len(json.loads(proc.stdout)["per_bin_success"]) == MAX_BINS

    def test_usage_error(self):
        proc = run_cli("eval", "--no-such-flag")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: photonmux")
        assert "unrecognized arguments: --no-such-flag" in proc.stderr

    def test_version(self):
        proc = run_cli("--version")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            EXIT_OK, photonmux.__version__ + "\n", "")

    def test_fig3_files_equal_in_process(self, tmp_path):
        proc = run_cli("fig3", "--out", str(tmp_path / "cold"))
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        written = emit_fig3(tmp_path / "warm")
        assert len(written) == 4
        for path in written:
            name = os.path.basename(path)
            assert (tmp_path / "cold" / name).read_bytes() == \
                (tmp_path / "warm" / name).read_bytes(), name

    @pytest.mark.skipif(tomllib is None, reason="tomllib needs Python 3.11")
    def test_console_script_exits_through_run(self):
        with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"photonmux": "photonmux.cli:run"}
        assert callable(photonmux.cli.run)

    @pytest.mark.skipif(tomllib is None, reason="tomllib needs Python 3.11")
    def test_version_is_read_from_the_package(self):
        # the version string is written once, as photonmux.__version__
        with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
            pyproject = tomllib.load(fh)
        assert "version" not in pyproject["project"]
        assert pyproject["project"]["dynamic"] == ["version"]
        assert pyproject["tool"]["setuptools"]["dynamic"] == {
            "version": {"attr": "photonmux.__version__"}}
