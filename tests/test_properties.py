"""Property tests of the input boundary: configuration text, sweep input and
whole command lines.

The parser tests never evaluate a generated ``n_bins``, because a large N
makes a single evaluation arbitrarily slow; the command-line test caps every
evaluation it can reach (see its docstring).
"""
import argparse
import contextlib
import io
import json
import os
import tempfile

from hypothesis import example, given, settings, strategies as st

from photonmux.app import MAX_SWEEP_POINTS, SWEEPABLE, sweep_values
from photonmux.config import (
    _PARAM_KEYS,
    _SCHEME_KEYS,
    ConfigError,
    parse_config,
)
from photonmux.cli import build_parser, main
from photonmux.model import DomainError

BOUNDARY = settings(deadline=None, derandomize=True, database=None)

KEYS = sorted(_PARAM_KEYS) + sorted(_SCHEME_KEYS)
NUMBER_TEXT = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", " ", "nan", "-inf", "1e400", "0x10", "1_000", "true",
                     "binary", "single-line", "array", "first", "last",
                     "thermal", "poisson"]),
    st.text(max_size=12),
)
CONFIG_LINE = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(KEYS), NUMBER_TEXT),
    st.text(max_size=40),
)
PARAMETER = st.one_of(st.sampled_from(sorted(SWEEPABLE)), st.text())
BOUND = st.one_of(st.none(), st.floats(), st.integers(-200, 200).map(float))


@BOUNDARY
@given(st.one_of(st.text(), st.lists(CONFIG_LINE, max_size=8)
                 .map("\n".join)))
def test_parse_config_raises_only_boundary_errors(text):
    try:
        parse_config(text)
    except (ConfigError, DomainError):
        pass


def _bounded_or_rejected(*args):
    try:
        points = sweep_values(*args)
    except (ConfigError, DomainError):
        return ()
    assert len(points) <= MAX_SWEEP_POINTS
    return points


@BOUNDARY
@given(PARAMETER, st.one_of(st.text(), st.lists(NUMBER_TEXT, min_size=1,
                                               max_size=6).map(",".join)))
def test_sweep_values_text_is_bounded_or_rejected(parameter, values):
    _bounded_or_rejected(parameter, values)


@settings(BOUNDARY, max_examples=500)
@given(PARAMETER, BOUND, BOUND, BOUND)
def test_sweep_grid_is_bounded_or_rejected(parameter, lo, hi, step):
    points = _bounded_or_rejected(parameter, None, lo, hi, step)
    assert hi is None or all(x <= hi for x in points)


# --- whole command lines -------------------------------------------------------

#: Flag text with no digit, so no generated text parses as a count, a depth
#: or a bound beyond the caps of ``test_cli_exits_0_2_or_3``.
FLAG_TEXT = st.text(max_size=12).filter(
    lambda text: not any(c.isdigit() for c in text))
EDGE_NUMBER = st.sampled_from(["-1", "0", "nan", "inf", "-inf", "1e400"])
#: Under the example's temporary directory, which holds the regular file
#: ``file`` and the configuration file ``config.cfg``.
OUT_PATH = st.lists(st.sampled_from(["out", "file", "."]), max_size=3).map(
    lambda parts: os.path.join("{tmp}", *parts))
CLI_CONFIG_LINE = st.one_of(
    CONFIG_LINE.filter(lambda line: "n_bins" not in line),
    st.integers(-1, 64).map("n_bins = {}".format))
CONFIG_BYTES = st.one_of(
    st.lists(CLI_CONFIG_LINE, max_size=8).map("\n".join).map(str.encode),
    st.binary(max_size=8))
GRID_BOUND = st.integers(0, 7).map(lambda k: repr(k / 2))
SWEEP_ITEM = st.sampled_from(["1", "2", "8", "31", "64", "0.1", "0.5",
                              "0.87", "0.99"])


def _flag(valid):
    """A small valid value (half the time), text that is not a number, or
    an edge number."""
    return st.one_of(valid, st.one_of(FLAG_TEXT, EDGE_NUMBER))


def _count(lo, hi):
    return _flag(st.integers(lo, hi).map(str))


def _choice(*values):
    return _flag(st.sampled_from(values))


#: (required, optional) flags per subcommand; ``sweep-values`` is ``sweep``
#: given ``--values`` in place of a grid.  A required flag is one whose
#: default would exceed a cap (N = 128, a million trials).
SUBCOMMAND_FLAGS = {
    "eval": ({}, {}),
    "sweep": ({"--max": _flag(GRID_BOUND)},
              {"--param": _flag(st.sampled_from(sorted(SWEEPABLE))),
               "--min": _flag(GRID_BOUND), "--step": _choice("0.5", "1"),
               "--out": OUT_PATH}),
    "sweep-values": ({"--values": _flag(st.lists(SWEEP_ITEM, min_size=1,
                                                 max_size=8).map(",".join))},
                     {"--param": _flag(st.sampled_from(sorted(SWEEPABLE))),
                      "--out": OUT_PATH}),
    "optimize": ({"--n-max": _count(1, 64)}, {"--n-min": _count(1, 64)}),
    "crossing": ({}, {"--lo": _choice("0.85", "0.9", "0.95", "0.99"),
                      "--hi": _choice("0.85", "0.9", "0.95", "0.99"),
                      "--tol": _choice("0.001", "0.01", "0.1")}),
    "mc": ({"--trials": _count(1, 2000)},
           {"--seed": _count(0, 2**32), "--workers": _count(1, 2)}),
    "bell": ({}, {"--eta": _flag(st.floats(0, 1).map(repr))}),
    "fig3": ({"--out": OUT_PATH}, {}),
}
SWITCHES = ("--json", "--literal-loss-exponent", "--d0-excludes-filter")


@st.composite
def cli_argv(draw):
    name = draw(st.sampled_from(sorted(SUBCOMMAND_FLAGS)))
    required, optional = SUBCOMMAND_FLAGS[name]
    argv = [name.split("-")[0]]
    for flag, value in required.items():
        argv += [flag, draw(value)]
    for flag, value in optional.items():
        if draw(st.booleans()):
            argv += [flag, draw(value)]
    argv += [s for s in SWITCHES if draw(st.booleans())]
    if draw(st.booleans()):
        argv += ["--config", draw(st.one_of(
            st.just("{tmp}/config.cfg"),
            st.sampled_from(["{tmp}/absent.cfg", "{tmp}"])))]
    return argv


@settings(BOUNDARY, max_examples=200)
@given(cli_argv(), CONFIG_BYTES)
@example(["mc", "--trials", "100", "--seed", "-1"], b"")
@example(["fig3", "--out", "{tmp}/file"], b"")
@example(["fig3", "--out", "{tmp}/file/sub"], b"")
@example(["eval", "--config", "{tmp}/config.cfg"], b"\xff\xfe")
@example(["eval", "--json", "--config", "{tmp}/config.cfg"], b"period = 5e-324\n")
def test_cli_exits_0_2_or_3(argv, config):
    """``cli.main`` on any generated command line returns 0, 2 or 3 (an
    argparse rejection, ``SystemExit(2)``, counts as 2) and raises nothing
    else; on exit 0 with ``--json`` its output is strict JSON, with no NaN
    or infinity.  Every evaluation is capped so that the test stays fast:
    at most 2,000 trials, N <= 64 (in a config, a sweep or an optimize
    range), at most 8 sweep points and ``--tol`` >= 1e-3; flag text holds
    no digit, so it cannot lift a cap."""
    with tempfile.TemporaryDirectory() as tmp:
        open(os.path.join(tmp, "file"), "w").close()
        with open(os.path.join(tmp, "config.cfg"), "wb") as fh:
            fh.write(config)
        argv = [arg.replace("{tmp}", tmp) for arg in argv]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 2, 3)
    if code == 0 and "--json" in argv:
        json.loads(stdout.getvalue(), parse_constant=_reject_non_finite)


def test_fuzz_covers_every_subcommand():
    """``SUBCOMMAND_FLAGS`` names each subcommand of the parser, so that
    none can skip :func:`test_cli_exits_0_2_or_3`."""
    [sub] = [action for action in build_parser()._actions
             if isinstance(action, argparse._SubParsersAction)]
    assert set(SUBCOMMAND_FLAGS) - {"sweep-values"} == set(sub.choices)


def _reject_non_finite(name):
    raise AssertionError(f"--json output holds {name}, which is not JSON")
