"""Reach audit: every function of ``src/photonmux`` serves an answer.

Runs each subcommand through :func:`photonmux.cli.main` on each of five
configs, plus three error runs, under a profile hook in this thread and in
every thread the runs start (so that ``mc``'s worker threads count).  Each
run takes one of three output and reading variants (plain, ``--json``, both
reading flags), in turn, so that every pair of subcommand, config and
variant occurs; the full product of the three (123 runs) reached the same
definitions when this audit was written, at three times the cost.  Every ``def`` of the package is then either
reached, or named in :data:`ALLOWED` with what reaches it instead.  A new
function that only unit tests call fails here by name, and so does a listed
one that the runs come to reach.
"""
import ast
import contextlib
import io
import pathlib
import sys
import threading
from collections import Counter

import pytest

# the modules that cli loads on demand, loaded before any hook as an
# earlier test may have loaded them, so that no run counts import-time calls
from photonmux import app, bell, cli, montecarlo  # noqa: F401

SRC = pathlib.Path(cli.__file__).parent

#: Each definition no run reaches, with what does.
ALLOWED = {
    "cli.__getattr__": "perfbench's tracer resolves cli.estimate_eta and "
                       "the app names through it",
    "cli._detach_stdout": "the console script, when stdout fails",
    "cli.run": "the console script and python -m photonmux.cli",
    "control.HeraldFrame.__post_init__": "perfbench's run_frame batch",
    "control.HeraldFrame.from_string": "the acceptance tests' frames",
    "control._stage_clocks": "the acceptance tests' schedule",
    "control.phase_schedule": "the acceptance tests' schedule",
    "control.select_first": "perfbench's run_frame batch",
    "control.select_last": "perfbench's run_frame batch",
    "model.field_kinds": "import time only (config.KEYS); then its cache",
    "model.pair_count_distribution": "the acceptance tests' pair law",
    "model.sample_pairs": "perfbench's run_frame batch",
    "montecarlo._as_rng": "perfbench's run_frame batch",
    "montecarlo.run_frame": "perfbench's run_frame batch",
}

#: The five configs of the audit, by name (None: the defaults).
CONFIGS = {
    "default": None,
    "array": "detection = array\n",
    "thermal": "pair_dist = thermal\nlambda = 0.8\n",
    "single-line": "topology = single-line\n",
    "mismatched": ("detection = array\nselection = first\n"
                   "allow_mismatched_selection = yes\n"),
}
VARIANTS = ((), ("--json",),
            ("--d0-excludes-filter", "--literal-loss-exponent"))


def _commands(out: str):
    """Each subcommand's arguments, sweep and fig3 writing beside ``out``.
    crossing's coarse tolerance (one bisection step) and a small mc trial
    count keep the audit fast; they reach the same functions as the
    defaults."""
    return (["eval"], ["sweep", "--out", f"{out}-sweep.csv"], ["optimize"],
            ["crossing", "--tol", "0.1"], ["mc", "--trials", "1000"],
            ["mc", "--trials", "1000", "--workers", "2"],
            ["bell", "--eta", "0.5"], ["fig3", "--out", f"{out}-fig3"])


def _definitions() -> dict[str, tuple[str, int]]:
    """``module.qualified_name`` of every ``def`` under ``SRC``, with the
    (file, first line) its code object carries."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                first = min([child.lineno] + [d.lineno for d in
                                              child.decorator_list])
                found[prefix + child.name] = (str(path), first)
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, f"{path.stem}.")
    return found


def _reached(runs) -> tuple[set, Counter]:
    """(file, first line) of every package function entered while ``runs``
    are passed to ``cli.main``, and the count of each exit code."""
    codes_seen = set()
    add = codes_seen.add

    def hook(frame, event, arg):
        if event == "call":
            add(frame.f_code)

    exits = Counter()
    old = sys.getprofile(), threading.getprofile()
    sink = io.StringIO()
    try:
        threading.setprofile(hook)
        sys.setprofile(hook)
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            for argv in runs:
                exits[cli.main(argv)] += 1
    finally:
        sys.setprofile(old[0])
        threading.setprofile(old[1])
    return {(c.co_filename, c.co_firstlineno) for c in codes_seen}, exits


@pytest.fixture(scope="module")
def audit(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("reach")
    runs = []
    for i, (name, text) in enumerate(CONFIGS.items()):
        config = []
        if text is not None:
            (tmp / f"{name}.cfg").write_text(text)
            config = ["--config", str(tmp / f"{name}.cfg")]
        for j, command in enumerate(_commands(str(tmp / name))):
            runs.append(command + config + list(VARIANTS[(i + j) % 3]))
    (tmp / "unknown.cfg").write_text("colour = blue\n")
    (tmp / "deep.cfg").write_text("n_bins = 2000\n")
    runs += [["eval", "--config", str(tmp / "unknown.cfg")],
             ["eval", "--config", str(tmp / "deep.cfg")],
             ["sweep", "--param", "period", "--values", "1"]]
    return _reached(runs)


def test_every_run_exits_as_expected(audit):
    _, exits = audit
    # the thermal source has no protocol crossing in crossing's default
    # bracket, so its crossing run exits 3 beside the deep config
    assert exits == {cli.EXIT_OK: 39, cli.EXIT_DOMAIN: 2, cli.EXIT_CONFIG: 2}


def test_unreached_definitions_are_the_allowed_ones(audit):
    seen, _ = audit
    unreached = {name for name, where in _definitions().items()
                 if where not in seen}
    extra = sorted(unreached - ALLOWED.keys())
    assert not extra, f"no run reaches {extra}"
    reached = sorted(ALLOWED.keys() - unreached)
    assert not reached, f"runs reach {reached}; take them out of ALLOWED"
