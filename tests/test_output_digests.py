"""The command line's output bytes, pinned across commits.

``cli_output_digests.json`` holds the SHA-256 digest of (exit code,
stdout, stderr) of in-process ``cli.main`` runs of ``eval``, ``sweep``,
``optimize``, ``crossing`` and ``bell``, each as text and as ``--json``,
and of the four files that ``fig3`` writes.  Each command runs on the
default configuration and on a thermal, detector-array, single-line,
N = 63 configuration with both reading flags.  A change that moves one
byte of one answer, exit code or message fails here.  ``mc`` is left out:
its sampler goes through ``np.log``, whose last bit may differ between
CPUs.  Re-record only at a commit whose outputs are known to be right:
``PYTHONPATH=src python tests/test_output_digests.py``, which prints each
case whose digest it changes before it rewrites the file.
"""
import contextlib
import hashlib
import io
import json
import os
import tempfile

import pytest

from photonmux import cli

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "cli_output_digests.json")

#: Configuration text (None: the built-in default) and the flags that go
#: with it.
CONFIGS = {
    "default": (None, []),
    "thermal-array-singleline-63-readings": (
        "lambda = 0.4\npair_dist = thermal\ndetection = array\n"
        "topology = single-line\nn_bins = 63\n",
        ["--literal-loss-exponent", "--d0-excludes-filter"]),
}

COMMANDS = {
    "eval": ["eval"],
    "sweep-eta_sw": ["sweep", "--param", "eta_sw",
                     "--values", "0.8,0.87,0.9,0.95,0.98,1.0"],
    "sweep-n_bins": ["sweep"],
    "optimize": ["optimize"],
    "crossing": ["crossing"],
    "bell": ["bell", "--eta", "0.59"],
}

FIG3_FILES = ("fig3a.csv", "fig3b.csv", "fig3c.csv", "fig3_metadata.json")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _with_config(text, flags, tmp_dir) -> list[str]:
    if text is None:
        return list(flags)
    path = os.path.join(tmp_dir, "design.cfg")
    with open(path, "w") as fh:
        fh.write(text)
    return ["--config", path, *flags]


def _command_digest(config: str, command: str, as_json: bool) -> str:
    text, flags = CONFIGS[config]
    with tempfile.TemporaryDirectory() as tmp_dir:
        argv = COMMANDS[command] + _with_config(text, flags, tmp_dir)
        if as_json:
            argv.append("--json")
        code, out, err = _run(argv)
    return _sha256(json.dumps([code, out, err]).encode())


def _fig3_digest(config: str, name: str) -> str:
    text, flags = CONFIGS[config]
    with tempfile.TemporaryDirectory() as tmp_dir:
        out_dir = os.path.join(tmp_dir, "fig3")
        code, _, err = _run(["fig3", "--out", out_dir]
                            + _with_config(text, flags, tmp_dir))
        assert (code, err) == (0, "")
        with open(os.path.join(out_dir, name), "rb") as fh:
            return _sha256(fh.read())


CASES = {
    **{f"{config}/{command}/{'json' if as_json else 'text'}":
       (_command_digest, config, command, as_json)
       for config in CONFIGS for command in COMMANDS
       for as_json in (False, True)},
    **{f"{config}/fig3/{name}": (_fig3_digest, config, name)
       for config in CONFIGS for name in FIG3_FILES},
}


@pytest.fixture(scope="module")
def recorded() -> dict:
    with open(PATH) as fh:
        return json.load(fh)


def test_every_case_is_recorded(recorded):
    assert sorted(recorded) == sorted(CASES)


@pytest.mark.parametrize("key", list(CASES))
def test_output_keeps_its_bytes(key, recorded):
    digest, *args = CASES[key]
    assert digest(*args) == recorded[key]


if __name__ == "__main__":
    try:
        with open(PATH) as fh:
            old = json.load(fh)
    except FileNotFoundError:
        old = {}
    new = {key: digest(*args) for key, (digest, *args) in CASES.items()}
    for key in sorted(old.keys() | new.keys()):
        if old.get(key) != new.get(key):
            print(key)
    with open(PATH, "w") as fh:
        json.dump(new, fh, indent=1, sort_keys=True)
        fh.write("\n")
