"""The benchmark's design reference answers (``perfbench/reference.json``)
must still come out of the closed forms, so a change that moves a recorded
answer fails here as well as in a benchmark run.  The benchmark's files are
only read.
"""
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.append(ROOT)

from perfbench import reference  # noqa: E402


def test_design_reference_answers_still_hold(tmp_path):
    results = list(reference.check(str(tmp_path)))
    assert len(results) == 35
    assert [(qid, msg) for qid, msg in results if msg] == []
