"""The benchmark's tracer (``perfbench/trace.py``) rebinds photonmux names
by module and attribute, so a rename under ``src/`` that drops one of them
breaks ``python3 perfbench/run.py --trace 1``.  The tracer is only read here.
"""
import importlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.append(ROOT)

from perfbench.trace import TARGETS  # noqa: E402


def test_every_traced_name_resolves():
    missing = [(module, attr) for module, attr, *_ in TARGETS
               if not callable(getattr(importlib.import_module(module), attr,
                                       None))]
    assert missing == []
