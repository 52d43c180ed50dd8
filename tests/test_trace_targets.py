"""The benchmark's tracer (``perfbench/trace.py``) rebinds photonmux names
by module and attribute, so a rename under ``src/`` that drops one of them
breaks ``python3 perfbench/run.py --trace 1``.  The tracer is only read here.
"""
import importlib
import inspect
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


def test_work_counters_read_the_argument_they_name():
    # _trials reads positional argument 2 and _bins reads argument 1's
    # n_bins; a reordered signature would make them count something else
    from perfbench.trace import _bins, _trials

    reads = {_trials: (2, "n_trials"), _bins: (1, "scheme")}
    wrong = []
    for module, attr, _, work in TARGETS:
        if work is None:
            continue
        position, name = reads[work]
        fn = getattr(importlib.import_module(module), attr)
        param = list(inspect.signature(fn).parameters.values())[position]
        if param.name != name or param.kind is not param.POSITIONAL_OR_KEYWORD:
            wrong.append((module, attr, param.name))
    assert wrong == []
