"""Span tracer for the traced benchmark run.

The tracer rebinds each traced public name at the place its callers look it
up (``photonmux.app.total_efficiency``, ``photonmux.montecarlo.select_last``,
...) to a wrapper that records one span per call: id, parent span, name,
start, end, question id and the work the call was given (bins for
``total_efficiency``, trials for ``estimate_eta``).  Spans stay in memory and
are written out when the run ends.  Nothing under ``src/`` is changed; the
wrappers are removed by :meth:`Tracer.uninstall`.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import statistics
import threading
from collections import defaultdict
from time import perf_counter


def _bins(args, kwargs) -> int:
    return args[1].n_bins


def _trials(args, kwargs) -> int:
    return args[2]


#: (module, attribute, span name, work counter) for every binding of a traced
#: public name.  The same function is bound in several modules because
#: ``from .x import f`` copies the name into the importing module.
TARGETS = (
    ("photonmux.efficiency", "total_efficiency", "total_efficiency", _bins),
    ("photonmux.app", "total_efficiency", "total_efficiency", _bins),
    ("photonmux.cli", "total_efficiency", "total_efficiency", _bins),
    ("photonmux.efficiency", "avg_linear_transmission",
     "avg_linear_transmission", None),
    ("photonmux.app", "avg_linear_transmission",
     "avg_linear_transmission", None),
    ("photonmux.app", "sweep", "sweep", None),
    ("photonmux.cli", "sweep", "sweep", None),
    ("photonmux.app", "optimize_bins", "optimize_bins", None),
    ("photonmux.cli", "optimize_bins", "optimize_bins", None),
    ("photonmux.app", "protocol_gap", "protocol_gap", None),
    ("photonmux.app", "find_crossing", "find_crossing", None),
    ("photonmux.cli", "find_crossing", "find_crossing", None),
    ("photonmux.app", "emit_fig3", "emit_fig3", None),
    ("photonmux.cli", "emit_fig3", "emit_fig3", None),
    ("photonmux.montecarlo", "estimate_eta", "estimate_eta", _trials),
    ("photonmux.cli", "estimate_eta", "estimate_eta", _trials),
    ("photonmux.montecarlo", "run_frame", "run_frame", None),
    ("photonmux.montecarlo", "pair_pmf_array", "pair_pmf_array", None),
    ("photonmux.montecarlo", "select_first", "select_first", None),
    ("photonmux.montecarlo", "select_last", "select_last", None),
    ("photonmux.bell", "hbs_enumeration", "hbs_enumeration", None),
    ("photonmux.bell", "two_source_enumeration",
     "two_source_enumeration", None),
)

#: Layer (package module) that owns each span name.
LAYER_OF = {
    "total_efficiency": "efficiency",
    "avg_linear_transmission": "efficiency",
    "sweep": "app",
    "optimize_bins": "app",
    "protocol_gap": "app",
    "find_crossing": "app",
    "emit_fig3": "app",
    "estimate_eta": "montecarlo",
    "run_frame": "montecarlo",
    "pair_pmf_array": "model",
    "select_first": "control",
    "select_last": "control",
    "hbs_enumeration": "bell",
    "two_source_enumeration": "bell",
}
LAYERS = ("efficiency", "app", "montecarlo", "model", "control", "bell")

# Span tuple fields.
SID, PARENT, NAME, START, END, QUESTION, WORK = range(7)


class Tracer:
    """Records spans around the traced names while :attr:`active`."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.question = None
        self.active = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._saved: list = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            # A worker thread's first span belongs to the main thread's
            # innermost open span (estimate_eta's chunk threads).
            parent = (stack[-1] if stack
                      else self._main_stack[-1] if self._main_stack else 0)
            sid = next(self._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, start, end, self.question,
                                   work(args, kwargs) if work else 0))
        return traced

    def install(self) -> None:
        for module_name, attr, name, work in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, work))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside this block record no spans."""
        was = self.active
        self.active = False
        try:
            yield
        finally:
            self.active = was

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def adopt(spans, question, id_offset: int) -> list[tuple]:
    """Spans recorded in another process, renumbered by ``id_offset`` and
    assigned to ``question``."""
    return [(sid + id_offset, parent + id_offset if parent else 0,
             name, start, end, question, work)
            for sid, parent, name, start, end, _, work in spans]


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT]:
            children[s[PARENT]].append((s[START], s[END]))
    return [(s[END] - s[START])
            - _covered(children.get(s[SID], ()), s[START], s[END])
            for s in spans]


def summarize(spans) -> dict:
    """Per span name: calls, summed self time (ms), median duration (us) and
    summed work."""
    selfs = self_times(spans)
    by_name: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0,
                                         "durations": [], "work": 0})
    for span, self_s in zip(spans, selfs):
        entry = by_name[span[NAME]]
        entry["calls"] += 1
        entry["self_s"] += self_s
        entry["durations"].append(span[END] - span[START])
        entry["work"] += span[WORK]
    return {
        name: {
            "calls": e["calls"],
            "self_ms": e["self_s"] * 1e3,
            "p50_us": statistics.median(e["durations"]) * 1e6,
            "work": e["work"],
        }
        for name, e in by_name.items()}
