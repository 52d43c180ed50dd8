"""Machine-speed probes.

The host this benchmark was defined on changes speed by tens of percent over
tens of seconds (other tenants share its cores), far more than the bounds a
regression check needs.  A run therefore times a fixed, photonmux-free probe
at regular intervals between questions, and reports its timings scaled to a
reference machine speed:

    reported = measured * probe.reference_s / median(probe times of the run)

so a run made while the host is slow and one made while it is fast report the
same figure for the same code.  The probe does work of the same nature as
the workload's: interpreted Python for the in-process workloads, a fresh
interpreter importing numpy for the cli workload and for set-up.  Unscaled
figures are kept in the saved result.
"""
from __future__ import annotations

import math
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class _Sum:
    total: float
    parts: tuple


def _survive(i: int, t: float) -> float:
    return i * (1.0 - t) ** (i - 1) * t


def _series_sum(n: int, lam: float) -> _Sum:
    terms = tuple(math.exp(-lam + i * math.log(lam) - math.lgamma(i + 1))
                  for i in range(1, 12))
    parts = tuple(
        sum(h * _survive(i, 0.5 * 0.99 ** (n - r))
            for i, h in enumerate(terms, start=1)) * 0.9 ** (r - 1)
        for r in range(1, n + 1))
    return _Sum(math.fsum(parts), parts)


def _python_kernel() -> float:
    # A per-bin series sum built from generators, tuples and a frozen
    # dataclass: the allocation and call pattern of photonmux's closed forms,
    # which slows with the host the same way they do.  A plain arithmetic
    # loop does not track them.
    return sum(_series_sum(32 + k, 0.1 + 0.01 * k).total for k in range(40))


def _process_kernel(root: str) -> None:
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=root,
                   capture_output=True, check=True, timeout=60)


@dataclass(frozen=True)
class Probe:
    name: str
    #: Median probe time on the machine the benchmark was defined on (2-core
    #: x86-64 virtual machine, Python 3.11.7, numpy 2.4.6), so that scaled
    #: figures read as seconds on that machine.
    reference_s: float
    #: Seconds between two probes during a run.
    every_s: float
    root: str = ""

    def run(self) -> float:
        """Seconds the probe takes now."""
        t0 = perf_counter()
        if self.name == "process":
            _process_kernel(self.root)
        else:
            _python_kernel()
        return perf_counter() - t0


def python_probe() -> Probe:
    return Probe("python", reference_s=0.010, every_s=0.25)


def process_probe(root: str) -> Probe:
    return Probe("process", reference_s=0.19, every_s=1.0, root=root)


def for_workload(workload: str, root: str) -> Probe:
    return process_probe(root) if workload == "cli" else python_probe()
