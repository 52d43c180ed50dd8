"""The three workloads: how each question is asked, timed and checked.

Every workload is a closed loop with one client: a question is asked only
after the previous answer has been checked.  Only the call into photonmux is
timed; building its inputs and checking its answer are not.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

import numpy as np

from photonmux import app, efficiency, montecarlo
from photonmux.model import (
    Detection,
    DomainError,
    PairDistribution,
    SchemeConfig,
    Selection,
    SourceParams,
    Topology,
)

from . import calibrate, gen, trace

#: |z| above this fails the Monte Carlo oracle check.
Z_LIMIT = 5.0
#: Longest a single CLI invocation may take before it counts as failed.
CLI_TIMEOUT_S = 120
#: Messages kept in a result per kind of failure (all are counted).
KEEP_MESSAGES = 20
#: Expected trial count below which the oracle uses the exact Poisson tail
#: instead of the normal approximation.
NORMAL_MIN_COUNT = 100


class CheckFailed(Exception):
    """An answer did not pass its check."""


def inputs(point: gen.Point):
    """The program's inputs for one generated point: (params, scheme, flags)."""
    detection = Detection(point.detection)
    params = SourceParams.table_defaults(
        detection, lam=point.lam, eta_sw=point.eta_sw, eta_c=point.eta_c,
        alpha_inc=point.alpha_inc, pair_dist=PairDistribution(point.pair_dist))
    scheme = SchemeConfig(
        n_bins=point.n_bins, topology=Topology(point.topology),
        detection=detection, selection=Selection(point.selection),
        allow_mismatched_selection=point.mismatched)
    flags = {"include_filter_in_d0": not point.d0_excludes_filter,
             "literal_exponent": point.literal_exponent}
    return params, scheme, flags


class Ledger:
    """Timings, answers and failures of one pass over the question list."""

    def __init__(self, probe: calibrate.Probe):
        self.probe = probe
        self.times: dict[str, list[float]] = defaultdict(list)
        self.cycle_wall: list[float] = []
        self.kinds: dict[int, str] = {}
        self.kind_times: dict[str, list[float]] = defaultdict(list)
        self.digests: dict[int, tuple] = {}
        self.attempted = 0
        self.failed = 0
        self.expected_failures = 0
        self.messages: list[str] = []
        self.expected_messages: list[str] = []
        self.counts: Counter = Counter()
        self.abs_z: dict[str, list[float]] = defaultdict(list)
        self.extra: dict[str, list[float]] = defaultdict(list)
        self.busy_wall = 0.0
        self.probes: list[float] = []

    def take_probe(self) -> None:
        self.probes.append(self.probe.run())

    def scale(self) -> float:
        """Factor that turns this pass's times into reference-speed times."""
        return self.probe.reference_s / statistics.mean(self.probes)

    def timed(self, key: str, fn, *args, **kwargs):
        """Call ``fn`` and record its wall time under ``key``, also when it
        raises."""
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            wall = perf_counter() - t0
            self.times[key].append(wall)
            self.busy_wall += wall

    def fail(self, qid, message: str) -> None:
        self.failed += 1
        if len(self.messages) < KEEP_MESSAGES:
            self.messages.append(f"q{qid}: {message}")

    def expect(self, qid, message: str) -> None:
        """A failure of a known defect: counted in fail_share, reported,
        and kept out of the failed count."""
        self.expected_failures += 1
        if len(self.expected_messages) < KEEP_MESSAGES:
            self.expected_messages.append(f"q{qid}: {message}")


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _unit_interval(value: float, what: str) -> None:
    _check(math.isfinite(value) and 0.0 <= value <= 1.0,
           f"{what} = {value!r} is not a finite number in [0, 1]")


def _curve(curve, what: str) -> None:
    for x, y in curve.points:
        _unit_interval(y, f"{what} at {x}")
    best_x, eta_max = max(curve.points, key=lambda p: (p[1], -p[0]))
    _check(curve.best_x == best_x and curve.eta_max == eta_max,
           f"{what}: reported maximum {curve.eta_max!r} at {curve.best_x!r} "
           f"is not the curve's argmax {eta_max!r} at {best_x!r}")


class Workload:
    """One workload: answers a question, records its time, checks it."""

    def __init__(self, tmp: str, tracer: trace.Tracer | None = None):
        self.tmp = tmp
        self.tracer = tracer

    def untraced(self):
        """Checks run with the tracer paused, so they add no spans."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.paused()

    def answer(self, q: gen.Question, led: Ledger) -> None:
        """Ask one question, record its time in ``led`` and check it."""
        raise NotImplementedError

    def finish(self, led: Ledger) -> None:
        """Checks made once per run, after the timed questions."""


# --- design --------------------------------------------------------------------


class Design(Workload):
    def __init__(self, tmp, tracer=None):
        super().__init__(tmp, tracer)
        self.first_fig3 = None

    def answer(self, q, led):
        params, scheme, flags = inputs(q.point)
        if q.kind == "eval":
            out = led.timed("eval", efficiency.total_efficiency,
                            params, scheme, **flags)
            _unit_interval(out.eta_total, "eta_total")
            led.digests[q.qid] = (out.eta_total,)
        elif q.kind == "sweep":
            spec = app.SweepSpec(q.sweep_param, q.sweep_values, params, scheme)
            out = led.timed("sweep", app.sweep, spec, **flags)
            _check(len(out.points) == len(q.sweep_values), "sweep length")
            _curve(out, f"sweep of {q.sweep_param}")
            led.digests[q.qid] = tuple(y for _, y in out.points)
        elif q.kind == "optimize":
            out = led.timed("optimize", app.optimize_bins, params, scheme,
                            1, gen.N_MAX, **flags)
            _check(len(out.points) == gen.N_MAX, "optimize curve length")
            _curve(out, "optimize")
            led.digests[q.qid] = (out.best_x, out.eta_max)
        elif q.kind == "crossing":
            self._crossing(q, params, flags, led)
        elif q.kind == "fig3":
            self._fig3(q, params, flags, led)
        else:
            raise ValueError(f"unknown design question kind {q.kind!r}")

    def _crossing(self, q, params, flags, led):
        lo, hi = gen.CROSSING_BRACKET
        tol = gen.CROSSING_TOL
        try:
            value = led.timed("crossing", app.find_crossing,
                              params, lo, hi, tol, **flags)
        except DomainError as exc:
            if "no protocol crossing" not in str(exc):
                raise
            value = None
        led.digests[q.qid] = (value,)
        with self.untraced():
            if value is None:
                # the exit-3 answer: the bracket holds no sign change
                led.counts["no_crossing"] += 1
                g_lo = app.protocol_gap(params, lo, **flags)
                g_hi = app.protocol_gap(params, hi, **flags)
                _check(g_lo * g_hi > 0,
                       f"no crossing reported but gap {g_lo} -> {g_hi}")
            else:
                _check(lo <= value <= hi, f"crossing {value} outside bracket")
                g_a = app.protocol_gap(params, max(lo, value - tol), **flags)
                g_b = app.protocol_gap(params, min(hi, value + tol), **flags)
                _check(g_a * g_b <= 0,
                       f"gap {g_a} -> {g_b} does not change sign within "
                       f"tol of {value}")

    def _fig3(self, q, params, flags, led):
        out_dir = os.path.join(self.tmp, f"fig3-q{q.qid}")
        written = led.timed("fig3", app.emit_fig3, out_dir, params, **flags)
        digest = check_fig3(written)
        led.digests[q.qid] = (digest,)
        if self.first_fig3 is None:
            self.first_fig3 = (q, digest)

    def finish(self, led):
        if self.first_fig3 is None:
            return
        q, digest = self.first_fig3
        params, _, flags = inputs(q.point)
        with self.untraced():
            again = app.emit_fig3(os.path.join(self.tmp, "fig3-repeat"),
                                  params, **flags)
        led.attempted += 1
        if check_fig3(again) != digest:
            led.fail(q.qid, "fig3 files differ between repeats")


def check_fig3(written) -> str:
    """Check the fig3 CSV files; return a digest of all written bytes."""
    _check(len(written) == 4, f"fig3 wrote {len(written)} files")
    h = hashlib.sha256()
    for path in written:
        with open(path, "rb") as fh:
            data = fh.read()
        h.update(data)
        if not path.endswith(".csv"):
            continue
        rows = data.decode().splitlines()[1:]
        _check(len(rows) == gen.N_MAX, f"{path} has {len(rows)} rows")
        for row in rows:
            values = [float(c) for c in row.split(",")[1:]]
            _check(all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values),
                   f"{os.path.basename(path)} row {row!r} out of [0, 1]")
    return h.hexdigest()


# --- mc-oracle -----------------------------------------------------------------


class Oracle(Workload):
    def answer(self, q, led):
        params, scheme, flags = inputs(q.point)
        est = led.timed(f"mc_w{q.workers}", montecarlo.estimate_eta,
                        params, scheme, gen.MC_TRIALS, q.seed,
                        workers=q.workers, **flags)
        exact = led.timed("closed_form", efficiency.total_efficiency,
                          params, scheme, **flags)
        rng = np.random.default_rng(q.seed)
        frames = led.timed(
            "frames", lambda: [montecarlo.run_frame(params, scheme, rng, **flags)
                               for _ in range(gen.FRAME_BATCH)])
        led.digests[q.qid] = (est.eta_hat, est.n_single, est.n_multi,
                              exact.eta_total,
                              tuple((f.selected_bin, f.photons_surviving)
                                    for f in frames))

        _unit_interval(est.eta_hat, "eta_hat")
        _unit_interval(exact.eta_total, "closed-form eta")
        _check(est.n_trials == gen.MC_TRIALS, "trial count")
        for f in frames:
            check_frame(f, scheme)
        z = oracle_z(est.eta_hat, exact.eta_total, est.n_trials)
        led.abs_z[q.point.pair_dist].append(abs(z))
        if abs(z) > Z_LIMIT:
            message = (f"{q.point.pair_dist} oracle z = {z:+.1f} "
                       f"(eta_hat {est.eta_hat:.5f}, closed form "
                       f"{exact.eta_total:.5f})")
            if q.point.pair_dist == "thermal":
                # ROADMAP item 1: the closed form assumes Poisson pairs.
                led.expect(q.qid, message)
            else:
                raise CheckFailed(message)


def oracle_z(eta_hat: float, exact: float, n_trials: int) -> float:
    """Score of the estimate against the closed form.

    With at least ``NORMAL_MIN_COUNT`` expected successes this is the usual
    z with the binomial spread the closed form predicts.  Below that the
    normal approximation overstates rare counts (one success where 0.02 are
    expected would read z = +6.6), so the score is the normal quantile of
    the observed count's one-sided mid-p value under a Poisson law of the
    expected mean.
    """
    mean = exact * n_trials
    if mean >= NORMAL_MIN_COUNT:
        return (eta_hat - exact) / math.sqrt(exact * (1.0 - exact) / n_trials)
    k = round(eta_hat * n_trials)
    if k == mean:
        return 0.0
    if mean == 0.0:
        return math.inf
    point = math.exp(-mean + k * math.log(mean) - math.lgamma(k + 1))
    mid_p = _poisson_tail(k, mean) - 0.5 * point
    if mid_p <= 0.0:
        return math.copysign(math.inf, k - mean)
    z = statistics.NormalDist().inv_cdf(mid_p)
    return -z if k > mean else z


def _poisson_tail(k: int, mean: float) -> float:
    """P(K >= k) for k above ``mean``, P(K <= k) otherwise."""
    log_term = -mean + k * math.log(mean) - math.lgamma(k + 1)
    total, j, step = 0.0, k, 1 if k > mean else -1
    while 0 <= j:
        term = math.exp(log_term)
        total += term
        if term < total * 1e-17:
            break
        if step > 0:
            j += 1
            log_term += math.log(mean / j)
        else:
            log_term -= math.log(mean / j) if j else 0.0
            j -= 1
    return min(total, 1.0)


def check_frame(record, scheme: SchemeConfig) -> None:
    """Structural checks of one simulated frame."""
    bits = record.herald_bits.bits
    _check(len(bits) == scheme.n_bins == len(record.pair_counts),
           "frame length")
    fired = [i + 1 for i, b in enumerate(bits) if b]
    if not fired:
        _check(record.selected_bin is None and record.photons_surviving == 0,
               "idle frame selected a bin")
        return
    want = fired[0] if scheme.selection is Selection.FIRST_PHOTON else fired[-1]
    _check(record.selected_bin == want,
           f"selected bin {record.selected_bin}, expected {want}")
    _check(0 <= record.photons_surviving
           <= record.pair_counts[record.selected_bin - 1],
           "more survivors than pairs")
    outcome = ("vacuum", "single", "multi")[min(record.photons_surviving, 2)]
    _check(record.outcome.value == outcome, "outcome label")


# --- cli -----------------------------------------------------------------------

_BELL = {"herald_probability": Fraction(3, 16), "bell_yield": Fraction(1, 8),
         "two_source_coincidence": Fraction(1, 2)}


class Cli(Workload):
    """Cold ``python -m photonmux.cli`` invocations, one at a time."""

    def __init__(self, tmp, tracer=None, *, root: str):
        super().__init__(tmp, tracer)
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.pop("PYTHONSTARTUP", None)
        self.shim = os.path.join(root, "perfbench", "cli_shim.py")

    def argv(self, q) -> list[str]:
        cfg = write_config(self.tmp, q)
        common = ["--config", cfg, "--json", *q.point.cli_flags()]
        if q.kind == "eval":
            return ["eval", *common]
        if q.kind == "sweep":
            values = ",".join(repr(v) for v in q.sweep_values)
            return ["sweep", *common, "--param", q.sweep_param,
                    "--values", values]
        if q.kind == "optimize":
            return ["optimize", *common, "--n-min", "1",
                    "--n-max", str(gen.N_MAX)]
        if q.kind == "mc":
            return ["mc", *common, "--trials", str(gen.CLI_MC_TRIALS),
                    "--seed", str(q.seed), "--workers", "1"]
        if q.kind == "bell":
            return ["bell", *common, "--eta", repr(q.eta)]
        if q.kind == "crossing":
            lo, hi = gen.CROSSING_BRACKET
            return ["crossing", *common, "--lo", repr(lo), "--hi", repr(hi),
                    "--tol", repr(gen.CROSSING_TOL)]
        raise ValueError(f"unknown cli question kind {q.kind!r}")

    def answer(self, q, led):
        argv = self.argv(q)
        traced = self.tracer is not None and self.tracer.active
        if traced:
            span_file = os.path.join(self.tmp, f"spans-q{q.qid}.json")
            cmd = [sys.executable, self.shim, span_file, *argv]
        else:
            cmd = [sys.executable, "-m", "photonmux.cli", *argv]
        proc = led.timed("cli", subprocess.run, cmd, capture_output=True,
                         text=True, env=self.env, cwd=self.root,
                         timeout=CLI_TIMEOUT_S, check=False)
        wall = led.times["cli"][-1]
        led.times[f"cli_{q.kind}"].append(wall)
        if traced:
            self._adopt_spans(q, span_file, wall, led)
        self._check(q, proc, led)

    def _adopt_spans(self, q, span_file, wall, led):
        with open(span_file) as fh:
            shim = json.load(fh)
        self.tracer.spans.extend(trace.adopt(shim["spans"], q.qid,
                                             (q.qid + 1) * 10**7))
        led.extra["import_ms"].append(shim["import_ms"])
        led.extra[f"main.{q.kind}_ms"].append(shim["main_ms"])
        led.extra["interp_ms"].append(
            wall * 1e3 - shim["import_ms"] - shim["main_ms"])

    def _check(self, q, proc, led):
        if q.kind == "crossing" and proc.returncode == 3:
            _check("no protocol crossing" in proc.stderr,
                   f"crossing exit 3 without the no-crossing message: "
                   f"{proc.stderr.strip()!r}")
            led.counts["no_crossing"] += 1
            led.digests[q.qid] = ("exit-3",)
            return
        _check(proc.returncode == 0,
               f"{q.kind} exit {proc.returncode}: {proc.stderr.strip()[-300:]!r}")
        try:
            out = json.loads(proc.stdout)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"{q.kind} printed no JSON: {exc}") from exc
        led.digests[q.qid] = (json.dumps(out, sort_keys=True),)
        if q.kind == "eval":
            params, scheme, flags = inputs(q.point)
            with self.untraced():
                want = efficiency.total_efficiency(params, scheme, **flags)
            _check(_close(out["eta_total"], want.eta_total, 1e-12),
                   f"cli eval {out['eta_total']!r} != in-process "
                   f"{want.eta_total!r}")
        elif q.kind == "sweep":
            _check(len(out["points"]) == len(q.sweep_values), "sweep length")
            for x, y in out["points"]:
                _unit_interval(y, f"sweep point {x}")
        elif q.kind == "optimize":
            _check(1 <= out["best_n"] <= gen.N_MAX, "best_n range")
            _unit_interval(out["eta_max"], "eta_max")
        elif q.kind == "mc":
            _check(out["n_trials"] == gen.CLI_MC_TRIALS, "trial count")
            _unit_interval(out["eta_hat"], "eta_hat")
            z = oracle_z(out["eta_hat"], out["analytic_eta"], out["n_trials"])
            led.abs_z[q.point.pair_dist].append(abs(z))
        elif q.kind == "bell":
            for key, want in _BELL.items():
                _check(abs(out[key] - float(want)) <= 1e-12,
                       f"bell {key} = {out[key]!r}, expected {want}")
            hbs = float(_BELL["herald_probability"]) * q.eta**4
            _check(_close(out["composed"]["hbs4"], hbs, 1e-12),
                   "composed hbs4 success")
        elif q.kind == "crossing":
            lo, hi = gen.CROSSING_BRACKET
            _check(lo <= out["crossing_eta_sw"] <= hi,
                   "crossing outside bracket")


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def write_config(tmp: str, q: gen.Question) -> str:
    path = os.path.join(tmp, f"q{q.qid}.cfg")
    with open(path, "w") as fh:
        fh.write(q.point.config_text())
    return path


def build_inputs(workload: str, questions, tmp: str) -> None:
    """What a workload prepares before its first question."""
    for q in questions:
        if workload == "cli":
            write_config(tmp, q)
        else:
            inputs(q.point)


def make(workload: str, tmp: str, root: str,
         tracer: trace.Tracer | None = None) -> Workload:
    if workload == "design":
        return Design(tmp, tracer)
    if workload == "mc-oracle":
        return Oracle(tmp, tracer)
    if workload == "cli":
        return Cli(tmp, tracer, root=root)
    raise ValueError(f"unknown workload {workload!r}")
