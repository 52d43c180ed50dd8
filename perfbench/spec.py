"""What the benchmark measures: workloads, metrics, bounds and the expected
links between per-layer and end-to-end metrics.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/spec.py``); a self-test keeps the two in step.
"""
from __future__ import annotations

import json
import os

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

#: name -> why this workload is in the benchmark
WORKLOADS = {
    "design": "warm in-process eval, sweep, optimize, crossing and fig3 "
              "questions; efficiency and app do the work, montecarlo, bell "
              "and cli none",
    "mc-oracle": "warm in-process Monte Carlo checks (1M-trial estimate_eta "
                 "at 1 and 2 workers, closed form, run_frame batch); "
                 "montecarlo, model and control work",
    "cli": "cold python -m photonmux.cli runs of eval, sweep, optimize, mc, "
           "bell and crossing; start-up, import and config parsing dominate",
}

#: Metrics every workload reports with tracing off, and their bounds:
#: (name, unit, better, bound as a share of the parent's median).  Times get
#: 0.25: after scaling to the reference speed (calibrate.py), runs of the
#: same code still differ by 5-10% on the 2-core host the benchmark was
#: defined on.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("cycle_s", "s", "lower", 0.25),
)

#: Per-kind figures each workload reports beside the end-to-end metrics
#: (name, unit, better, bound).  The compare step applies these bounds; they
#: are not in BENCHMARK.json because each exists on one workload only.
REPORTED = {
    "design": (
        ("eval_ms_p50", "ms", "lower", 0.25),
        ("sweep_ms_p50", "ms", "lower", 0.25),
        ("optimize_ms_p50", "ms", "lower", 0.25),
        ("optimize_ms_tail", "ms", "lower", 0.25),
        ("crossing_s_p50", "s", "lower", 0.25),
        ("fig3_s_p50", "s", "lower", 0.25),
    ),
    "mc-oracle": (
        ("mc_trials_per_s_w1", "1/s", "higher", 0.25),
        ("mc_trials_per_s_w2", "1/s", "higher", 0.25),
        ("frames_per_s", "1/s", "higher", 0.25),
    ),
    "cli": (
        ("cli_s_p50", "s", "lower", 0.25),
        ("cli_s_tail", "s", "lower", 0.25),
    ),
}
#: Reported by every workload.  On design and cli any rise from 0 is a
#: regression; on mc-oracle the share of thermal points that fail varies
#: with the seed.
REPORTED_ALL = (("fail_share", "share", "lower", 0.25),)

_DESIGN_TIMES = ("eval_ms_p50, sweep_ms_p50, optimize_ms_*, crossing_s_p50, "
                 "fig3_s_p50 and cycle_s on design; no change on mc-oracle")
_MC = "mc_trials_per_s_* and cycle_s on mc-oracle; no change on design"
_TRIANGLE = "crossing_s_p50, fig3_s_p50, optimize_ms_* on design"

#: Metrics of the traced run: (name, unit, better, the end-to-end metrics it
#: should move).  Only counts, ratios and times that every workload produces
#: are listed; the full per-span table is in the saved result.
PER_LAYER = (
    ("total_efficiency.calls", "count", "lower", _DESIGN_TIMES),
    ("total_efficiency.self_ms", "ms", "lower", _DESIGN_TIMES),
    ("total_efficiency.p50_us", "us", "lower", _DESIGN_TIMES),
    ("bins_evaluated", "count", "lower", _DESIGN_TIMES),
    ("avg_linear_transmission.calls", "count", "lower",
     "fig3_s_p50 on design"),
    ("sweep.calls", "count", "lower", _TRIANGLE),
    ("optimize_bins.calls", "count", "lower", _TRIANGLE),
    ("protocol_gap.calls", "count", "lower", "crossing_s_p50 on design"),
    ("emit_fig3.calls", "count", "lower", "fig3_s_p50 on design"),
    ("gap_calls_per_crossing", "calls/answer", "lower",
     "crossing_s_p50 on design, cli_s_tail on cli"),
    *((f"total_efficiency_calls_per_answer.{kind}", "calls/answer", "lower",
       f"the {kind} answer time") for kind in
      ("eval", "sweep", "optimize", "crossing", "fig3", "oracle", "mc")),
    ("estimate_eta.calls", "count", "lower", _MC),
    ("trials", "count", "higher", _MC),
    ("run_frame.calls", "count", "higher", "frames_per_s on mc-oracle"),
    ("pair_pmf_array.calls", "count", "lower", _MC),
    ("select_first.calls", "count", "lower", "frames_per_s on mc-oracle"),
    ("select_last.calls", "count", "lower", "frames_per_s on mc-oracle"),
    ("hbs_enumeration.calls", "count", "lower", "cli_s_* on cli"),
    ("two_source_enumeration.calls", "count", "lower", "cli_s_* on cli"),
    ("self_pct.efficiency", "%", "lower", _DESIGN_TIMES),
    ("self_pct.app", "%", "lower", _TRIANGLE),
    ("self_pct.montecarlo", "%", "lower", _MC),
    ("self_pct.model", "%", "lower", "mc_trials_per_s_* on mc-oracle"),
    ("self_pct.control", "%", "lower", "frames_per_s on mc-oracle"),
    ("self_pct.bell", "%", "lower", "cli_s_* on cli"),
    ("oracle_abs_z_max.poisson", "sigma", "lower",
     "fail_share on mc-oracle (correctness, not speed)"),
    ("oracle_abs_z_max.thermal", "sigma", "lower",
     "fail_share on mc-oracle (correctness, not speed)"),
    ("import_ms", "ms", "lower", "setup_s on every workload, cli_s_*"),
    ("trace_overhead_pct", "%", "lower",
     "none: traced minus untraced cycle time"),
)


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _ in PER_LAYER],
    }


def bounds(workload: str) -> dict:
    """name -> (unit, better, bound) for every metric the compare step
    checks on one workload."""
    rows = END_TO_END + REPORTED.get(workload, ()) + REPORTED_ALL
    return {n: (u, b, bound) for n, u, b, bound in rows}


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), "w") as fh:
        json.dump(benchmark_json(), fh, indent=2)
        fh.write("\n")
