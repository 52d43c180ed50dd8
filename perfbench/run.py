"""photonmux benchmark runner.

    python3 perfbench/run.py --workload design --seed 1 --seconds 20 --trace 0

Runs one workload for about ``--seconds`` seconds from the repository root,
checks every answer, prints a report and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end metrics of ``perfbench/spec.py``; with
``--trace 1`` the run answers the question list twice, untraced and then
traced, and the metrics are the per-layer ones.  The full result, with
provenance and the per-kind figures, is saved as JSON under ``--save``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

# stdlib-only modules; those that import photonmux are imported once the
# source tree has been found (main)
from perfbench import calibrate, gen, spec, stats, trace  # noqa: E402
#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py",
                                description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("design", "mc-oracle", "cli"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--save", default=os.path.join(ROOT, ".perfbench", "results"),
                   help="directory for the saved result JSON")
    p.add_argument("--record-reference", action="store_true",
                   help="re-record perfbench/reference.json and exit")
    args = p.parse_args(argv)
    if not args.record_reference and args.workload is None:
        p.error("--workload is required")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "photonmux", "cli.py")):
        print("perfbench: src/photonmux not found; run from a checkout of "
              "the photonmux repository", file=sys.stderr)
        return 2

    tmp = os.path.join(ROOT, ".perfbench", f"tmp-{os.getpid()}")
    os.makedirs(tmp)
    try:
        if args.record_reference:
            from perfbench import reference
            reference.write(tmp)
            print(f"wrote {reference.PATH}")
            return 0
        result = run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    os.makedirs(args.save, exist_ok=True)
    path = os.path.join(
        args.save, f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                   f"{os.getpid()}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    print_report(result)
    print(f"# saved {path}")
    print(json.dumps({k: result[k]
                      for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


# --- measuring ----------------------------------------------------------------


def measure_setup(workload: str, seed: int, tmp: str) -> dict:
    """Time fresh interpreters that import photonmux.cli and build the
    workload's first inputs.  One untimed warm-up writes bytecode caches."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "setup_child.py"),
           workload, str(seed), tmp]
    probe = calibrate.process_probe(ROOT)
    walls, imports, probes = [], [], []
    for i in range(SETUP_REPEATS + 1):
        probes.append(probe.run())
        t0 = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=SETUP_TIMEOUT_S, check=False)
        wall = perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
        if i:
            walls.append(wall)
            imports.append(json.loads(proc.stdout.splitlines()[-1])["import_ms"])
    scale = probe.reference_s / statistics.mean(probes[1:])
    return {"setup_s": statistics.median(walls) * scale, "scale": scale,
            "setup_wall_s": walls, "import_ms": statistics.median(imports)}


def run_phase(workload: str, seed: int, seconds: float, tmp: str, tracer=None):
    """Answer whole question cycles until ``seconds`` have passed."""
    from perfbench import workloads

    work = workloads.make(workload, tmp, ROOT, tracer)
    led = workloads.Ledger(calibrate.for_workload(workload, ROOT))
    led.take_probe()
    start = last_probe = perf_counter()
    for cycle in gen.cycles(workload, seed):
        busy0 = led.busy_wall
        for q in cycle:
            led.kinds[q.qid] = q.kind
            led.attempted += 1
            if tracer is not None:
                tracer.question = q.qid
            busy = led.busy_wall
            try:
                work.answer(q, led)
            except workloads.CheckFailed as exc:
                led.fail(q.qid, str(exc))
            except Exception as exc:  # a crash is a failed answer, not a stop
                led.fail(q.qid, f"{type(exc).__name__}: {exc}")
            led.kind_times[q.kind].append(led.busy_wall - busy)
            if perf_counter() - last_probe >= led.probe.every_s:
                led.take_probe()
                last_probe = perf_counter()
        led.cycle_wall.append(led.busy_wall - busy0)
        if (perf_counter() - start >= seconds
                and len(led.cycle_wall) >= gen.min_cycles(workload)):
            break
    if tracer is not None:
        tracer.question = None
    work.finish(led)
    return led


def run(args, tmp: str) -> dict:
    from perfbench import reference

    setup = measure_setup(args.workload, args.seed, tmp)
    if args.trace:
        untraced = run_phase(args.workload, args.seed, args.seconds / 2, tmp)
        tracer = trace.Tracer()
        tracer.install()
        try:
            led = run_phase(args.workload, args.seed, args.seconds / 2, tmp,
                            tracer)
        finally:
            tracer.uninstall()
        ledgers = [untraced, led]
        same = sorted(set(untraced.digests) & set(led.digests))
        for qid in same:
            if untraced.digests[qid] != led.digests[qid]:
                led.fail(qid, "traced answer differs from the untraced one")
    else:
        led = run_phase(args.workload, args.seed, args.seconds, tmp)
        ledgers = [led]
    if args.workload == "design":
        for qid, message in reference.check(tmp):
            led.attempted += 1
            if message:
                led.fail(qid, message)

    attempted = sum(x.attempted for x in ledgers)
    failed = sum(x.failed for x in ledgers)
    expected = sum(x.expected_failures for x in ledgers)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "expected_failures": expected,
        "failures": [m for x in ledgers for m in x.messages],
        "expected_failure_messages": [
            m for x in ledgers for m in x.expected_messages],
        "setup": setup,
    }
    # per-kind figures always come from an untraced pass
    reported = reported_metrics(args.workload, untraced if args.trace else led,
                                setup)
    reported["fail_share"] = {"value": (failed + expected) / attempted,
                              "unit": "share", "n": attempted}
    result["reported"] = reported
    result["counts"] = dict(led.counts)
    result["samples"] = {k: len(v) for k, v in led.times.items()}
    if args.trace:
        layers, detail = per_layer(args.workload, tracer, led, untraced, setup)
        result["metrics"] = layers
        result["trace_detail"] = detail
        os.makedirs(args.save, exist_ok=True)
        spans_path = os.path.join(
            args.save, f"spans-{args.workload}-seed{args.seed}-"
                       f"{os.getpid()}.jsonl")
        tracer.write(spans_path)
        result["spans_file"] = spans_path
    else:
        result["metrics"] = end_to_end(args.workload, led, setup)
    return result


def peak_rss_mb(workload: str) -> float:
    """Peak resident set of the process that answers: the CLI children for
    the cli workload, this process otherwise (Linux reports KiB)."""
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(workload: str, led, setup: dict) -> dict:
    values = {
        "setup_s": setup["setup_s"],
        "peak_rss_mb": peak_rss_mb(workload),
        "cycle_s": cycle_time(workload, led) * led.scale(),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _, _ in spec.END_TO_END}


def block_means(workload: str, led) -> dict:
    """Each kind's mean answer time over its whole Latin blocks, which cover
    every stratum once, so the figure does not depend on how many questions
    the run managed."""
    out = {}
    for kind, _, block in gen.MIXES[workload]:
        times = led.kind_times[kind]
        out[kind] = statistics.mean(times[:len(times) - len(times) % block])
    return out


def cycle_time(workload: str, led) -> float:
    """Busy time of one cycle of the mix: questions per cycle times the
    kind's whole-block mean answer time, summed over kinds."""
    means = block_means(workload, led)
    return sum(count * means[kind] for kind, count, _ in gen.MIXES[workload])


def _pick(values, which: str):
    if which == "p50":
        return stats.median(values), {}
    t = stats.tail(values)
    if t is None:
        return max(values), {"percentile": 100.0}
    return t["value"], {"percentile": t["percentile"]}


def reported_metrics(workload: str, led, setup: dict) -> dict:
    """The per-kind figures of the workload (see spec.REPORTED)."""
    sources = {
        "eval_ms_p50": ("eval", "p50", 1e3),
        "sweep_ms_p50": ("sweep", "p50", 1e3),
        "optimize_ms_p50": ("optimize", "p50", 1e3),
        "optimize_ms_tail": ("optimize", "tail", 1e3),
        "crossing_s_p50": ("crossing", "p50", 1.0),
        "fig3_s_p50": ("fig3", "p50", 1.0),
        "cli_s_p50": ("cli", "p50", 1.0),
        "cli_s_tail": ("cli", "tail", 1.0),
    }
    rates = {
        "mc_trials_per_s_w1": ("mc_w1", gen.MC_TRIALS),
        "mc_trials_per_s_w2": ("mc_w2", gen.MC_TRIALS),
        "frames_per_s": ("frames", gen.FRAME_BATCH),
    }
    speed = led.scale()
    out = {}
    for name, unit, _, _ in spec.REPORTED[workload]:
        if name in sources:
            key, which, to_unit = sources[name]
            value, extra = _pick(led.times[key], which)
            out[name] = {"value": value * to_unit * speed, "unit": unit,
                         "n": len(led.times[key]), **extra}
        else:
            key, work = rates[name]
            median = statistics.median(led.times[key])
            out[name] = {"value": work / (median * speed), "unit": unit,
                         "n": len(led.times[key]),
                         "from": f"{work} per median {key} time"}
    out["setup_s"] = {"value": setup["setup_s"], "unit": "s",
                      "n": len(setup["setup_wall_s"])}
    out["peak_rss_mb"] = {"value": peak_rss_mb(workload), "unit": "MB"}
    if workload in ("design", "cli"):
        crossings = len(led.times.get("crossing", ())) or len(
            led.times.get("cli_crossing", ()))
        if crossings:
            out["no_crossing_share"] = {
                "value": led.counts["no_crossing"] / crossings,
                "unit": "share", "n": crossings}
    out["cycle_wall_s"] = {"value": statistics.mean(led.cycle_wall),
                           "unit": "s", "n": len(led.cycle_wall),
                           "note": "unscaled"}
    out["speed_scale"] = {"value": speed, "unit": "ratio",
                          "n": len(led.probes)}
    for kind, mean in block_means(workload, led).items():
        out[f"{kind}_mean_s"] = {"value": mean * speed, "unit": "s",
                                 "n": len(led.kind_times[kind])}
    for dist, zs in sorted(led.abs_z.items()):
        out[f"oracle_abs_z_max.{dist}"] = {"value": max(zs), "unit": "sigma",
                                           "n": len(zs)}
    return out


def per_layer(workload: str, tracer, led, untraced, setup: dict):
    """Per-layer metrics of the traced phase, and the detail behind them."""
    table = trace.summarize(tracer.spans)

    def field(name, key):
        return table.get(name, {}).get(key, 0)

    values = {}
    for name in ("total_efficiency", "avg_linear_transmission", "sweep",
                 "optimize_bins", "protocol_gap", "emit_fig3", "estimate_eta",
                 "run_frame", "pair_pmf_array", "select_first", "select_last",
                 "hbs_enumeration", "two_source_enumeration"):
        values[f"{name}.calls"] = field(name, "calls")
    values["total_efficiency.self_ms"] = field("total_efficiency", "self_ms")
    values["total_efficiency.p50_us"] = field("total_efficiency", "p50_us")
    values["bins_evaluated"] = field("total_efficiency", "work")
    values["trials"] = field("estimate_eta", "work")

    per_kind = defaultdict(lambda: defaultdict(int))
    for span in tracer.spans:
        kind = led.kinds.get(span[trace.QUESTION])
        per_kind[kind][span[trace.NAME]] += 1
    asked = defaultdict(int)
    for kind in led.kinds.values():
        asked[kind] += 1
    for kind in ("eval", "sweep", "optimize", "crossing", "fig3", "oracle",
                 "mc"):
        n = asked.get(kind, 0)
        values[f"total_efficiency_calls_per_answer.{kind}"] = (
            per_kind[kind]["total_efficiency"] / n if n else 0.0)
    n_cross = asked.get("crossing", 0)
    values["gap_calls_per_crossing"] = (
        per_kind["crossing"]["protocol_gap"] / n_cross if n_cross else 0.0)

    busy_ms = led.busy_wall * 1e3
    layer_ms = defaultdict(float)
    for name, entry in table.items():
        layer_ms[trace.LAYER_OF[name]] += entry["self_ms"]
    for layer in trace.LAYERS:
        values[f"self_pct.{layer}"] = 100.0 * layer_ms[layer] / busy_ms
    for dist in ("poisson", "thermal"):
        zs = led.abs_z.get(dist)
        values[f"oracle_abs_z_max.{dist}"] = max(zs) if zs else 0.0
    values["import_ms"] = setup["import_ms"]
    k = min(len(led.cycle_wall), len(untraced.cycle_wall))
    values["trace_overhead_pct"] = 100.0 * (
        sum(led.cycle_wall[:k]) * led.scale()
        / (sum(untraced.cycle_wall[:k]) * untraced.scale()) - 1.0)

    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _, _ in spec.PER_LAYER}
    overhead_ms = {
        key: 1e3 * (statistics.median(led.times[key]) * led.scale()
                    - statistics.median(untraced.times[key]) * untraced.scale())
        for key in led.times if untraced.times.get(key)}
    detail = {
        "spans": len(tracer.spans),
        "layers": table,
        "overhead_ms_p50": overhead_ms,
        "cycles": {"traced": len(led.cycle_wall),
                   "untraced": len(untraced.cycle_wall), "compared": k},
        "cli": {name: statistics.median(v) for name, v in led.extra.items()},
        "moves": {name: moves for name, _, _, moves in spec.PER_LAYER},
    }
    return metrics, detail


# --- provenance and report -----------------------------------------------------


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over the package sources, which identifies the code measured
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "photonmux")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance(args) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_repeats": SETUP_REPEATS,
        "generator": gen.parameters(),
    }


def _fmt(entry: dict) -> str:
    text = f"{entry['value']:.6g} {entry['unit']}"
    notes = []
    if "percentile" in entry:
        notes.append(f"p{entry['percentile']:.1f}")
    if "n" in entry:
        notes.append(f"n={entry['n']}")
    return text + (f"  ({', '.join(notes)})" if notes else "")


def print_report(result: dict) -> None:
    prov = result["provenance"]
    print(f"# perfbench {result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']:g} trace={result['trace']}  "
          f"git={prov['git_sha'][:12]} nproc={prov['nproc']} "
          f"python={prov['python']} numpy={prov['numpy']}")
    print(f"# answers: attempted={result['attempted']} "
          f"failed={result['failed']} "
          f"expected_failures={result['expected_failures']}")
    for message in result["failures"]:
        print(f"#   {message}")
    for message in result["expected_failure_messages"][:5]:
        print(f"#   expected: {message}")
    heading = "per-layer" if result["trace"] else "end-to-end"
    print(f"# {heading}:")
    for name, entry in result["metrics"].items():
        print(f"#   {name:<44} {_fmt(entry)}")
    print("# per-kind:")
    for name, entry in result["reported"].items():
        print(f"#   {name:<44} {_fmt(entry)}")
    detail = result.get("trace_detail")
    if detail:
        print("# tracing overhead, traced minus untraced median (ms):")
        for key, ms in sorted(detail["overhead_ms_p50"].items()):
            print(f"#   {key:<44} {ms:+.4f}")
        print("# span self time (ms) and median duration (us):")
        for name, entry in sorted(detail["layers"].items()):
            print(f"#   {name:<30} calls={entry['calls']:<8} "
                  f"self_ms={entry['self_ms']:<12.4f} "
                  f"p50_us={entry['p50_us']:.2f}")
        for name, value in sorted(detail["cli"].items()):
            print(f"#   {name:<44} {value:.3f} ms (median)")


if __name__ == "__main__":
    sys.exit(main())
