"""Self-tests of the benchmark: ``python3 -m pytest perfbench/tests``.

The short runs below take about two minutes in all.
"""
from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
from collections import Counter

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import calibrate, compare, gen, spec, stats, trace, workloads  # noqa: E402



def _run(workload: str, trace_flag: int, save: str, cwd: str = ROOT):
    """The benchmark command as BENCHMARK.json states it, run from ``cwd``."""
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace_flag),
         "--save", save],
        capture_output=True, text=True, cwd=cwd, timeout=600, check=False)


# --- generator ------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(gen.MIXES))
def test_generator_is_deterministic_per_seed(workload):
    def first(seed):
        return list(itertools.islice(gen.cycles(workload, seed), 3))

    assert first(7) == first(7)
    assert first(7) != first(8)


def test_generator_marginals_are_exact_per_block():
    cycle = next(gen.cycles("design", 5))
    evals = [q.point for q in cycle if q.kind == "eval"]   # 4 whole blocks
    n = len(evals)
    assert Counter(p.n_bins for p in evals) == {k: n // 128
                                                 for k in range(1, 129)}
    assert sum(p.mismatched for p in evals) == n * gen.MISMATCH_SHARE
    assert sum(p.literal_exponent for p in evals) == n * gen.FLAG_SHARE
    assert sum(p.d0_excludes_filter for p in evals) == n * gen.FLAG_SHARE
    assert sum(p.pair_dist == "thermal" for p in evals) == n // 2
    assert all(gen.LAMBDA_RANGE[0] <= p.lam <= gen.LAMBDA_RANGE[1]
               for p in evals)
    counts = Counter(q.kind for q in cycle)
    assert counts == {kind: n for kind, n, _ in gen.MIXES["design"]}


def test_oracle_questions_alternate_workers():
    cycle = next(gen.cycles("mc-oracle", 1))
    assert [q.workers for q in cycle] == list(gen.MC_WORKERS)


# --- statistics and tracing ------------------------------------------------------


def test_tail_leaves_ten_samples_beyond():
    values = list(range(100))
    t = stats.tail(values)
    assert t["value"] == 89 and t["n"] == 100
    assert sum(v > t["value"] for v in values) == stats.TAIL_BEYOND
    assert stats.tail(values[:10]) is None


def test_self_time_subtracts_union_of_children():
    spans = [
        (1, 0, "parent", 0.0, 10.0, 1, 0),
        (2, 1, "child", 1.0, 4.0, 1, 0),
        (3, 1, "child", 3.0, 5.0, 1, 0),   # overlaps the first child
        (4, 2, "grandchild", 1.0, 2.0, 1, 0),
    ]
    assert trace.self_times(spans) == [6.0, 2.0, 2.0, 1.0]


def test_oracle_score_uses_the_exact_tail_for_rare_counts():
    # one success in 10^6 trials where 0.022 are expected is not a 5-sigma
    # event, although the normal approximation reads it as z = +6.6
    assert abs(workloads.oracle_z(1e-6, 2.2e-8, 10**6)) < 5
    assert workloads.oracle_z(40e-6, 10e-6, 10**6) > 5
    assert workloads.oracle_z(0.0, 20e-6, 10**6) < -5
    assert workloads.oracle_z(0.31, 0.3, 10**6) > 5


def _answers(workload: str, kinds, traced: bool, tmp: str) -> dict:
    tracer = trace.Tracer() if traced else None
    if tracer:
        tracer.install()
    try:
        work = workloads.make(workload, tmp, ROOT, tracer)
        led = workloads.Ledger(calibrate.python_probe())
        seen = Counter()
        for q in itertools.chain.from_iterable(gen.cycles(workload, 2)):
            if seen[q.kind] >= kinds.get(q.kind, 0):
                if all(seen[k] >= n for k, n in kinds.items()):
                    break
                continue
            seen[q.kind] += 1
            work.answer(q, led)
    finally:
        if tracer:
            tracer.uninstall()
    assert led.failed == 0, led.messages
    if tracer:
        assert tracer.spans
    return led.digests


@pytest.mark.parametrize("workload, kinds", [
    ("design", {"eval": 20, "sweep": 2, "optimize": 1, "crossing": 1,
                "fig3": 1}),
    ("mc-oracle", {"oracle": 2}),
    ("cli", {k: 1 for k in ("eval", "sweep", "optimize", "mc", "bell",
                            "crossing")}),
])
def test_traced_and_untraced_answers_are_identical(workload, kinds, tmp_path):
    plain = _answers(workload, kinds, False, str(tmp_path))
    traced = _answers(workload, kinds, True, str(tmp_path))
    assert plain == traced


# --- whole runs -----------------------------------------------------------------


def test_benchmark_json_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == spec.benchmark_json()


@pytest.mark.parametrize("workload", sorted(gen.MIXES))
@pytest.mark.parametrize("trace_flag", [0, 1])
def test_tiny_run_emits_every_metric(workload, trace_flag, tmp_path):
    proc = _run(workload, trace_flag, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    table = spec.END_TO_END if trace_flag == 0 else spec.PER_LAYER
    expected = {name: unit for name, unit, _, _ in table}
    assert {n: m["unit"] for n, m in last["metrics"].items()} == expected
    if trace_flag == 0:
        assert all(m["value"] > 0 for m in last["metrics"].values())
    saved = [p for p in os.listdir(tmp_path) if p.startswith(workload)]
    result = json.load(open(os.path.join(tmp_path, saved[0])))
    for name, unit, _, _ in spec.REPORTED[workload]:
        assert result["reported"][name]["unit"] == unit
    prov = result["provenance"]
    for key in ("git_sha", "nproc", "python", "numpy", "seed", "generator"):
        assert key in prov


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("design", 0, str(tmp_path / "out"), cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# --- compare step ---------------------------------------------------------------


def test_compare_marks_regressions_and_unresolved(tmp_path, capsys):
    def write(directory, values):
        os.makedirs(directory, exist_ok=True)
        for i, v in enumerate(values):
            result = {"workload": "design", "trace": 0,
                      "metrics": {"cycle_s": {"value": v, "unit": "s"}},
                      "reported": {}}
            with open(os.path.join(directory, f"r{i}.json"), "w") as fh:
                json.dump(result, fh)

    base, new = str(tmp_path / "base"), str(tmp_path / "new")
    write(base, [1.0, 1.01, 0.99, 1.0, 1.02])
    write(new, [1.5, 1.52, 1.49, 1.5, 1.51])
    assert compare.main([base, new]) == 1
    assert "WORSE" in capsys.readouterr().out
    write(new, [1.0, 1.01, 0.99, 1.0, 1.02])
    assert compare.main([base, new]) == 0
