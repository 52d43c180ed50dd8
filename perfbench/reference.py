"""Reference answers for a fixed set of Poisson design questions.

``reference.json`` holds the answers photonmux gave to these questions when
the benchmark was defined.  Every design run asks them again and requires
agreement to ``RTOL``.  Thermal points are left out: their closed
form is expected to change (ROADMAP item 1).

Re-record only at a commit whose answers are known to be right:
``python3 perfbench/run.py --record-reference``.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os

from photonmux import app, efficiency
from photonmux.model import DomainError

from . import gen
from .workloads import inputs

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "reference.json")
SEED = 0
#: Relative tolerance of the comparison.
RTOL = 1e-9
#: Reference questions per kind; crossing takes one bracket with a crossing
#: and one without.
COUNTS = {"eval": 24, "sweep": 4, "optimize": 4, "fig3": 1}


def _questions():
    """The reference questions: the first Poisson questions of each kind in
    the design workload's list for ``SEED``, plus two crossings."""
    want = dict(COUNTS)
    crossings = []
    picked = []
    for cycle in itertools.islice(gen.cycles("design", SEED), 64):
        for q in cycle:
            if q.point.pair_dist != "poisson":
                continue
            if want.get(q.kind, 0) > 0:
                want[q.kind] -= 1
                picked.append(q)
            elif q.kind == "crossing" and len(crossings) < 8:
                crossings.append(q)
        if not any(want.values()) and len(crossings) >= 8:
            break
    return picked, crossings


def answer(q, tmp: str) -> list:
    """The numbers photonmux gives for one reference question."""
    params, scheme, flags = inputs(q.point)
    if q.kind == "eval":
        return [efficiency.total_efficiency(params, scheme, **flags).eta_total]
    if q.kind == "sweep":
        spec = app.SweepSpec(q.sweep_param, q.sweep_values, params, scheme)
        return [y for _, y in app.sweep(spec, **flags).points]
    if q.kind == "optimize":
        curve = app.optimize_bins(params, scheme, 1, gen.N_MAX, **flags)
        return [y for _, y in curve.points]
    if q.kind == "crossing":
        try:
            return [app.find_crossing(params, *gen.CROSSING_BRACKET,
                                      gen.CROSSING_TOL, **flags)]
        except DomainError:
            return []
    if q.kind == "fig3":
        values = []
        for path in app.emit_fig3(os.path.join(tmp, "fig3-reference"),
                                  params, **flags):
            if path.endswith(".csv"):
                with open(path) as fh:
                    for row in fh.read().splitlines()[1:]:
                        values.extend(float(c) for c in row.split(","))
        return values
    raise ValueError(f"no reference for {q.kind!r}")


def _entry(q, values) -> dict:
    return {"qid": q.qid, "kind": q.kind,
            "point": dataclasses.asdict(q.point),
            "sweep_param": q.sweep_param,
            "sweep_values": list(q.sweep_values),
            "answer": values}


def write(tmp: str) -> None:
    """Record the reference table from the code as it is now."""
    picked, crossings = _questions()
    entries = [_entry(q, answer(q, tmp)) for q in picked]
    found = {}
    for q in crossings:
        values = answer(q, tmp)
        found.setdefault(bool(values), _entry(q, values))
        if len(found) == 2:
            break
    entries.extend(found[k] for k in sorted(found))
    with open(PATH, "w") as fh:
        json.dump({"seed": SEED, "entries": entries}, fh)
        fh.write("\n")


def check(tmp: str):
    """Ask every reference question again; yield (qid, message) with an
    empty message when the answer agrees."""
    with open(PATH) as fh:
        table = json.load(fh)
    for e in table["entries"]:
        q = gen.Question(e["qid"], e["kind"], gen.Point(**e["point"]),
                         e["sweep_param"], tuple(e["sweep_values"]))
        got = answer(q, tmp)
        want = e["answer"]
        if len(got) != len(want):
            yield q.qid, (f"reference {q.kind}: {len(got)} values, "
                          f"expected {len(want)}")
            continue
        bad = [(g, w) for g, w in zip(got, want)
               if not math.isclose(g, w, rel_tol=RTOL, abs_tol=0.0)]
        if bad:
            g, w = bad[0]
            yield q.qid, (f"reference {q.kind}: {len(bad)} values differ, "
                          f"first {g!r} vs recorded {w!r}")
        else:
            yield q.qid, ""

