"""Compare two sets of benchmark runs, or report the spread of one set.

    python3 perfbench/compare.py RUNS_DIR
    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files saved by ``perfbench/run.py --save DIR``
(one per run, untraced runs only).  For every workload and metric the step
prints the median and quartiles of each set.  With two sets it marks each
metric as

- ``within``: NEW's median is not worse than BASE's by more than the bound;
- ``WORSE``: it is;
- ``unresolved``: BASE's own spread (quartile distance over median) is wider
  than the bound, so the runs cannot tell, unless every NEW run is better
  than every BASE run (``better``).

With one set it marks each spread as within a third of the bound
(``steady``), within the bound (``ok``) or wider (``UNSTEADY``).
``fail_share`` is a correctness figure: its spread is not judged, and any
rise of it beyond its bound is ``WORSE``.
"""
from __future__ import annotations

import glob
import json
import os
import sys
from collections import defaultdict

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import spec, stats  # noqa: E402


def load(directory: str) -> dict:
    """workload -> metric -> list of values, from untraced result files."""
    out: dict = defaultdict(lambda: defaultdict(list))
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            result = json.load(fh)
        if result.get("trace"):
            continue
        w = result["workload"]
        for name, entry in {**result["metrics"], **result["reported"]}.items():
            out[w][name].append(entry["value"])
    return out


def spread(values) -> float:
    q1, med, q3 = stats.quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def worse_by(base: float, new: float, better: str) -> float:
    """Relative change of ``new`` against ``base``, positive when worse."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def _row(values) -> str:
    q1, med, q3 = stats.quartiles(values)
    return f"{med:12.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def report_one(runs: dict) -> bool:
    ok = True
    for w in sorted(runs):
        print(f"== {w}")
        for name, (unit, _, bound) in spec.bounds(w).items():
            values = runs[w].get(name)
            if not values:
                continue
            s = spread(values)
            if name == "fail_share":
                mark = ""
            elif s <= bound / 3:
                mark = "steady"
            elif s <= bound:
                mark = "ok"
            else:
                mark = "UNSTEADY"
                ok = ok and name != "setup_s"
            print(f"  {name:<22} {unit:<6} {_row(values)}  spread {s:.3f} "
                  f"bound {bound:g}  {mark}")
    return ok


def report_two(base: dict, new: dict) -> bool:
    ok = True
    for w in sorted(set(base) | set(new)):
        print(f"== {w}")
        for name, (unit, better, bound) in spec.bounds(w).items():
            a, b = base[w].get(name), new[w].get(name)
            if not a or not b:
                continue
            ma, mb = stats.median(a), stats.median(b)
            change = worse_by(ma, mb, better)
            if spread(a) > bound and name != "fail_share":
                wins = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
                mark = "better" if wins else "unresolved"
            elif change > bound:
                mark = "WORSE"
                ok = False
            else:
                mark = "within"
            print(f"  {name:<22} {unit:<6} base {_row(a)}\n"
                  f"  {'':<29} new  {_row(b)}  worse by {change:+.3f} "
                  f"(bound {bound:g})  {mark}")
    return ok


def main(argv) -> int:
    if len(argv) == 1:
        return 0 if report_one(load(argv[0])) else 1
    if len(argv) == 2:
        return 0 if report_two(load(argv[0]), load(argv[1])) else 1
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
