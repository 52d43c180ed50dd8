"""One set-up of a workload in a fresh interpreter.

Usage: ``python3 perfbench/setup_child.py WORKLOAD SEED TMP_DIR``.  Imports
``photonmux.cli``, builds the inputs of the workload's first question cycle
and prints ``{"import_ms": ...}``.  The runner times the whole process.
"""
import json
import os
import sys
from time import perf_counter


def main() -> int:
    workload, seed, tmp = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(root, "src"), root]

    t0 = perf_counter()
    import photonmux.cli  # noqa: F401
    import_ms = (perf_counter() - t0) * 1e3

    from perfbench import gen, workloads
    workloads.build_inputs(workload, next(gen.cycles(workload, seed)), tmp)
    print(json.dumps({"import_ms": import_ms}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
