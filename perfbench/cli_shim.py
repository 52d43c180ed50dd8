"""Traced stand-in for ``python -m photonmux.cli``.

Usage: ``python3 perfbench/cli_shim.py SPAN_FILE ARGV...``.  Times the
import of ``photonmux.cli`` and ``cli.main(ARGV)`` with the benchmark's span
wrappers installed, writes both times and the spans to SPAN_FILE as JSON, and
exits with ``main``'s return code.
"""
import json
import os
import sys
from time import perf_counter


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(root, "src"), root]
    from perfbench.trace import Tracer

    t0 = perf_counter()
    import photonmux.cli as cli
    import_ms = (perf_counter() - t0) * 1e3

    tracer = Tracer()
    tracer.install()
    t1 = perf_counter()
    try:
        code = cli.main(argv)
    finally:
        main_ms = (perf_counter() - t1) * 1e3
        tracer.uninstall()
        with open(span_file, "w") as fh:
            json.dump({"import_ms": import_ms, "main_ms": main_ms,
                       "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
