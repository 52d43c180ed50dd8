"""Seeded performance benchmark for photonmux.

Run ``python3 perfbench/run.py --workload design --seed 1 --seconds 20
--trace 0`` from the repository root; see ``perfbench/README.md``.
"""
