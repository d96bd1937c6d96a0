"""End-to-end exploration benchmark: router -> worker over real HTTP.

Run ``python3 perfbench/run.py --workload explore --seed 1 --seconds 20
--trace 0`` from the repository root; see ``perfbench/README.md``.
"""
