"""Serving benchmark for the ``repro`` stream service.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``DESIGN.md`` in this
directory explains the workloads, metrics and per-layer predictions.
"""
