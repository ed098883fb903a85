"""Serving benchmark entry point.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 10 \\
        --trace 0

Prints a table of metrics, then one JSON line (the last line of
standard output) with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  ``DESIGN.md`` describes the workloads.
"""

from __future__ import annotations

import argparse
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("serve-mix", "bulk-process",
                                 "gateway-ingest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def stop_resource_tracker() -> None:
    """Stop the helper process multiprocessing starts for shared memory,
    so the benchmark leaves no process behind."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    src = os.path.join(ROOT, "src")
    try:
        import repro.service  # the system under test
    except ImportError as exc:
        print(f"perfbench: cannot import the repro package from {src}: "
              f"{exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.service.__file__).startswith(src + os.sep):
        print(f"perfbench: imported repro from {repro.service.__file__}, "
              f"not from this checkout's {src}", file=sys.stderr)
        return 2
    from perfbench import runner

    try:
        return runner.run(ROOT, args.workload, args.seed, args.seconds,
                          bool(args.trace))
    except runner.CanaryError as exc:
        print(f"perfbench: determinism canary failed: {exc}",
              file=sys.stderr)
        return 3
    finally:
        stop_resource_tracker()


if __name__ == "__main__":
    sys.exit(main())
