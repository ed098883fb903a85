"""Per-shard kernel cost: the one-pass ``process_shard`` vs per-PE steps.

The fast path makes one :meth:`KernelSpec.process_shard` call per
shard.  Each app overrides it with one vectorised pass (hash each key
once, derive the PriPE index from that hash, one scatter over the whole
shard); the base-class method is the per-PE reference it replaced
(route, one fresh buffer per PriPE, ``process_batch`` per PE,
``collect``).  This bench times both on the serving kernels
(``kernel_for(app, 16)``) over Zipf-1.5 shards of 250, 1k, 8k and 64k
tuples and reports ns per tuple.

Method: every shard is generated before the clock starts; each point
processes about ``TUPLES_PER_POINT`` tuples as consecutive shards of the
given size; the two variants run interleaved, ``REPEATS`` times, and the
minimum is reported (the least-disturbed run of a CPU-bound loop).

Asserted headline: at 1k-tuple shards, close to the serving mix's shard
size, the one-pass hook costs at most half as much per tuple as the
per-PE path for histo, hll and hhd.
"""

import os
import time

import numpy as np

from repro.analysis.tables import Table
from repro.core.kernel import KernelSpec
from repro.service.jobs import kernel_for
from repro.workloads.zipf import ZipfGenerator

APPS = ["histo", "dp", "hll", "hhd", "pagerank"]
SHARD_SIZES = [250, 1_000, 8_000, 64_000]
TUPLES_PER_POINT = 16_000
REPEATS = 5
ALPHA = 1.5
SEED = 3
PRIPES = 16
VERTICES = 4_096
GATED_APPS = ["histo", "hll", "hhd"]
GATED_SIZE = 1_000
SPEEDUP_FLOOR = 2.0


def make_shards(app: str, size: int):
    """``TUPLES_PER_POINT // size`` shards (at least one) of ``size``."""
    count = max(1, TUPLES_PER_POINT // size)
    batch = ZipfGenerator(alpha=ALPHA, seed=SEED).generate(size * count)
    keys, values = batch.keys, batch.values
    if app == "pagerank":  # (destination, source) vertex pairs
        keys = keys % np.uint64(VERTICES)
        values = (np.arange(keys.size) % VERTICES).astype(np.int64)
    return [(keys[i:i + size], values[i:i + size])
            for i in range(0, size * count, size)]


def ns_per_tuple(process, shards) -> float:
    tuples = sum(keys.size for keys, _ in shards)
    started = time.perf_counter_ns()
    for keys, values in shards:
        process(keys, values)
    return (time.perf_counter_ns() - started) / tuples


def test_shard_cost(emit):
    params = {"pagerank": {"num_vertices": VERTICES}}
    table = Table(
        ["app", "shard", "one-pass ns/t", "per-PE ns/t", "speedup"],
        title=(f"Per-shard kernel cost, {PRIPES} PriPEs, Zipf {ALPHA}, "
               f"min of {REPEATS} interleaved repeats "
               f"({os.cpu_count() or 1} cores)"),
    )
    data = {"alpha": ALPHA, "pripes": PRIPES, "repeats": REPEATS,
            "tuples_per_point": TUPLES_PER_POINT, "statistic": "min",
            "unit": "ns/tuple", "points": []}
    speedups = {}
    for app in APPS:
        kernel = kernel_for(app, PRIPES, params.get(app))
        variants = {
            "one_pass": kernel.process_shard,
            "per_pe": lambda k, v, kernel=kernel: KernelSpec.process_shard(
                kernel, k, v),
        }
        for size in SHARD_SIZES:
            shards = make_shards(app, size)
            best = {name: float("inf") for name in variants}
            for _ in range(REPEATS):
                for name, process in variants.items():
                    best[name] = min(best[name],
                                     ns_per_tuple(process, shards))
            speedup = best["per_pe"] / best["one_pass"]
            speedups[app, size] = speedup
            table.add_row([app, size, best["one_pass"], best["per_pe"],
                           speedup])
            data["points"].append({
                "app": app, "shard_tuples": size,
                "one_pass_ns_per_tuple": best["one_pass"],
                "per_pe_ns_per_tuple": best["per_pe"],
                "speedup": speedup,
            })
    emit("shard_cost", table.render(), data)
    for app in GATED_APPS:
        assert speedups[app, GATED_SIZE] >= SPEEDUP_FLOOR, (
            f"{app}: one-pass only {speedups[app, GATED_SIZE]:.2f}x "
            f"cheaper than per-PE at {GATED_SIZE}-tuple shards")
