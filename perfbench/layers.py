"""Which public functions make up each layer, and the per-layer metrics.

Layers are named after the modules they live in.  :func:`instrument`
wraps their public functions at class or module level;
:func:`layer_metrics` turns one traced pass's spans into the per-layer
metrics listed in ``DESIGN.md``.  Time metrics are *self* time (the
layers' spans partition the traced threads' time), summed over every
thread and process of the pass.
"""

from __future__ import annotations

import json
import os
import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

from perfbench.spans import (
    Instrumentation,
    Span,
    Tracer,
    self_times,
    spans_from_fields,
)
from perfbench.stats import fit_linear

APPS = ("histo", "dp", "hll", "hhd")

#: Every per-layer metric and its unit, in ``DESIGN.md``'s layer order.
PER_LAYER_UNITS = {
    "dispatcher.cpu_s": "s",
    "dispatcher.wait_s": "s",
    "queue.delay_tuples_p50": "tuples",
    "windows.cpu_s": "s",
    "windows.wait_s": "s",
    "windows.closed": "count",
    "balancer.cpu_s": "s",
    "balancer.wait_s": "s",
    "balancer.shards": "count",
    "balancer.shard_tuples_p50": "tuples",
    "balancer.rebalances": "count",
    "balancer.sim_imbalance": "ratio",
    "backend.dispatch_cpu_s": "s",
    "backend.drain_wait_s": "s",
    "backend.collect_s": "s",
    "backend.worker_cpu_s": "s",
    "transport.bytes_copied": "bytes",
    "transport.bytes_shared": "bytes",
    "transport.slab_fallbacks": "count",
    "transport.shard_retries": "count",
    "session.process_calls": "count",
    "session.process_cpu_s": "s",
    "session.merge_cpu_s": "s",
    "fastpath.cpu_s": "s",
    "fastpath.cpu_us_per_shard": "us",
    **{f"fastpath.{app}.{name}": unit for app in APPS
       for name, unit in (("fixed_us", "us"), ("ns_per_tuple", "ns"),
                          ("breakeven_tuples", "tuples"))},
    "kernel.process_batch_cpu_s": "s",
    "kernel.collect_cpu_s": "s",
    "kernel.combine_cpu_s": "s",
    "metrics.record_calls": "count",
    "metrics.record_cpu_s": "s",
    "protocol.encode_cpu_s": "s",
    "protocol.decode_cpu_s": "s",
    "protocol.bytes": "bytes",
    "gateway.credit_stalls": "count",
    "gateway.batches_shed": "count",
    "gateway.ingest_depth_p95": "batches",
    "gateway.source_waits": "count",
    "gateway.batch_ack_ms_p95": "ms",
    "trace.overhead_ratio": "ratio",
}

#: Kernel class name -> served app name.
KERNEL_APP = {
    "HistogramKernel": "histo",
    "PartitionKernel": "dp",
    "HyperLogLogKernel": "hll",
    "HeavyHitterKernel": "hhd",
}


def _result_len(args, kwargs, result):
    return (len(result) if result is not None else 0), ""


def _session_batch_len(args, kwargs, result):
    return len(args[1]), ""


def _kernel_tag(args, kwargs, result):
    return 0, type(args[0]).__name__


def _run_fast_measure(args, kwargs, result):
    return len(args[2]), type(args[1]).__name__


def _source_wait(args, kwargs, result):
    return (0 if result else 1), ""


def instrument(tracer: Tracer) -> Instrumentation:
    """Wrap every traced layer function; call ``uninstall()`` to undo."""
    from repro.apps.heavy_hitter import HeavyHitterKernel
    from repro.apps.histo import HistogramKernel
    from repro.apps.hyperloglog import HyperLogLogKernel
    from repro.apps.partition import PartitionKernel
    from repro.core import fastpath
    from repro.net import protocol
    from repro.net.buffer import IngestBuffer
    from repro.runtime.session import StreamingSession
    from repro.service.balancer import SkewAwareBalancer
    from repro.service.metrics import ServiceMetrics
    from repro.service.pool import WorkerPool
    from repro.service.procpool import ProcessBackend
    from repro.service.server import StreamService
    from repro.service.windows import EventWindow, WindowManager

    inst = Instrumentation(tracer)
    inst.wrap(StreamService, "run", "dispatcher.run")
    inst.wrap(WindowManager, "observe", "windows.observe", _result_len)
    inst.wrap(WindowManager, "flush", "windows.flush", _result_len)
    inst.wrap(EventWindow, "to_batch", "windows.to_batch")

    def split_measure(args, kwargs, result):
        tracer.samples["shard_tuples"].extend(
            len(shard) for shard in result.values())
        return len(result), ""

    inst.wrap(SkewAwareBalancer, "observe", "balancer.observe")
    inst.wrap(SkewAwareBalancer, "split", "balancer.split", split_measure)
    for backend in (WorkerPool, ProcessBackend):
        inst.wrap(backend, "dispatch", "backend.dispatch")
        inst.wrap(backend, "drain", "backend.drain")
        inst.wrap(backend, "collect", "backend.collect")
    inst.wrap(StreamingSession, "process", "session.process",
              _session_batch_len)
    inst.wrap(StreamingSession, "merge_from", "session.merge")
    inst.wrap(StreamingSession, "absorb", "session.merge")
    inst.wrap(fastpath, "run_fast", "fastpath.run_fast", _run_fast_measure)
    for kernel in (HistogramKernel, PartitionKernel, HyperLogLogKernel,
                   HeavyHitterKernel):
        inst.wrap(kernel, "process_batch", "kernel.process_batch",
                  _kernel_tag)
        inst.wrap(kernel, "collect", "kernel.collect", _kernel_tag)
        inst.wrap(kernel, "combine_results", "kernel.combine", _kernel_tag)
    for attr in sorted(vars(ServiceMetrics)):
        if attr.startswith(("record_", "sample_")):
            inst.wrap(ServiceMetrics, attr, "metrics.record")
    inst.wrap(protocol, "batch_payload", "protocol.encode")
    inst.wrap(protocol, "encode", "protocol.encode", _result_len)
    inst.wrap(protocol, "decode", "protocol.decode")
    inst.wrap(protocol, "decode_batch", "protocol.decode")
    inst.wrap(IngestBuffer, "poll_ready", "gateway.poll_ready", _source_wait)
    return inst


def instrument_worker_processes(inst: Instrumentation, tracer: Tracer,
                                spool: str) -> None:
    """Return spans from forked process-backend workers through files.

    Workers are forked from the traced process, so they inherit the
    wrappers.  The worker entry point is replaced at module level by one
    that drops the inherited spans, runs the worker, and on exit writes
    its own spans to ``spool``.
    """
    from repro.service import procpool

    original = vars(procpool)["_child_main"]

    def traced_child_main(*args, **kwargs):
        tracer.reset()
        try:
            return original(*args, **kwargs)
        finally:
            tracer.dump(os.path.join(spool, f"worker-{os.getpid()}.json"))

    inst.replace(procpool, "_child_main", traced_child_main)


# ----------------------------------------------------------------------
# Metrics from spans
# ----------------------------------------------------------------------
def _totals(spans: Sequence[Span], selves) -> Dict[str, List[float]]:
    """name -> [calls, self wall, self cpu, size, self wait].

    Wait is self wall minus self CPU per span, floored at zero: the two
    clocks tick at different resolutions, so a span that never waited
    can read a few microseconds more CPU than wall.
    """
    totals: Dict[str, List[float]] = defaultdict(
        lambda: [0, 0.0, 0.0, 0, 0.0])
    for span in spans:
        wall, cpu = selves[(span.proc, span.id)]
        entry = totals[span.name]
        entry[0] += 1
        entry[1] += wall
        entry[2] += cpu
        entry[3] += span.size
        entry[4] += max(0.0, wall - cpu)
    return totals


def layer_metrics(spans: Sequence[Span], shard_tuples: Sequence[int],
                  client_procs: Iterable[int] = ()) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (span-derived ones only).

    ``client_procs`` names the processes whose protocol spans are the
    client's (encode); protocol spans of other processes are the
    server's (decode).
    """
    selves = self_times(spans)
    client = set(client_procs)
    totals = _totals(spans, selves)
    server_side = [s for s in spans if s.proc not in client]
    client_side = [s for s in spans if s.proc in client]
    encode = _totals([s for s in client_side
                      if s.name == "protocol.encode"], selves)
    decode = _totals([s for s in server_side
                      if s.name == "protocol.decode"], selves)

    def get(name, field):
        return totals[name][field] if name in totals else 0.0

    def wait(*names):
        return sum(get(n, 4) for n in names)

    fast = [s for s in spans if s.name == "fastpath.run_fast"]
    out = {
        "dispatcher.cpu_s": get("dispatcher.run", 2),
        "dispatcher.wait_s": wait("dispatcher.run"),
        "windows.cpu_s": sum(get(n, 2) for n in (
            "windows.observe", "windows.flush", "windows.to_batch")),
        "windows.wait_s": wait("windows.observe", "windows.flush",
                               "windows.to_batch"),
        "windows.closed": get("windows.observe", 3)
        + get("windows.flush", 3),
        "balancer.cpu_s": get("balancer.observe", 2)
        + get("balancer.split", 2),
        "balancer.wait_s": wait("balancer.observe", "balancer.split"),
        "balancer.shards": get("balancer.split", 3),
        "balancer.shard_tuples_p50": (statistics.median(shard_tuples)
                                      if shard_tuples else 0.0),
        "backend.dispatch_cpu_s": get("backend.dispatch", 2),
        "backend.drain_wait_s": wait("backend.drain"),
        "backend.collect_s": get("backend.collect", 1),
        "session.process_calls": get("session.process", 0),
        "session.process_cpu_s": get("session.process", 2),
        "session.merge_cpu_s": get("session.merge", 2),
        "fastpath.cpu_s": get("fastpath.run_fast", 2),
        "fastpath.cpu_us_per_shard": (
            statistics.median(s.cpu for s in fast) * 1e6 if fast else 0.0),
        "kernel.process_batch_cpu_s": get("kernel.process_batch", 2),
        "kernel.collect_cpu_s": get("kernel.collect", 2),
        "kernel.combine_cpu_s": get("kernel.combine", 2),
        "metrics.record_calls": get("metrics.record", 0),
        "metrics.record_cpu_s": get("metrics.record", 2),
        "protocol.encode_cpu_s": encode["protocol.encode"][2]
        if "protocol.encode" in encode else 0.0,
        "protocol.decode_cpu_s": decode["protocol.decode"][2]
        if "protocol.decode" in decode else 0.0,
        "protocol.bytes": encode["protocol.encode"][3]
        if "protocol.encode" in encode else 0,
        "gateway.source_waits": get("gateway.poll_ready", 3),
    }
    return out


def cost_model(spans: Sequence[Span]) -> Dict[str, float]:
    """Fit ``cpu(shard) ≈ a + b·N`` per app over ``run_fast`` spans.

    Uses each span's inclusive thread CPU; reports ``fixed_us = a``,
    ``ns_per_tuple = b`` and ``breakeven_tuples = a / b`` (the shard
    size at which fixed and per-tuple cost are equal).
    """
    by_app: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        if span.name == "fastpath.run_fast":
            by_app[KERNEL_APP.get(span.tag, span.tag)].append(span)
    out: Dict[str, float] = {}
    for app in APPS:
        points = by_app.get(app, [])
        a, b = fit_linear([s.size for s in points], [s.cpu for s in points])
        out[f"fastpath.{app}.fixed_us"] = a * 1e6
        out[f"fastpath.{app}.ns_per_tuple"] = b * 1e9
        out[f"fastpath.{app}.breakeven_tuples"] = a / b if b else 0.0
    return out


def merge_span_files(paths: Iterable[str], run_id: str
                     ) -> Tuple[List[Span], List[int]]:
    """Spans and shard samples from the worker span files of one run."""
    spans: List[Span] = []
    samples: List[int] = []
    for path in paths:
        with open(path) as handle:
            data = json.load(handle)
        if data["run_id"] != run_id:
            continue
        spans.extend(spans_from_fields(data["spans"]))
        samples.extend(data["samples"].get("shard_tuples", []))
    return spans, samples
