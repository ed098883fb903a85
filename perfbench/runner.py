"""One benchmark run: passes, canaries, metrics, and the result line."""

from __future__ import annotations

import dataclasses
import glob
import json
import os
import shutil
import statistics
import time
from typing import Dict, List, Optional, Tuple

from perfbench import harness
from perfbench.gateway_host import GatewayServer
from perfbench.harness import PassResult, Workload
from perfbench.layers import (
    PER_LAYER_UNITS,
    cost_model,
    instrument,
    instrument_worker_processes,
    layer_metrics,
    merge_span_files,
)
from perfbench.spans import Span, Tracer, span_fields, spans_from_fields
from perfbench.stats import highest_supported_percentile, tail_percentile

#: End-to-end metrics (tracing off) and their units, in report order.
END_TO_END_UNITS = {
    "tuples_per_s": "tuples/s",
    "cpu_s_per_mtuple": "s",
    "batch_ack_ms_p50": "ms",
    "job_ms_p50": "ms",
    "sim_tuples_per_cycle": "tuples/cycle",
    "hhd_recall": "ratio",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

#: Per-layer metrics that are fixed for a given round (deterministic
#: counts and simulated quantities): averaged over one traced pass per
#: round.  Every other per-layer metric varies from pass to pass (times,
#: and counts that follow timing, such as credit requests): the median
#: over traced passes.
PER_ROUND_METRICS = (
    "windows.closed", "balancer.shards", "balancer.shard_tuples_p50",
    "balancer.rebalances", "balancer.sim_imbalance",
    "session.process_calls", "queue.delay_tuples_p50",
    "transport.bytes_copied", "transport.bytes_shared",
    "transport.slab_fallbacks", "transport.shard_retries",
)


class CanaryError(RuntimeError):
    """A simulated or count metric did not repeat exactly."""


def bench_dir(root: str) -> str:
    path = os.path.join(root, ".perfbench")
    os.makedirs(path, exist_ok=True)
    return path


# ----------------------------------------------------------------------
# Determinism canaries
# ----------------------------------------------------------------------
def check_repeat(passes: List[PassResult], new: PassResult) -> None:
    """A repeated round must reproduce its first serving exactly."""
    for old in passes:
        if old.round == new.round and old.signature() != new.signature():
            raise CanaryError(
                f"round {new.round} did not repeat exactly:\n"
                f"  first : {old.signature()}\n  repeat: {new.signature()}")


def check_span_counts(p: PassResult, metrics: Dict[str, float]) -> None:
    """Traced counts must agree with the service's own counters."""
    segments = sum(v["segments"] for v in p.snapshot["workers"].values())
    counts = {"balancer.shards": metrics["balancer.shards"],
              "session.process_calls": metrics["session.process_calls"],
              "segments recorded by the service": segments}
    if len(set(counts.values())) != 1:
        raise CanaryError(f"traced counts disagree: {counts}")


def backend_probe(seed: int) -> None:
    """Serve one small input on every backend; results and simulated
    metrics must agree exactly (transport counters differ by design)."""
    base = Workload("probe", "batch", jobs=4, tuples_per_job=16_000,
                    chunk_tuples=2_000, window_tuples=4_000, workers=2,
                    rounds=1)
    inputs = harness.make_inputs(base, seed, 0)
    signatures = {}
    for backend, transport in (("inline", "pipe"), ("process", "pipe"),
                               ("process", "shm")):
        w = dataclasses.replace(base, backend=backend, transport=transport)
        p = harness.batch_pass(w, inputs, 0, traced=False)
        if p.failed:
            raise CanaryError(f"probe on {backend}/{transport} failed its "
                              f"output checks: {p.errors}")
        signatures[f"{backend}/{transport}"] = p.signature(
            with_transport=False)
    if len(set(signatures.values())) != 1:
        raise CanaryError(f"backends disagree: {signatures}")


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def _traced_pass(w: Workload, inputs, round_: int, tracer: Tracer,
                 spool: str, server) -> PassResult:
    inst = instrument(tracer)
    if w.backend == "process":
        instrument_worker_processes(inst, tracer, spool)
    try:
        p = _pass(w, inputs, round_, True, server)
    finally:
        inst.uninstall()
    if server is None:
        p.spans = list(tracer.spans)
        p.shard_tuples = list(tracer.samples["shard_tuples"])
    else:
        # The server's spans came back over the control pipe; the
        # client's protocol spans are recorded here.
        p.spans = spans_from_fields(p.spans) + list(tracer.spans)
    files = glob.glob(os.path.join(spool, "worker-*.json"))
    worker_spans, worker_shards = merge_span_files(files, tracer.run_id)
    p.spans += worker_spans
    p.shard_tuples += worker_shards
    for path in files:
        os.unlink(path)
    tracer.reset()
    return p


def _pass(w: Workload, inputs, round_: int, traced: bool,
          server) -> PassResult:
    if w.loop == "closed":
        return harness.closed_pass(w, inputs, round_, traced, server)
    return harness.batch_pass(w, inputs, round_, traced)


def serve_passes(w: Workload, seed: int, seconds: float, trace: bool,
                 tracer: Tracer, spool: str) -> List[PassResult]:
    """Passes until the time budget is spent (and at least the minimum).

    An untimed warm-up pass of round 0 comes first: a fresh process
    serves its first pass markedly faster than every later one, so it
    is not representative of a process that keeps serving.  With
    tracing, passes alternate untraced/traced over the same round.
    """
    per_round = 2 if trace else 1
    minimum = w.min_passes() * per_round
    server = GatewayServer(tracer.run_id) if w.loop == "closed" else None
    passes: List[PassResult] = []
    try:
        warmup = _pass(w, harness.make_inputs(w, seed, 0), 0, False,
                       server)
        warmup.warmup = True
        passes.append(warmup)
        deadline = time.perf_counter() + seconds
        while len(passes) <= minimum or time.perf_counter() < deadline:
            i = len(passes) - 1
            round_ = (i // per_round) % w.rounds
            traced = trace and i % 2 == 1
            inputs = harness.make_inputs(w, seed, round_)
            if traced:
                p = _traced_pass(w, inputs, round_, tracer, spool, server)
            else:
                p = _pass(w, inputs, round_, False, server)
            check_repeat(passes, p)
            passes.append(p)
    finally:
        if server is not None:
            server.close()
    return passes


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def first_per_round(passes: List[PassResult]) -> List[PassResult]:
    seen: Dict[int, PassResult] = {}
    for p in passes:
        seen.setdefault(p.round, p)
    return [seen[r] for r in sorted(seen)]


def end_to_end(untraced: List[PassResult], rounds: List[PassResult]
               ) -> Tuple[Dict[str, float], Dict[str, int]]:
    """End-to-end metrics over the untraced timed passes (simulated ones
    over one pass per round), plus sample counts.

    Batch-ack percentiles are taken per pass (every pass has at least
    200 batches) and reported as the median over passes, so a few passes
    slowed by a busy host do not own the tail; job latencies (a few per
    pass) pool every pass's samples.
    """
    jobs = [x for p in untraced for x in p.job_ms]
    setups = [x for p in untraced for x in p.setup_s]
    exact = sum(p.hhd_exact for p in rounds)
    metrics = {
        "tuples_per_s": statistics.median(
            p.tuples / p.wall_s for p in untraced),
        "cpu_s_per_mtuple": statistics.median(
            p.cpu_s / (p.tuples / 1e6) for p in untraced),
        "batch_ack_ms_p50": statistics.median(
            tail_percentile(p.batch_ms, 50) for p in untraced),
        "job_ms_p50": tail_percentile(jobs, 50),
        "sim_tuples_per_cycle": statistics.mean(
            p.snapshot["fleet_throughput"] for p in rounds),
        "hhd_recall": (sum(p.hhd_hits for p in rounds) / exact
                       if exact else 0.0),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": max(p.peak_rss_mib for p in untraced),
    }
    samples = {"passes": len(untraced),
               "batch_ack_ms": min(len(p.batch_ms) for p in untraced),
               "job_ms": len(jobs), "setup_s": len(setups),
               "rounds": len(rounds)}
    return metrics, samples


def batch_ack_p95(passes: List[PassResult]) -> float:
    """Median over passes of each pass's batch-ack p95 (>= 200 batches
    per pass leave ten beyond it)."""
    return statistics.median(tail_percentile(p.batch_ms, 95)
                             for p in passes)


def pass_layer_metrics(p: PassResult, client_pid: Optional[int]
                       ) -> Dict[str, float]:
    """All per-layer metrics of one traced pass."""
    metrics = layer_metrics(p.spans, p.shard_tuples,
                            client_procs=[client_pid] if client_pid else [])
    check_span_counts(p, metrics)
    snap = p.snapshot
    transport = snap["transport"]
    gateway = snap["gateway"]
    metrics.update({
        "backend.worker_cpu_s": p.worker_cpu_s,
        "queue.delay_tuples_p50": (statistics.median(p.queue_delays)
                                   if p.queue_delays else 0.0),
        "balancer.rebalances": snap["rebalances"],
        "balancer.sim_imbalance": snap["imbalance"],
        "transport.bytes_copied": transport["shard_bytes_copied"],
        "transport.bytes_shared": transport["shard_bytes_shared"],
        "transport.slab_fallbacks": transport["slab_fallbacks"],
        "transport.shard_retries": transport["shard_retries"],
        "gateway.credit_stalls": gateway["credit_stalls"],
        "gateway.batches_shed": gateway["batches_shed"],
        "gateway.ingest_depth_p95": gateway["ingest_depth"]["p95"],
    })
    return metrics


def per_layer(passes: List[PassResult], sweep: Dict[str, float],
              client_pid: Optional[int]) -> Dict[str, float]:
    traced = [p for p in passes if p.traced]
    by_pass = [pass_layer_metrics(p, client_pid) for p in traced]
    first_round = {id(p) for p in first_per_round(traced)}
    out: Dict[str, float] = {}
    for name in by_pass[0]:
        if name in PER_ROUND_METRICS:
            out[name] = statistics.mean(
                m[name] for p, m in zip(traced, by_pass)
                if id(p) in first_round)
        else:
            out[name] = statistics.median(m[name] for m in by_pass)
    untraced = [p.wall_s for p in passes
                if not p.traced and not p.warmup]
    out["gateway.batch_ack_ms_p95"] = (
        batch_ack_p95(traced) if client_pid is not None else 0.0)
    out["trace.overhead_ratio"] = (
        statistics.median(p.wall_s for p in traced)
        / statistics.median(untraced))
    out.update(sweep)
    return {name: out[name] for name in PER_LAYER_UNITS}


def cost_model_sweep(seed: int, tracer: Tracer) -> Tuple[Dict[str, float],
                                                         List[Span]]:
    """Traced in-process passes at both shard sizes the fit pools:
    serve-mix's (~1k tuples per shard) and gateway-ingest's (~8k)."""
    spans: List[Span] = []
    for name, workers, window in (("sweep-1k", 4, 4_000),
                                  ("sweep-8k", 2, 16_000)):
        w = Workload(name, "batch", jobs=4, tuples_per_job=64_000,
                     chunk_tuples=2_000, window_tuples=window,
                     workers=workers, rounds=1)
        inputs = harness.make_inputs(w, seed, 0)
        inst = instrument(tracer)
        try:
            p = harness.batch_pass(w, inputs, 0, traced=True)
        finally:
            inst.uninstall()
        if p.failed:
            raise CanaryError(f"cost-model sweep failed its output "
                              f"checks: {p.errors}")
        spans += tracer.spans
        tracer.reset()
    return cost_model(spans), spans


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def write_spans(root: str, workload: str, seed: int, run_id: str,
                passes: List[PassResult], sweep_spans: List[Span]) -> str:
    path = os.path.join(bench_dir(root), f"spans-{workload}.json")
    with open(path, "w") as handle:
        json.dump({
            "run_id": run_id,
            "seed": seed,
            "passes": [{"round": p.round,
                        "spans": [span_fields(s) for s in p.spans]}
                       for p in passes if p.traced],
            "cost_model_sweep": [span_fields(s) for s in sweep_spans],
        }, handle)
    return path


def run(root: str, workload: str, seed: int, seconds: float,
        trace: bool) -> int:
    """Serve ``workload`` for ``seconds``; print the table and result."""
    w = harness.WORKLOADS[workload]
    run_id = f"{workload}-{seed}-{os.getpid()}-{time.time_ns()}"
    tracer = Tracer(run_id)
    spool = os.path.join(bench_dir(root), f"spool-{os.getpid()}")
    os.makedirs(spool, exist_ok=True)
    try:
        backend_probe(seed)
        passes = serve_passes(w, seed, seconds, trace, tracer, spool)
        sweep: Dict[str, float] = {}
        sweep_spans: List[Span] = []
        if trace:
            sweep, sweep_spans = cost_model_sweep(seed, tracer)
    finally:
        shutil.rmtree(spool, ignore_errors=True)

    untraced = [p for p in passes if not p.traced and not p.warmup]
    e2e, samples = end_to_end(untraced, first_per_round(passes))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors]
    print(f"workload {workload}  seed {seed}  run {run_id}")
    per_pass = samples["batch_ack_ms"]
    print(f"passes {samples['passes']} untraced over {samples['rounds']} "
          f"rounds; samples: batch_ack_ms >= {per_pass} per pass "
          f"(p{highest_supported_percentile(per_pass):g} supported), "
          f"job_ms {samples['job_ms']}, setup_s {samples['setup_s']}")
    print("tuples_per_s by timed pass: " + " ".join(
        f"{p.tuples / p.wall_s:.4g}" for p in untraced))
    for name, value in e2e.items():
        print(f"  {name:<24} {value:>14.6g} {END_TO_END_UNITS[name]}")
    print(f"  {'batch_ack_ms_p95':<24} {batch_ack_p95(untraced):>14.6g} ms "
          "(not bounded: see DESIGN.md)")
    print(f"  {'error_rate':<24} {failed / attempted:>14.6g} ratio "
          f"({failed} of {attempted} jobs + batches)")
    for error in errors[:10]:
        print(f"  FAILED CHECK: {error}")

    if trace:
        client_pid = os.getpid() if w.loop == "closed" else None
        layers = per_layer(passes, sweep, client_pid)
        path = write_spans(root, workload, seed, run_id, passes,
                           sweep_spans)
        print(f"per-layer metrics (traced passes; spans in {path}):")
        for name, value in layers.items():
            print(f"  {name:<34} {value:>14.6g} {PER_LAYER_UNITS[name]}")
        metrics = {name: {"value": value, "unit": PER_LAYER_UNITS[name]}
                   for name, value in layers.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in e2e.items()}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1
