"""Workloads, their inputs, and one timed pass of each.

A *run* of the benchmark serves one workload for a time budget.  Its
inputs come in ``rounds``: round ``r`` of seed ``s`` is a fixed set of
Zipf(1.5) jobs drawn from ``(s, workload, r, job)``.  Passes cycle
through the rounds and every pass builds a fresh service, so each pass
measures set-up and serving from cold service state over pre-generated
inputs.  A round served twice must produce bit-identical simulated and
count metrics (the determinism canary).

Loops:

``batch`` (serve-mix, bulk-process)
    Every job of the round is submitted up front, then one
    ``StreamService.run()`` serves them all.
``closed`` (gateway-ingest)
    One ``StreamClient`` connection; for each job: submit, stream the
    batches honouring credits, ``end``, wait for the ``result``, then
    the next job.  The service and gateway run in a separate server
    process (:mod:`perfbench.gateway_host`).
"""

from __future__ import annotations

import resource
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from perfbench import checks
from repro.net import GatewayError, StreamClient
from repro.service import StreamService, TenantSpec
from repro.service.jobs import QuotaExceededError
from repro.workloads.streams import NetworkModel, chunk_stream
from repro.workloads.zipf import ZipfGenerator

APPS = ("histo", "dp", "hll", "hhd")

#: Extra construct-and-stop cycles per pass, so ``setup_s`` is a median
#: over several set-ups even when few passes fit in the run.
SETUP_REPEATS = 9


@dataclass(frozen=True)
class Workload:
    """One serving workload (see ``DESIGN.md`` for why each exists)."""

    name: str
    loop: str                      # "batch" or "closed"
    jobs: int
    tuples_per_job: int
    chunk_tuples: int
    window_tuples: int             # window width, in line-rate tuples
    workers: int
    backend: str = "inline"
    transport: str = "pipe"
    tenants: Tuple[Tuple[str, float], ...] = ()
    rounds: int = 4
    high_water: int = 8

    @property
    def window_seconds(self) -> float:
        return self.window_tuples / NetworkModel().tuples_per_second

    @property
    def tuples_per_pass(self) -> int:
        return self.jobs * self.tuples_per_job

    @property
    def batches_per_pass(self) -> int:
        return self.jobs * -(-self.tuples_per_job // self.chunk_tuples)

    def app(self, job: int) -> str:
        """Apps cycle histo/dp/hll/hhd; with tenants, consecutive jobs
        alternate tenants and share an app, so every tenant runs every
        app."""
        return APPS[(job // max(1, len(self.tenants))) % len(APPS)]

    def tenant(self, job: int) -> Optional[str]:
        if not self.tenants:
            return None
        return self.tenants[job % len(self.tenants)][0]

    def min_passes(self) -> int:
        """Timed passes needed for every round and >= 20 job samples
        (p50 with 10 beyond)."""
        return max(self.rounds, -(-20 // self.jobs))


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("serve-mix", "batch", jobs=20, tuples_per_job=40_000,
                 chunk_tuples=4_000, window_tuples=4_000, workers=4,
                 tenants=(("interactive", 3.0), ("batch", 1.0)),
                 rounds=8),
        Workload("bulk-process", "batch", jobs=5, tuples_per_job=400_000,
                 chunk_tuples=8_192, window_tuples=65_536, workers=2,
                 backend="process", transport="shm", rounds=2),
        Workload("gateway-ingest", "closed", jobs=8, tuples_per_job=50_000,
                 chunk_tuples=2_000, window_tuples=16_000, workers=2,
                 rounds=8),
    )
}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class JobInput:
    app: str
    tenant: Optional[str]
    batches: list                  # TimestampedBatch chunks, in order
    keys: np.ndarray
    values: np.ndarray
    timestamps: np.ndarray


def job_seed(seed: int, workload: str, round_: int, job: int) -> int:
    """Dataset seed of one job, derived from the run seed only."""
    tag = sum(ord(c) for c in workload)
    return int(np.random.SeedSequence(
        [seed, tag, round_, job]).generate_state(1)[0])


def make_inputs(w: Workload, seed: int, round_: int) -> List[JobInput]:
    """Generate one round's jobs (before any timed region)."""
    jobs = []
    for j in range(w.jobs):
        data = ZipfGenerator(alpha=1.5,
                             seed=job_seed(seed, w.name, round_, j)
                             ).generate(w.tuples_per_job)
        batches = list(chunk_stream(data, w.chunk_tuples))
        jobs.append(JobInput(
            app=w.app(j), tenant=w.tenant(j), batches=batches,
            keys=data.keys, values=data.values,
            timestamps=np.concatenate([b.timestamps for b in batches])))
    return jobs


# ----------------------------------------------------------------------
# One pass
# ----------------------------------------------------------------------
@dataclass
class PassResult:
    """What one pass measured, checked and counted."""

    round: int
    traced: bool
    tuples: int
    wall_s: float
    cpu_s: float
    setup_s: List[float]
    batch_ms: List[float]
    job_ms: List[float]
    snapshot: Dict[str, Any]
    queue_delays: List[int]
    hhd_hits: int = 0
    hhd_exact: int = 0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    worker_cpu_s: float = 0.0
    peak_rss_mib: float = 0.0
    spans: list = field(default_factory=list)
    shard_tuples: List[int] = field(default_factory=list)
    warmup: bool = False

    def signature(self, with_transport: bool = True) -> tuple:
        """Everything that must repeat exactly when the round repeats.

        The transport counters differ by design across backends, so a
        cross-backend comparison leaves them out.
        """
        snap = self.snapshot
        workers = tuple(sorted(
            (str(k), v["segments"], v["tuples"], v["cycles"])
            for k, v in snap["workers"].items()))
        signature = (snap["fleet_throughput"], snap["windows_closed"],
                     snap["total_tuples"], workers, tuple(self.queue_delays),
                     self.hhd_hits, self.hhd_exact)
        if with_transport:
            transport = snap["transport"]
            signature += (transport["shards_pipe"] + transport["shards_shm"],
                          transport["shard_bytes_copied"],
                          transport["shard_bytes_shared"])
        return signature


class PullClock:
    """Stamps each source pull of the service's single dispatcher thread.

    In-process sources are plain generators, so the dispatcher's next
    pull of *any* source marks the end of its work on the previous
    batch; after a job's last batch, the next pull (or the end of
    ``run()``) marks the job's completion: its result is in hand.
    """

    def __init__(self) -> None:
        #: (time, job, is_end) per pull, in pull order.
        self.events: List[Tuple[float, int, bool]] = []

    def source(self, job: int, batches):
        for batch in batches:
            self.events.append((time.perf_counter(), job, False))
            yield batch
        self.events.append((time.perf_counter(), job, True))

    def latencies(self, submitted: List[float], end: float
                  ) -> Tuple[List[float], List[float]]:
        """(per-batch hold ms, per-job submit -> result ms)."""
        batch_ms: List[float] = []
        job_ms: List[float] = []
        for i, (stamp, job, is_end) in enumerate(self.events):
            following = (self.events[i + 1][0]
                         if i + 1 < len(self.events) else end)
            if is_end:
                job_ms.append((following - submitted[job]) * 1e3)
            else:
                batch_ms.append((following - stamp) * 1e3)
        return batch_ms, job_ms


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def worker_threads_cpu_s() -> float:
    """CPU seconds of the live inline pipeline-worker threads."""
    total = 0.0
    for thread in threading.enumerate():
        if thread.name.startswith("pipeline-worker-") \
                and thread.ident is not None:
            try:
                total += time.clock_gettime(
                    time.pthread_getcpuclockid(thread.ident))
            except (OSError, ProcessLookupError):
                pass  # the thread exited between enumerate and read
    return total


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def build_service(w: Workload):
    """Construct the workload's service and start its fleet."""
    service = StreamService(workers=w.workers, balancer="skew",
                            backend=w.backend, transport=w.transport)
    for name, weight in w.tenants:
        service.register_tenant(TenantSpec(name, weight=weight))
    service.run()   # an empty queue: starts (forks) the fleet and returns
    return service


def timed_setups(build, teardown, repeats: int) -> List[float]:
    """Set-up time of ``repeats`` construct-and-stop cycles."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        obj = build()
        samples.append(time.perf_counter() - start)
        teardown(obj)
    return samples


def check_results(w: Workload, inputs: List[JobInput], results,
                  out: PassResult) -> None:
    """Check every job's output; count failures into ``out``."""
    for job, result in zip(inputs, results):
        if isinstance(result, str):
            out.failed += 1
            out.errors.append(result)
            continue
        if result.tuples != len(job.keys) or result.late_tuples:
            problem = (f"{job.app}: served {result.tuples} of "
                       f"{len(job.keys)} tuples, {result.late_tuples} late")
        else:
            problem = checks.check_job(job.app, result.result, job.keys,
                                       job.values, job.timestamps,
                                       w.window_seconds)
        if problem is not None:
            out.failed += 1
            out.errors.append(problem)
        if job.app == "hhd":
            hits, exact = checks.hhd_recall_counts(
                result.result, job.keys, checks.hhd_threshold())
            out.hhd_hits += hits
            out.hhd_exact += exact


def batch_pass(w: Workload, inputs: List[JobInput], round_: int,
               traced: bool) -> PassResult:
    """Serve one round in-process: submit every job, then ``run()``."""
    setups = timed_setups(lambda: build_service(w),
                          lambda s: s.shutdown(), SETUP_REPEATS)
    start = time.perf_counter()
    service = build_service(w)
    setups.append(time.perf_counter() - start)

    clock = PullClock()
    children0 = children_cpu_s()
    threads0 = worker_threads_cpu_s()
    cpu0 = time.process_time()
    start = time.perf_counter()
    submitted = []
    ids = []
    for index, job in enumerate(inputs):
        submitted.append(time.perf_counter())
        ids.append(service.submit(job.app, clock.source(index, job.batches),
                                  window_seconds=w.window_seconds,
                                  tenant_id=job.tenant))
    service.run()
    results = []
    for job_id in ids:
        try:
            results.append(service.result(job_id))
        except RuntimeError as exc:
            results.append(f"job {job_id} did not complete: {exc}")
    end = time.perf_counter()
    cpu = time.process_time() - cpu0
    worker_cpu = worker_threads_cpu_s() - threads0
    snapshot = service.metrics.snapshot()
    service.shutdown()
    children = children_cpu_s() - children0
    if w.backend == "process":
        worker_cpu = children

    batch_ms, job_ms = clock.latencies(submitted, end)
    out = PassResult(
        round=round_, traced=traced,
        tuples=w.tuples_per_pass,
        wall_s=end - start, cpu_s=cpu + children, setup_s=setups,
        batch_ms=batch_ms, job_ms=job_ms, snapshot=snapshot,
        queue_delays=[r.queue_delay for r in results
                      if not isinstance(r, str)],
        attempted=w.jobs + w.batches_per_pass, worker_cpu_s=worker_cpu,
        peak_rss_mib=peak_rss_mib())
    check_results(w, inputs, results, out)
    return out


def closed_pass(w: Workload, inputs: List[JobInput], round_: int,
                traced: bool, server) -> PassResult:
    """Serve one round over the network in a closed loop."""
    port, setups = server.setup(w, SETUP_REPEATS, traced)
    batch_ms: List[float] = []
    job_ms: List[float] = []
    results: List[Any] = []
    start = time.perf_counter()
    client = StreamClient("127.0.0.1", port)
    try:
        for job in inputs:
            submitted = time.perf_counter()
            try:
                job_id = client.submit(job.app,
                                       window_seconds=w.window_seconds)
                for batch in job.batches:
                    sent = time.perf_counter()
                    client.send_batch(job_id, batch)
                    batch_ms.append((time.perf_counter() - sent) * 1e3)
                client.end(job_id)
                results.append(client.result(job_id))
                job_ms.append((time.perf_counter() - submitted) * 1e3)
            except (GatewayError, QuotaExceededError) as exc:
                results.append(f"{job.app} refused or failed: {exc}")
        end = time.perf_counter()
        snapshot = client.stats()
    finally:
        client.close()
    stats = server.stop()

    out = PassResult(
        round=round_, traced=traced,
        tuples=w.tuples_per_pass,
        wall_s=end - start, cpu_s=stats["cpu_s"], setup_s=setups,
        batch_ms=batch_ms, job_ms=job_ms, snapshot=snapshot,
        queue_delays=[r.queue_delay for r in results
                      if not isinstance(r, str)],
        attempted=w.jobs + w.batches_per_pass,
        failed=snapshot["gateway"]["batches_shed"],
        worker_cpu_s=stats["worker_cpu_s"],
        peak_rss_mib=stats["peak_rss_mib"],
        spans=stats["spans"], shard_tuples=stats["shard_tuples"])
    check_results(w, inputs, results, out)
    return out
