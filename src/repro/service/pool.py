"""Inline execution backend: K pipeline workers on the dispatcher thread.

Each worker is a slot owning a per-job
:class:`~repro.runtime.session.StreamingSession` (so one worker
accumulates its shard of every job it touches across windows — session
reuse is what makes per-window dispatch cheap).  :meth:`WorkerPool.dispatch`
runs the shard synchronously on the caller's thread, so by the time it
returns the segment is processed, metered and traced.  The pool mirrors
the warm-pool executor shape from the ModelOps related work: workers
stay up across jobs, work routing is the balancer's problem, and
partial results merge on collection.

This is the ``backend="inline"`` adapter of the
:class:`~repro.service.executor.ExecutionBackend` port — deterministic
by construction and replay safe; the multi-core raw-speed adapter lives
in :mod:`repro.service.procpool`.

The fleet's parallelism is modeled, not executed: throughput accounting
is in deterministic simulated cycles — see :mod:`repro.service.metrics`.

Sessions are keyed ``(worker_id, generation, job_id)``: the pool bumps
its generation every time it mints new workers (grow, restart), so a
worker id freed by a scale-down and later reissued by a scale-up can
never silently adopt the removed worker's retained partial session.
"""

from __future__ import annotations

import threading
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs import events as trace_events
from repro.obs.collector import TraceCollector
from repro.runtime.session import StreamingSession
from repro.service.executor import ExecutionBackend
from repro.service.jobs import DEFAULT_TENANT
from repro.workloads.tuples import TupleBatch


@dataclass
class WorkItem:
    """One worker's shard of one closed window.

    ``tenant_id`` rides along so the worker can charge the segment's
    tuples and cycles to the owning tenant's metrics.  ``dispatch_clock``
    is the dispatch-clock reading stamped by the dispatcher thread when
    the shard was routed — segment trace events carry it instead of a
    read at completion time, which is what makes their timestamps
    identical across the inline and process backends (inline workers
    record inside dispatch, process children ship ledgers back at drain).
    """

    job_id: str
    batch: TupleBatch
    tenant_id: str = DEFAULT_TENANT
    dispatch_clock: int = 0


class WorkerPool(ExecutionBackend):
    """K pipeline workers with per-(worker, job) streaming sessions.

    Parameters
    ----------
    workers:
        Fleet size K.
    session_factory:
        ``job_id -> StreamingSession`` building a fresh session (with its
        own kernel instance) the first time a worker sees a job.
    metrics:
        Shared :class:`~repro.service.metrics.ServiceMetrics`.
    tracer:
        Optional :class:`~repro.obs.collector.TraceCollector`; a
        disabled collector is installed when omitted so hot paths can
        guard on ``tracer.enabled`` unconditionally.
    """

    def __init__(
        self,
        workers: int,
        session_factory: Callable[[str], StreamingSession],
        metrics,
        tracer: Optional[TraceCollector] = None,
    ) -> None:
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.size = workers
        self.session_factory = session_factory
        self.metrics = metrics
        self.tracer = tracer if tracer is not None else TraceCollector(
            enabled=False)
        self._generation = 0
        #: ``_workers[i]`` is the generation worker ``i`` was minted in.
        self._workers: List[int] = [self._generation] * workers
        self._sessions: Dict[Tuple[int, int, str], StreamingSession] = {}  # guarded-by: _lock
        self._errors: Dict[str, List[str]] = {}  # guarded-by: _lock
        self._lock = threading.Lock()
        self._started = False
        self._ran = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        # A restart mints the whole fleet afresh under a new generation,
        # like the process backend's re-fork.
        if self._ran:
            self._generation += 1
            self._workers = [self._generation] * self.size
        self._started = self._ran = True
        self._trace_forks(range(self.size))

    def stop(self) -> None:
        """Stop the fleet; every dispatched shard is already processed.

        Partial sessions stay registered, so a post-stop :meth:`collect`
        still merges them, and a later :meth:`start` serves again.
        """
        self._started = False

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def dispatch(self, worker_id: int, item: WorkItem) -> None:  # hot-path
        """Process one shard on one worker, on the caller's thread.

        A raising shard is recorded in the job's error ledger
        (:meth:`errors`), never raised out of dispatch.
        """
        if not 0 <= worker_id < self.size:
            raise ValueError(f"no such worker {worker_id}")
        if not self._started:
            raise RuntimeError("pool is not running; call start() first")
        if len(item.batch) == 0:
            return
        generation = self._workers[worker_id]
        try:
            session = self._session(worker_id, generation, item.job_id)
            outcome = session.process(item.batch)
            self.metrics.record_segment(
                worker_id, outcome.tuples, outcome.cycles,
                tenant=item.tenant_id)
            if self.tracer.enabled:
                self.tracer.emit(
                    trace_events.JOB_SEGMENT, item.dispatch_clock,
                    job_id=item.job_id, tenant_id=item.tenant_id,
                    worker=worker_id, generation=generation,
                    tuples=outcome.tuples, cycles=outcome.cycles)
        except Exception as exc:  # noqa: BLE001 — reported via errors()
            self._record_error(item.job_id, exc)

    def drain(self) -> None:
        """Barrier: dispatch is synchronous, so nothing is outstanding."""
        if self.tracer.enabled:
            self.tracer.emit(trace_events.BACKEND_DRAIN,
                             backend="inline", workers=self.size)

    def resize(self, workers: int) -> None:
        """Grow or shrink the fleet to ``workers`` pipeline instances.

        Growing mints the new workers under a new pool generation, so a
        worker id that was removed by an earlier shrink cannot adopt the
        removed worker's retained partial session.  Shrinking drops the
        highest-numbered workers; their per-job partial sessions stay
        registered so :meth:`collect` still merges them.  Callers must
        stop routing to removed worker IDs first (the balancer's
        ``reconfigure`` does this).
        """
        if workers <= 0:
            raise ValueError("workers must be positive")
        if workers == self.size:
            return
        if workers > self.size:
            self._generation += 1
            self._workers.extend(
                [self._generation] * (workers - self.size))
            grown = range(self.size, workers)
            self.size = workers
            if self._started:
                self._trace_forks(grown)
            return
        self._workers = self._workers[:workers]
        self.size = workers

    def _trace_forks(self, worker_ids) -> None:
        if self.tracer.enabled:
            for worker_id in worker_ids:
                self.tracer.emit(
                    trace_events.BACKEND_FORK, worker=worker_id,
                    generation=self._workers[worker_id],
                    worker_kind="inline")

    # ------------------------------------------------------------------
    # Session management and collection
    # ------------------------------------------------------------------
    def _session(self, worker_id: int, generation: int,
                 job_id: str) -> StreamingSession:
        key = (worker_id, generation, job_id)
        with self._lock:
            session = self._sessions.get(key)
            if session is None:
                session = self.session_factory(job_id)
                self._sessions[key] = session
            return session

    def _record_error(self, job_id: str, exc: Exception) -> None:
        with self._lock:
            self._errors.setdefault(job_id, []).append(
                "".join(traceback.format_exception_only(type(exc), exc))
                .strip()
            )

    def errors(self, job_id: str) -> List[str]:
        with self._lock:
            return list(self._errors.get(job_id, []))

    def clear_errors(self, job_id: str) -> None:
        """Drop one job's error ledger.

        Called when a job starts (so a resubmitted client-chosen job id
        does not inherit a previous run's errors and fail instantly) and
        by :meth:`collect` (so the ledger cannot grow without bound).
        """
        with self._lock:
            self._errors.pop(job_id, None)

    def collect(self, job_id: str) -> Optional[StreamingSession]:
        """Merge the per-worker partial sessions of one finished job.

        Call only after :meth:`drain`.  Returns None if no worker
        processed any tuple for the job.  The per-worker sessions (and
        the job's error ledger) are released, so collection is one-shot.
        Partials merge in ascending (worker_id, generation) order — the
        fixed order both backends share, which keeps order-sensitive
        reductions (partition lists) bit-identical across backends.
        """
        partials: List[StreamingSession] = []
        with self._lock:
            self._errors.pop(job_id, None)
            # Iterate the session registry, not range(size): workers
            # removed by a scale-down still hold partials to merge.
            owned = sorted(key for key in self._sessions
                           if key[2] == job_id)
            for key in owned:
                partial = self._sessions.pop(key)
                if partial.history:
                    partials.append(partial)
        if not partials:
            return None
        merged = self.session_factory(job_id)
        for partial in partials:
            merged.merge_from(partial)
        return merged


#: Port-facing alias: the dispatcher-thread adapter is ``"inline"``.
InlineBackend = WorkerPool
