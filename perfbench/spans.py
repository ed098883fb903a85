"""In-memory spans recorded around calls into the service's layers.

The traced run wraps public functions of each layer at class or module
level (nothing under ``src/`` changes).  Every call becomes a
:class:`Span` with its wall interval, the calling thread's CPU time
(``time.thread_time``) and the span that was open on the same thread
when it started, so a layer's *self* time is its span minus the part
its children cover, and its wait time is self wall minus self CPU.

Spans stay in memory and are written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Span:
    """One traced call: ``name`` on ``(proc, thread)`` from start to end."""

    id: int
    parent: int          # 0 when no span was open on the thread
    name: str
    proc: int
    thread: int
    start: float
    end: float
    cpu: float           # calling thread's CPU seconds inside the call
    size: int = 0        # tuples, shards or windows, depending on name
    tag: str = ""        # e.g. the kernel class for per-app spans

    @property
    def wall(self) -> float:
        return self.end - self.start


#: ``measure(args, kwargs, result) -> (size, tag)`` for one wrapped call.
Measure = Callable[[tuple, dict, object], Tuple[int, str]]


class Tracer:
    """Collects spans from every thread of one process.

    ``run_id`` is shared by all spans of one benchmark run, including
    those shipped back from worker or server processes.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        #: Extra per-call samples a span cannot hold (shard sizes).
        self.samples: Dict[str, List[int]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def reset(self) -> None:
        """Forget all spans and open-span stacks (a forked child starts
        with its parent's state and must not report it twice)."""
        self.spans = []
        self.samples = defaultdict(list)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             measure: Optional[Measure] = None) -> Callable:
        """``fn`` recording one span named ``name`` per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            cpu0 = time.thread_time()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                cpu = time.thread_time() - cpu0
                end = time.perf_counter()
                stack.pop()
                size, tag = (measure(args, kwargs, result)
                             if measure is not None else (0, ""))
                self.spans.append(Span(
                    span_id, parent, name, os.getpid(),
                    threading.get_ident(), start, end, cpu, size, tag))

        return traced

    def dump(self, path: str) -> None:
        """Write this process's spans and samples to ``path`` (JSON)."""
        with open(path, "w") as handle:
            json.dump({"run_id": self.run_id,
                       "spans": [span_fields(s) for s in self.spans],
                       "samples": dict(self.samples)}, handle)


def span_fields(span: Span) -> list:
    return [span.id, span.parent, span.name, span.proc, span.thread,
            span.start, span.end, span.cpu, span.size, span.tag]


def spans_from_fields(rows: Iterable[list]) -> List[Span]:
    return [Span(*row) for row in rows]


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]
               ) -> Dict[Tuple[int, int], Tuple[float, float]]:
    """``(proc, id) -> (self wall, self cpu)`` for every span.

    Children are the spans opened on the same process and thread while
    their parent was open.  Self wall is the parent's interval minus the
    union of its children's intervals (clipped to the parent, so
    overlapping children are not subtracted twice); self CPU is the
    parent's thread CPU minus its children's, floored at zero.
    """
    children: Dict[Tuple[int, int, int], List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent:
            children[(span.proc, span.thread, span.parent)].append(span)
    out: Dict[Tuple[int, int], Tuple[float, float]] = {}
    for span in spans:
        kids = children.get((span.proc, span.thread, span.id), [])
        clipped = [(max(k.start, span.start), min(k.end, span.end))
                   for k in kids if k.end > span.start and k.start < span.end]
        wall = max(0.0, span.wall - _covered(clipped))
        cpu = max(0.0, span.cpu - sum(k.cpu for k in kids))
        out[(span.proc, span.id)] = (wall, cpu)
    return out


# ----------------------------------------------------------------------
# Installing wrappers
# ----------------------------------------------------------------------
class Instrumentation:
    """Installs tracer wrappers on classes/modules and removes them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._installed: List[Tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, name: str,
             measure: Optional[Measure] = None) -> None:
        """Replace ``owner.attr`` (defined on ``owner`` itself) by a
        traced version recording spans named ``name``."""
        original = vars(owner)[attr]
        self._installed.append((owner, attr, original))
        setattr(owner, attr, self.tracer.wrap(name, original, measure))

    def replace(self, owner: object, attr: str, value: object) -> None:
        """Replace ``owner.attr`` by ``value`` until :meth:`uninstall`."""
        self._installed.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()
