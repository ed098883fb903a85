"""The gateway-ingest server process and the benchmark's handle on it.

The service and its :class:`~repro.net.StreamGateway` run in a separate
process started with the ``spawn`` method, so the client's JSON encoding
and the server's decoding, windowing and kernels compete for the two
interpreters the way a real deployment's would.  The benchmark drives
the server over a control pipe:

``("setup", workload, repeats, traced)``
    Time ``repeats`` construct-and-stop cycles, then build the live
    service and gateway (wrapping the layers first when ``traced``).
    Reply ``("ready", port, setup_seconds)``.
``("stop",)``
    Stop the gateway and the service.  Reply with the server's CPU
    seconds since ``ready``, its pipeline threads' CPU, its peak
    resident set and, when traced, its spans.
``("exit",)``
    Leave the loop; the process ends.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from typing import Any, Dict, List, Tuple

from perfbench.harness import (
    build_service,
    peak_rss_mib,
    timed_setups,
    worker_threads_cpu_s,
)
from perfbench.layers import instrument
from perfbench.spans import Tracer, span_fields
from repro.net import StreamGateway

#: Seconds to wait for the server's reply or exit before giving up.
REPLY_TIMEOUT = 120.0


def _start(w):
    service = build_service(w)
    gateway = StreamGateway(service, high_water=w.high_water)
    gateway.start()
    return service, gateway


def _stop(pair) -> None:
    service, gateway = pair
    gateway.stop()
    service.shutdown()


def serve(conn, run_id: str) -> None:
    """Server process main loop (see the module docstring)."""
    tracer = Tracer(run_id)
    live = inst = None
    cpu0 = threads0 = 0.0
    try:
        while True:
            message = conn.recv()
            if message[0] == "exit":
                return
            try:
                if message[0] == "setup":
                    _, w, repeats, traced = message
                    setups = timed_setups(lambda: _start(w), _stop, repeats)
                    inst = instrument(tracer) if traced else None
                    started = time.perf_counter()
                    live = _start(w)
                    setups.append(time.perf_counter() - started)
                    threads0 = worker_threads_cpu_s()
                    cpu0 = time.process_time()
                    conn.send(("ready", live[1].port, setups))
                elif message[0] == "stop":
                    cpu = time.process_time() - cpu0
                    worker_cpu = worker_threads_cpu_s() - threads0
                    _stop(live)
                    live = None
                    if inst is not None:
                        inst.uninstall()
                        inst = None
                    conn.send(("stopped", {
                        "cpu_s": cpu,
                        "worker_cpu_s": worker_cpu,
                        "peak_rss_mib": peak_rss_mib(),
                        "spans": [span_fields(span) for span in tracer.spans],
                        "shard_tuples": list(tracer.samples["shard_tuples"]),
                    }))
                    tracer.reset()
            except Exception:  # noqa: BLE001 — reported to the benchmark
                conn.send(("error", traceback.format_exc()))
    finally:
        if live is not None:
            _stop(live)
        conn.close()


class GatewayServer:
    """Starts the server process and relays control messages to it."""

    def __init__(self, run_id: str) -> None:
        ctx = multiprocessing.get_context("spawn")
        self._conn, child = ctx.Pipe()
        self._process = ctx.Process(target=serve, args=(child, run_id),
                                    name="perfbench-gateway")
        self._process.start()
        child.close()

    def _call(self, message: tuple, expect: str) -> tuple:
        self._conn.send(message)
        if not self._conn.poll(REPLY_TIMEOUT):
            raise RuntimeError(f"gateway server gave no {expect!r} reply")
        reply = self._conn.recv()
        if reply[0] == "error":
            raise RuntimeError(f"gateway server failed:\n{reply[1]}")
        if reply[0] != expect:
            raise RuntimeError(f"gateway server replied {reply[0]!r}")
        return reply

    def setup(self, w, repeats: int, traced: bool) -> Tuple[int, List[float]]:
        _, port, setups = self._call(("setup", w, repeats, traced), "ready")
        return port, setups

    def stop(self) -> Dict[str, Any]:
        return self._call(("stop",), "stopped")[1]

    def close(self) -> None:
        """Ask the server to exit and wait until it has."""
        try:
            self._conn.send(("exit",))
        except (BrokenPipeError, OSError):
            pass
        self._process.join(timeout=REPLY_TIMEOUT)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=10.0)
        self._conn.close()
