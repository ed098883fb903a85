import threading

import pytest

from perfbench.spans import Instrumentation, Span, Tracer, self_times


def span(id_, parent, start, end, cpu=0.0, thread=1, proc=1):
    return Span(id_, parent, f"s{id_}", proc, thread, start, end, cpu)


def test_self_time_subtracts_nested_children():
    spans = [span(1, 0, 0.0, 10.0, cpu=8.0),
             span(2, 1, 1.0, 4.0, cpu=2.0),
             span(3, 2, 2.0, 3.0, cpu=1.0)]
    selves = self_times(spans)
    assert selves[(1, 1)] == pytest.approx((7.0, 6.0))
    assert selves[(1, 2)] == pytest.approx((2.0, 1.0))
    assert selves[(1, 3)] == pytest.approx((1.0, 1.0))


def test_overlapping_children_are_not_subtracted_twice():
    spans = [span(1, 0, 0.0, 10.0, cpu=5.0),
             span(2, 1, 1.0, 4.0, cpu=1.0),
             span(3, 1, 3.0, 6.0, cpu=1.0),
             span(4, 1, 9.0, 12.0, cpu=1.0)]   # sticks out of its parent
    wall, cpu = self_times(spans)[(1, 1)]
    assert wall == pytest.approx(10.0 - 5.0 - 1.0)
    assert cpu == pytest.approx(2.0)


def test_children_are_per_thread_and_process():
    spans = [span(1, 0, 0.0, 10.0, cpu=4.0),
             span(2, 1, 2.0, 5.0, cpu=1.0, thread=2),   # other thread
             span(2, 1, 2.0, 5.0, cpu=1.0, proc=2)]     # other process
    assert self_times(spans)[(1, 1)] == pytest.approx((10.0, 4.0))


def test_self_cpu_is_floored_at_zero():
    spans = [span(1, 0, 0.0, 1.0, cpu=0.1), span(2, 1, 0.0, 1.0, cpu=0.2)]
    assert self_times(spans)[(1, 1)] == (0.0, 0.0)


def test_tracer_records_parents_and_threads():
    tracer = Tracer("run-1")

    def inner():
        return 7

    traced_inner = tracer.wrap("inner", inner)
    outer = tracer.wrap("outer", lambda: traced_inner(),
                        measure=lambda a, k, r: (3, "tag"))
    assert outer() == 7
    worker = threading.Thread(target=traced_inner)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (top,) = by_name["outer"]
    nested, other = sorted(by_name["inner"], key=lambda s: s.parent,
                           reverse=True)
    assert top.parent == 0 and (top.size, top.tag) == (3, "tag")
    assert nested.parent == top.id and nested.thread == top.thread
    assert other.parent == 0 and other.thread != top.thread
    assert top.start <= nested.start <= nested.end <= top.end


def test_instrumentation_restores_originals():
    class Layer:
        def call(self, x):
            return x + 1

    original = Layer.__dict__["call"]
    tracer = Tracer("run-2")
    inst = Instrumentation(tracer)
    inst.wrap(Layer, "call", "layer.call")
    assert Layer().call(1) == 2
    assert [s.name for s in tracer.spans] == ["layer.call"]
    inst.uninstall()
    assert Layer.__dict__["call"] is original
