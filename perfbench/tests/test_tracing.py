"""Span arithmetic and the wrappers that record spans."""

import time

import pytest

import tracing
from tracing import ID, INNER, NAME


def span(ident, name, cpu, parent=0, inner=None, start=0.0, end=1.0):
    return [ident, name, start, end, parent, "", inner, cpu]


def test_self_time_subtracts_children_and_timed_calls():
    spans = [
        span(1, "root", 10.0, inner={"hardware.trace_record": 1.0,
                                     "#hardware.trace_record": 5}),
        span(2, "a", 3.0, parent=1),
        span(3, "b", 3.0, parent=1),
        span(4, "c", 1.0, parent=2),
    ]
    selves = tracing.span_self_times(spans)
    assert selves == {1: pytest.approx(3.0), 2: pytest.approx(2.0),
                      3: pytest.approx(3.0), 4: pytest.approx(1.0)}
    seconds, units = tracing.layer_totals(spans)
    # Self times plus timed calls add back up to the root's CPU time.
    assert sum(seconds.values()) == pytest.approx(10.0)
    assert seconds["hardware.trace_record"] == 1.0
    assert units == {"hardware.trace_record": 5}


def test_subtree_filter():
    spans = [span(1, "service.execute", 4.0),
             span(2, "oblivious.sort", 1.0, parent=1),
             span(3, "net.wire", 1.0)]
    assert tracing.subtree_ids(spans, {1}) == {1, 2}
    seconds, _ = tracing.layer_totals(spans, {1, 2})
    assert seconds == {"service.execute": 3.0, "oblivious.sort": 1.0}


def busy(seconds):
    """Spin on the CPU (sleeping would add no CPU time)."""
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


def test_live_wrappers_add_up_to_the_root():
    tracer = tracing.Tracer()

    def leaf(n):
        busy(0.001)
        return n

    timed_leaf = tracer.wrap_timer("hardware.trace_record", leaf)

    def batch(items):
        return [timed_leaf(i) for i in items]

    spanned = tracer.wrap_span("hardware.slot_io", batch,
                               units=lambda items: len(items), materialize=0)

    def outer():
        spanned(iter(range(3)))     # a one-shot iterator is materialized
        spanned([1, 2])
        timed_leaf(0)
        return tracer.wrap_span("hardware.slot_io", batch,
                                units=lambda items: len(items))([7])

    with tracer.span("service.execute", "job-1") as root:
        tracer.wrap_span("oblivious.sort", outer)()
    spans = tracer.spans()
    assert {s[NAME] for s in spans} == {"service.execute", "oblivious.sort",
                                        "hardware.slot_io"}
    assert all(s[tracing.JOB] == "job-1" for s in spans)
    seconds, units = tracing.layer_totals(spans)
    assert sum(seconds.values()) == pytest.approx(root[tracing.CPU], rel=1e-9)
    assert root[tracing.END] - root[tracing.START] >= root[tracing.CPU] * 0.5
    assert units["hardware.trace_record"] == 7
    assert units["hardware.slot_io"] == 6
    assert sum(s[NAME] == "hardware.slot_io" for s in spans) == 3
    assert seconds["hardware.trace_record"] >= 0.007


def test_nested_calls_of_one_layer_count_units_once():
    tracer = tracing.Tracer()
    inner = tracer.wrap_span("crypto.ocb", lambda cells: cells,
                             units=lambda cells: len(cells))
    outer = tracer.wrap_span("crypto.ocb", lambda cells: inner(cells),
                             units=lambda cells: len(cells))
    outer([b"a", b"b", b"c"])
    spans = tracer.spans()
    _, units = tracing.layer_totals(spans)
    assert units["crypto.ocb"] == 3 and len(spans) == 2


def test_timer_outside_any_span_is_still_counted():
    tracer = tracing.Tracer()
    tracer.wrap_timer("crypto.party", lambda: None)()
    [record] = tracer.spans()
    assert record[NAME] == "crypto.party"
    assert record[INNER]["#crypto.party"] == 1


def test_install_wraps_and_undo_restores():
    import repro.hardware.events as events
    import repro.oblivious.filterbuf as filterbuf
    import repro.oblivious.sort as sort

    record = events.Trace.record
    sort_fn = sort.oblivious_sort_indices
    filter_fn = filterbuf.oblivious_filter
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        assert events.Trace.record is not record
        assert sort.oblivious_sort_indices is not sort_fn
        assert filterbuf.oblivious_filter is not filter_fn
        trace = events.Trace()
        trace.record("get", "A", 0)
        assert len(trace) == 1
    finally:
        patches.undo()
    assert events.Trace.record is record
    assert sort.oblivious_sort_indices is sort_fn
    assert filterbuf.oblivious_filter is filter_fn
    assert tracer.spans()[0][ID] >= 1
