"""Tracer v2: ring bounds, name index, spans, nesting fix."""

from __future__ import annotations

import pytest

from repro.obs.trace import DEFAULT_RING_CAPACITY, EventRing, TraceEvent, Tracer


class FakeClock:
    def __init__(self):
        self.now = 0


def make_tracer(**kw) -> tuple[Tracer, FakeClock]:
    clk = FakeClock()
    return Tracer(clk, **kw), clk


# ---------------------------------------------------------------- ring

class TestEventRing:
    def test_append_and_iterate(self):
        ring = EventRing(capacity=4)
        evs = [TraceEvent(i, "a", {}) for i in range(3)]
        for e in evs:
            ring.append(e)
        assert list(ring) == evs
        assert len(ring) == 3
        assert ring[0] is evs[0]
        assert ring.dropped == 0

    def test_overflow_drops_oldest(self):
        ring = EventRing(capacity=3)
        for i in range(5):
            ring.append(TraceEvent(i, f"e{i}", {}))
        assert [e.name for e in ring] == ["e2", "e3", "e4"]
        assert ring.dropped == 2

    def test_overflow_keeps_name_index_consistent(self):
        ring = EventRing(capacity=3)
        for i in range(5):
            ring.append(TraceEvent(i, "x" if i % 2 == 0 else "y", {}))
        # ring now holds t=2(x), 3(y), 4(x); t=0(x), 1(y) were evicted
        assert [e.t for e in ring.by_name("x")] == [2, 4]
        assert [e.t for e in ring.by_name("y")] == [3]
        assert ring.names() == {"x", "y"}

    def test_equality_with_plain_list(self):
        ring = EventRing(capacity=8)
        e = TraceEvent(1, "a", {"k": 1})
        ring.append(e)
        assert ring == [e]
        assert EventRing(capacity=8) == []

    def test_clear_resets_dropped(self):
        ring = EventRing(capacity=1)
        ring.append(TraceEvent(0, "a", {}))
        ring.append(TraceEvent(1, "a", {}))
        assert ring.dropped == 1
        ring.clear()
        assert ring.dropped == 0 and len(ring) == 0 and not ring


# ---------------------------------------------------------------- tracer

class TestTracer:
    def test_mark_records_time_and_info(self):
        t, clk = make_tracer()
        clk.now = 42
        t.mark("boot", cat="sched", vm=3)
        (e,) = t.events
        assert (e.t, e.name, e.cat, e.info) == (42, "boot", "sched", {"vm": 3})

    def test_mark_at_uses_explicit_timestamp(self):
        t, clk = make_tracer()
        clk.now = 100
        t.mark_at(90, "vector", cat="vgic", irq=7)
        assert t.events[0].t == 90

    def test_default_capacity(self):
        t, _ = make_tracer()
        assert t.events.capacity == DEFAULT_RING_CAPACITY

    def test_ring_overflow_through_tracer(self):
        t, clk = make_tracer(capacity=10)
        for i in range(25):
            clk.now = i
            t.mark("tick", i=i)
        assert len(t.events) == 10
        assert t.dropped == 15
        assert [e.info["i"] for e in t.find("tick")] == list(range(15, 25))

    def test_find_and_count(self):
        t, clk = make_tracer()
        for vm in (1, 2, 1):
            t.mark("switch", vm=vm)
        assert t.count("switch") == 3
        assert len(t.find("switch", vm=1)) == 2
        assert t.find("nothing") == []

    def test_clear(self):
        t, clk = make_tracer()
        t.mark("a")
        t.clear()
        assert list(t.events) == [] and t.count("a") == 0

    def test_span_emits_start_end_pair(self):
        t, clk = make_tracer()
        clk.now = 10
        with t.span("work", cat="hwmgr", vm=2):
            clk.now = 25
        names = [e.name for e in t.events]
        assert names == ["work_start", "work_end"]
        ((d, s, e),) = t.spans("work", key="vm")
        assert (d, s.t, e.t) == (15, 10, 25)
        assert s.cat == e.cat == "hwmgr"

    def test_span_closes_on_exception(self):
        t, clk = make_tracer()
        with pytest.raises(ValueError):
            with t.span("work", vm=1):
                raise ValueError("boom")
        assert [e.name for e in t.events] == ["work_start", "work_end"]


# ---------------------------------------------------------------- intervals

class TestIntervals:
    def test_basic_pairing_by_key(self):
        t, clk = make_tracer()
        clk.now = 0
        t.mark("a_start", seq=1)
        clk.now = 5
        t.mark("a_start", seq=2)
        clk.now = 7
        t.mark("a_end", seq=1)
        clk.now = 9
        t.mark("a_end", seq=2)
        got = {s.info["seq"]: d for d, s, _ in t.intervals("a_start", "a_end", key="seq")}
        assert got == {1: 7, 2: 4}

    def test_unmatched_end_ignored(self):
        t, _ = make_tracer()
        t.mark("a_end", seq=9)
        assert t.intervals("a_start", "a_end", key="seq") == []

    def test_nested_same_key_spans_pair_inside_out(self):
        """Regression: nested spans with the SAME key value used to clobber
        the open entry, yielding one wrong interval instead of two."""
        t, clk = make_tracer()
        clk.now = 0
        t.mark("s_start", vm=1)      # outer
        clk.now = 10
        t.mark("s_start", vm=1)      # inner (same key!)
        clk.now = 15
        t.mark("s_end", vm=1)        # closes inner
        clk.now = 30
        t.mark("s_end", vm=1)        # closes outer
        out = t.intervals("s_start", "s_end", key="vm")
        assert sorted(d for d, _, _ in out) == [5, 30]
        inner = min(out, key=lambda x: x[0])
        assert (inner[1].t, inner[2].t) == (10, 15)
