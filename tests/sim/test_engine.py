"""Discrete-event engine semantics."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import SimulationError
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Clock, Simulator


def test_clock_advances():
    c = Clock()
    assert c.now == 0
    c.advance(100)
    c.advance_to(250)
    assert c.now == 250


def test_clock_refuses_backwards():
    c = Clock()
    c.advance(10)
    with pytest.raises(SimulationError):
        c.advance(-1)
    with pytest.raises(SimulationError):
        c.advance_to(5)


def test_events_fire_in_time_order():
    sim = Simulator(MetricsRegistry())
    fired = []
    sim.schedule(30, fired.append, "c")
    sim.schedule(10, fired.append, "a")
    sim.schedule(20, fired.append, "b")
    sim.run_until(100)
    assert fired == ["a", "b", "c"]
    assert sim.now == 100


def test_same_time_events_fire_fifo():
    sim = Simulator(MetricsRegistry())
    fired = []
    for i in range(5):
        sim.schedule(10, fired.append, i)
    sim.run_until(10)
    assert fired == [0, 1, 2, 3, 4]


def test_cancel_prevents_firing():
    metrics = MetricsRegistry()
    sim = Simulator(metrics)
    fired = []
    h = sim.schedule(10, fired.append, "x")
    sim.schedule(20, fired.append, "y")
    h.cancel()
    assert not h.pending
    sim.run_until(50)
    assert fired == ["y"]
    assert metrics.total("sim.events_fired") == 1


def test_dispatch_due_only_past_events():
    sim = Simulator(MetricsRegistry())
    fired = []
    sim.schedule(10, fired.append, "soon")
    sim.schedule(1000, fired.append, "later")
    sim.clock.advance(10)
    assert sim.dispatch_due() == 1
    assert fired == ["soon"]
    assert sim.pending_count == 1


def test_event_can_schedule_due_event():
    sim = Simulator(MetricsRegistry())
    fired = []

    def chain():
        fired.append("first")
        sim.schedule(0, fired.append, "second")

    sim.schedule(5, chain)
    sim.clock.advance(5)
    sim.dispatch_due()
    assert fired == ["first", "second"]


def test_advance_to_next_event():
    sim = Simulator(MetricsRegistry())
    fired = []
    sim.schedule(500, fired.append, "x")
    assert sim.advance_to_next_event()
    assert sim.now == 500 and fired == ["x"]
    assert not sim.advance_to_next_event()


def test_cannot_schedule_in_past():
    sim = Simulator(MetricsRegistry())
    sim.clock.advance(100)
    with pytest.raises(SimulationError):
        sim.schedule_at(50, lambda: None)


def test_next_event_time_skips_cancelled():
    sim = Simulator(MetricsRegistry())
    h = sim.schedule(10, lambda: None)
    sim.schedule(20, lambda: None)
    h.cancel()
    assert sim.next_event_time() == 20


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=50))
def test_events_always_fire_sorted(delays):
    sim = Simulator(MetricsRegistry())
    fired = []
    for d in delays:
        sim.schedule(d, lambda d=d: fired.append(d))
    sim.run_until(10_001)
    assert fired == sorted(delays)
