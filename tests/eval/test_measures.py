"""Trace-to-overhead extraction and the Fig. 9 math."""

import pytest

from repro.eval.fig9 import degradation_from_table3
from repro.eval.measures import OverheadSamples, _trimmed_mean, extract_overheads
from repro.eval.table3 import Table3Result
from repro.kernel.hypercalls import Hc
from repro.obs.trace import Tracer


class _Clock:
    def __init__(self):
        self.now = 0


def make_trace(events):
    t = Tracer()
    clock = _Clock()
    t.bind(clock)
    for time, name, info in events:
        clock.now = time
        t.mark(name, **info)
    return t


REQ = int(Hc.HWTASK_REQUEST)


def test_basic_request_pairing():
    t = make_trace([
        (100, "hwreq_trap", {"vm": 1, "hc": REQ, "rid": 1}),
        (150, "mgr_exec_start", {"vm": 1, "rid": 1}),
        (950, "mgr_exec_end", {"vm": 1, "rid": 1}),
        (1000, "hwreq_resumed", {"vm": 1, "rid": 1}),
    ])
    s = extract_overheads(t)
    assert s.entry == [50]
    assert s.execution == [800]
    assert s.exit == [50]
    assert s.total == [900]


def test_interleaved_vms_pair_independently():
    t = make_trace([
        (100, "hwreq_trap", {"vm": 1, "hc": REQ, "rid": 1}),
        (110, "mgr_exec_start", {"vm": 1, "rid": 1}),
        (200, "hwreq_trap", {"vm": 2, "hc": REQ, "rid": 2}),  # queued
        (300, "mgr_exec_end", {"vm": 1, "rid": 1}),
        (310, "mgr_exec_start", {"vm": 2, "rid": 2}),
        (400, "mgr_exec_end", {"vm": 2, "rid": 2}),
        (420, "hwreq_resumed", {"vm": 2, "rid": 2}),
        (500, "hwreq_resumed", {"vm": 1, "rid": 1}),
    ])
    s = extract_overheads(t)
    assert s.execution == [90, 190]        # in resume order: vm2 first
    assert len(s.total) == 2


def test_kernel_originated_mgr_exec_leaves_request_alone():
    """A watchdog/client_died reclaim names the client's VM but carries no
    request ID; queued ahead of the client's request, it must not be
    read as that request's manager run (pairing by VM order would split
    the request 10/40/800)."""
    t = make_trace([
        (100, "hwreq_trap", {"vm": 1, "hc": REQ, "rid": 1}),
        (110, "mgr_exec_start", {"vm": 1, "rid": None}),
        (150, "mgr_exec_end", {"vm": 1, "rid": None}),
        (160, "mgr_exec_start", {"vm": 1, "rid": 1}),
        (900, "mgr_exec_end", {"vm": 1, "rid": 1}),
        (950, "hwreq_resumed", {"vm": 1, "rid": 1}),
    ])
    s = extract_overheads(t)
    assert (s.entry, s.execution, s.exit) == ([60], [740], [50])
    assert s.total == [850]


def test_non_request_hypercalls_ignored():
    t = make_trace([
        (100, "hwreq_trap", {"vm": 1, "hc": int(Hc.HWTASK_RELEASE)}),
        (110, "mgr_exec_start", {"vm": 1}),
        (200, "mgr_exec_end", {"vm": 1}),
        (210, "hwreq_resumed", {"vm": 1}),
    ])
    s = extract_overheads(t)
    assert s.n_requests == 0


def test_plirq_pairing_sums_route_and_inject():
    t = make_trace([
        (1000, "plirq_route_start", {"seq": 7, "irq": 61}),
        (1040, "plirq_route_end", {"seq": 7, "vm": 1}),
        (1100, "plirq_inject_start", {"seq": 7, "vm": 1}),
        (1160, "plirq_inject_end", {"seq": 7, "vm": 1}),
    ])
    s = extract_overheads(t)
    assert s.plirq == [100]       # 40 + 60


def test_orphan_events_do_not_crash():
    t = make_trace([
        (100, "mgr_exec_start", {"vm": 9}),
        (200, "mgr_exec_end", {"vm": 9}),
        (300, "hwreq_resumed", {"vm": 9}),
        (400, "plirq_inject_end", {"seq": 1, "vm": 9}),
    ])
    s = extract_overheads(t)
    assert s.n_requests == 0 and s.plirq == []


def test_trimmed_mean():
    assert _trimmed_mean([], 0.1) == 0.0
    assert _trimmed_mean([10], 0.1) == 10
    # One huge outlier dropped at 10% trim of 10 samples.
    samples = [10] * 9 + [10_000]
    assert _trimmed_mean(samples, 0.1) == 10


def test_summary_us_handles_empty_plirq():
    s = OverheadSamples(entry=[660], execution=[660], exit=[660], total=[1980])
    out = s.summary_us(660_000_000)
    assert out["plirq"] == 0.0
    assert out["entry"] == pytest.approx(1.0)


def test_fig9_baselines():
    measured = {
        "native": {"entry": 0.0, "exit": 0.0, "plirq": 0.0,
                   "execution": 10.0, "total": 10.0},
        "1": {"entry": 1.0, "exit": 0.5, "plirq": 0.2,
              "execution": 11.0, "total": 12.5},
        "2": {"entry": 2.0, "exit": 1.0, "plirq": 0.4,
              "execution": 12.0, "total": 15.0},
    }
    t3 = Table3Result(columns=["native", "1", "2"], measured=measured,
                      n_requests={"native": 1, "1": 1, "2": 1})
    fig9 = degradation_from_table3(t3)
    # Zero-native classes use the 1-VM baseline...
    assert fig9.ratios["entry"][1] == pytest.approx(1.0)
    assert fig9.ratios["entry"][2] == pytest.approx(2.0)
    # ...execution/total use the true native baseline.
    assert fig9.ratios["execution"][1] == pytest.approx(1.1)
    assert fig9.ratios["total"][2] == pytest.approx(1.5)


def test_tracer_intervals_helper():
    t = make_trace([
        (10, "a", {"k": 1}),
        (20, "a", {"k": 2}),
        (30, "b", {"k": 2}),
        (50, "b", {"k": 1}),
    ])
    pairs = t.intervals("a", "b", key="k")
    assert sorted(d for d, _, _ in pairs) == [10, 40]


def test_tracer_intervals_nested_same_key():
    """Regression: the pre-obs tracer kept a single open slot per key, so
    a nested same-key span clobbered the outer start and produced one
    wrong interval.  The stack-per-key pairing yields both, inside-out."""
    t = make_trace([
        (10, "a", {"k": 1}),     # outer start
        (20, "a", {"k": 1}),     # inner start, same key
        (25, "b", {"k": 1}),     # closes inner
        (60, "b", {"k": 1}),     # closes outer
    ])
    pairs = t.intervals("a", "b", key="k")
    assert sorted((d, s.t, e.t) for d, s, e in pairs) == \
        [(5, 20, 25), (50, 10, 60)]


def test_tracer_disabled_records_nothing():
    t = Tracer(enabled=False)
    t.bind(_Clock())
    t.mark("x")
    assert t.events == []
