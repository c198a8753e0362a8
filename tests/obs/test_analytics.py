"""Analytics: percentile math, series summaries, DPR chain extraction."""

from __future__ import annotations

import pytest

from repro.kernel.hypercalls import Hc
from repro.obs.analytics import (
    DprChain,
    SeriesSummary,
    dpr_chains,
    dpr_stage_summaries,
    percentile_of_samples,
    plirq_latency_samples,
    summarize,
)
from repro.obs.metrics import Histogram
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


class TestPercentileOfSamples:
    def test_empty_returns_none(self):
        assert percentile_of_samples([], 0.5) is None

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile_of_samples([1], 1.5)

    def test_nearest_rank(self):
        s = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
        assert percentile_of_samples(s, 0.50) == 50.0    # ceil(5) -> 5th
        assert percentile_of_samples(s, 0.90) == 90.0
        assert percentile_of_samples(s, 0.99) == 100.0
        assert percentile_of_samples(s, 1.00) == 100.0
        assert percentile_of_samples(s, 0.0) == 10.0

    def test_input_need_not_be_sorted(self):
        assert percentile_of_samples([30, 10, 20], 0.5) == 20.0

    def test_single_sample(self):
        for q in (0.0, 0.5, 1.0):
            assert percentile_of_samples([7], q) == 7.0


class TestSeriesSummary:
    def test_from_samples(self):
        s = SeriesSummary.from_samples([1, 2, 3, 4])
        assert s.count == 4
        assert s.mean == pytest.approx(2.5)
        assert (s.min, s.max) == (1.0, 4.0)
        assert s.p50 == 2.0 and s.p99 == 4.0
        assert s.unit == "cycles"

    def test_from_empty_samples(self):
        s = SeriesSummary.from_samples([])
        assert s.count == 0 and s.mean == 0.0 and s.max == 0.0

    def test_from_histogram(self):
        h = Histogram("h", buckets=(10, 20, 50))
        for v in (3, 4, 12, 13):
            h.observe(v)
        s = SeriesSummary.from_histogram(h)
        assert s.count == 4
        assert s.mean == pytest.approx(8.0)
        assert s.p50 == 10.0            # bucket bound, clamped into [3, 13]
        assert s.p99 == 13.0
        assert (s.min, s.max) == (3.0, 13.0)

    def test_from_empty_histogram(self):
        s = SeriesSummary.from_histogram(Histogram("h"))
        assert s.count == 0

    def test_scaled(self):
        s = SeriesSummary.from_samples([100, 200]).scaled(0.01, "us")
        assert s.mean == pytest.approx(1.5)
        assert s.max == pytest.approx(2.0)
        assert s.unit == "us"
        assert s.count == 2             # counts do not scale

    def test_as_dict_round_trip(self):
        s = SeriesSummary.from_samples([5, 6])
        assert SeriesSummary(**s.as_dict()) == s

    def test_summarize_dispatches_on_type(self):
        h = Histogram("h", buckets=(10,))
        h.observe(4)
        assert summarize(h).count == 1
        assert summarize([4, 5]).count == 2


def _dpr_events(vm=1, prr=0, base=0, rid=1):
    """One full reconfiguring request chain starting at ``base``."""
    return [
        (base + 100, "hwreq_trap", {"vm": vm, "hc": REQ, "rid": rid}),
        (base + 150, "mgr_exec_start", {"vm": vm, "rid": rid}),
        (base + 300, "pcap_xfer_start", {"prr": prr, "task": "fft256",
                                         "rid": rid}),
        (base + 900, "pcap_xfer_end", {"prr": prr, "task": "fft256",
                                       "rid": rid}),
        (base + 950, "mgr_exec_end", {"vm": vm, "rid": rid}),
        (base + 1000, "hwreq_resumed", {"vm": vm, "rid": rid}),
    ]


class TestDprChains:
    def test_single_chain_stage_math(self):
        t = make_trace(_dpr_events())
        (c,) = dpr_chains(t)
        assert (c.vm, c.prr, c.task) == (1, 0, "fft256")
        assert c.t_request == 100
        assert c.entry == 50            # trap -> exec_start
        assert c.decide == 150          # exec_start -> pcap launch
        assert c.pcap == 600            # streaming duration
        assert c.resume == 50           # exec_end -> resumed
        assert c.ready == 800           # trap -> pcap landed

    def test_resident_hit_produces_no_chain(self):
        """A request with no PCAP transfer inside its exec window (task
        already resident) is not a reconfiguration chain."""
        t = make_trace([
            (100, "hwreq_trap", {"vm": 1, "hc": REQ}),
            (150, "mgr_exec_start", {"vm": 1}),
            (250, "mgr_exec_end", {"vm": 1}),
            (300, "hwreq_resumed", {"vm": 1}),
        ])
        assert dpr_chains(t) == []

    def test_xfer_outside_exec_window_not_paired(self):
        events = _dpr_events()
        # An unrelated transfer before any request opened.
        events = [(10, "pcap_xfer_start", {"prr": 3, "task": "qam16"}),
                  (20, "pcap_xfer_end", {"prr": 3, "task": "qam16"})] + events
        chains = dpr_chains(make_trace(events))
        assert len(chains) == 1
        assert chains[0].prr == 0

    def test_non_request_hypercalls_do_not_open_chains(self):
        events = [(50, "hwreq_trap", {"vm": 1, "hc": 999})] + _dpr_events()
        assert len(dpr_chains(make_trace(events))) == 1

    def test_retried_transfer_counts_from_first_launch(self):
        """The retry starts after the manager's window closed; the join
        keeps the first ``pcap_xfer_start``, so ``pcap`` spans both
        attempts and the backoff."""
        events = [e for e in _dpr_events() if e[1] != "pcap_xfer_end"]
        events += [
            (1500, "pcap_xfer_error", {"prr": 0, "task": "fft256"}),
            (2500, "pcap_xfer_start", {"prr": 0, "task": "fft256",
                                       "rid": 1}),
            (3100, "pcap_xfer_end", {"prr": 0, "task": "fft256",
                                     "rid": 1}),
        ]
        (c,) = dpr_chains(make_trace(sorted(events, key=lambda e: e[0])))
        assert (c.decide, c.pcap, c.ready) == (150, 2800, 3000)
        assert c.entry + c.decide + c.pcap == c.ready

    def test_two_vms_sequential_chains(self):
        events = _dpr_events(vm=1, prr=0) + _dpr_events(vm=2, prr=1,
                                                        base=5000, rid=2)
        chains = dpr_chains(make_trace(events))
        assert sorted(c.vm for c in chains) == [1, 2]

    def test_stage_summaries(self):
        chains = [DprChain(vm=1, prr=0, task="fft256", t_request=0,
                           entry=50, decide=150, pcap=600, resume=50,
                           ready=800),
                  DprChain(vm=2, prr=1, task="fft256", t_request=0,
                           entry=70, decide=150, pcap=600, resume=50,
                           ready=820)]
        s = dpr_stage_summaries(chains)
        assert set(s) == {"entry", "decide", "pcap", "resume", "ready"}
        assert s["entry"].mean == pytest.approx(60.0)
        assert s["ready"].max == 820.0

    def test_stage_summaries_empty(self):
        s = dpr_stage_summaries([])
        assert s["ready"].count == 0


class TestPlirqLatency:
    def test_route_plus_inject_halves_by_seq(self):
        t = make_trace([
            (100, "plirq_route_start", {"seq": 1}),
            (140, "plirq_route_end", {"seq": 1}),
            (500, "plirq_inject_start", {"seq": 1}),
            (530, "plirq_inject_end", {"seq": 1}),
        ])
        assert plirq_latency_samples(t) == [70]

    def test_injection_without_route_counts_inject_half(self):
        t = make_trace([
            (500, "plirq_inject_start", {"seq": 9}),
            (520, "plirq_inject_end", {"seq": 9}),
        ])
        assert plirq_latency_samples(t) == [20]

    def test_sequences_pair_independently(self):
        t = make_trace([
            (100, "plirq_route_start", {"seq": 1}),
            (110, "plirq_route_end", {"seq": 1}),
            (200, "plirq_route_start", {"seq": 2}),
            (230, "plirq_route_end", {"seq": 2}),
            (300, "plirq_inject_start", {"seq": 2}),
            (305, "plirq_inject_end", {"seq": 2}),
            (400, "plirq_inject_start", {"seq": 1}),
            (450, "plirq_inject_end", {"seq": 1}),
        ])
        assert sorted(plirq_latency_samples(t)) == [35, 60]
