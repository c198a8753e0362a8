"""Chrome trace-event export: JSON validity, pairing, monotonic ts."""

from __future__ import annotations

import json

import pytest

from repro.obs.export import chrome_trace_events, chrome_trace_json, write_chrome_trace
from repro.obs.trace import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0


@pytest.fixture
def tracer():
    clk = FakeClock()
    t = Tracer(clk)
    t.clk = clk          # test-side handle for advancing time
    return t


def emit_mixed(t: Tracer) -> None:
    clk = t.clk
    clk.now = 0
    t.mark("vm_switch", cat="sched", frm=0, to=1)
    clk.now = 660          # 1 us at 660 MHz
    t.mark("mgr_exec_start", cat="hwmgr", vm=1)
    clk.now = 1320
    t.mark("pcap_xfer_start", cat="pcap", prr=2, task="fft256", bytes=1000)
    clk.now = 1980
    t.mark("mgr_exec_end", cat="hwmgr", vm=1)
    clk.now = 2640
    t.mark("pcap_xfer_end", cat="pcap", prr=2, task="fft256")


class TestChromeEvents:
    def test_span_pair_becomes_X_event(self, tracer):
        emit_mixed(tracer)
        evs = chrome_trace_events(tracer, hz=660_000_000)
        x = [e for e in evs if e["ph"] == "X"]
        assert {e["name"] for e in x} == {"mgr_exec", "pcap_xfer"}
        mgr = next(e for e in x if e["name"] == "mgr_exec")
        assert mgr["ts"] == pytest.approx(1.0)
        assert mgr["dur"] == pytest.approx(2.0)
        assert mgr["tid"] == 1          # per-VM track
        assert mgr["args"]["vm"] == 1

    def test_instant_events(self, tracer):
        emit_mixed(tracer)
        evs = chrome_trace_events(tracer, hz=660_000_000)
        inst = [e for e in evs if e["ph"] == "i"]
        assert [e["name"] for e in inst] == ["vm_switch"]
        assert inst[0]["s"] == "t"
        assert inst[0]["cat"] == "sched"

    def test_ts_monotonic(self, tracer):
        emit_mixed(tracer)
        ts = [e["ts"] for e in chrome_trace_events(tracer, hz=660_000_000)]
        assert ts == sorted(ts)

    def test_unmatched_start_kept_as_instant(self, tracer):
        tracer.clk.now = 100
        tracer.mark("mgr_exec_start", cat="hwmgr", vm=1)
        evs = chrome_trace_events(tracer)
        assert [(e["name"], e["ph"]) for e in evs] == [("mgr_exec_start", "i")]

    def test_concurrent_spans_pair_by_key(self, tracer):
        clk = tracer.clk
        clk.now = 0
        tracer.mark("pcap_xfer_start", cat="pcap", prr=1)
        clk.now = 10
        tracer.mark("pcap_xfer_start", cat="pcap", prr=2)
        clk.now = 20
        tracer.mark("pcap_xfer_end", cat="pcap", prr=1)
        clk.now = 40
        tracer.mark("pcap_xfer_end", cat="pcap", prr=2)
        durs = {e["args"]["prr"]: e["dur"]
                for e in chrome_trace_events(tracer, hz=1_000_000)}
        assert durs == {1: pytest.approx(20.0), 2: pytest.approx(30.0)}


class TestJsonDocument:
    def test_round_trip_valid_json(self, tracer):
        emit_mixed(tracer)
        doc = json.loads(chrome_trace_json(tracer))
        assert isinstance(doc["traceEvents"], list)
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["dropped_events"] == 0

    def test_dropped_count_reported(self):
        t = Tracer(FakeClock(), capacity=2)
        for _ in range(5):
            t.mark("x")
        doc = json.loads(chrome_trace_json(t))
        assert doc["otherData"]["dropped_events"] == 3

    def test_write_chrome_trace(self, tracer, tmp_path):
        emit_mixed(tracer)
        path = tmp_path / "trace.json"
        n = write_chrome_trace(tracer, str(path), hz=660_000_000)
        doc = json.loads(path.read_text())
        assert n == len(doc["traceEvents"]) == 3   # 2 X spans + 1 instant
