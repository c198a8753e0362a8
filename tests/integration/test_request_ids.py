"""Request IDs: the kernel stamps one per HWTASK_REQUEST trap, every event
on the request's path carries it, and the Table III and DPR joins read
each request's events by it (docs/OBSERVABILITY.md §5)."""

from __future__ import annotations

from repro.eval.measures import extract_overheads
from repro.eval.scenarios import build_native, build_virtualized
from repro.faults import explore
from repro.kernel.hypercalls import Hc
from repro.obs.analytics import dpr_chains

REQ = int(Hc.HWTASK_REQUEST)


def run_named(name: str, seed: int, monkeypatch):
    """Run the named explore schedule exactly as ``explore --named`` does
    and hand back its scenario."""
    built = []
    real = explore.build_virtualized

    def spy(*args, **kw):
        built.append(real(*args, **kw))
        return built[-1]

    monkeypatch.setattr(explore, "build_virtualized", spy)
    sched = explore.named_schedule(name, seed)
    res = explore.run_inline_schedule(sched.faults, seed=sched.seed,
                                      expect=sched.expect)
    assert res["ok"], res["checks"]
    (sc,) = built
    return sc


def test_pcap_retry_keeps_every_landed_reconfiguration(monkeypatch):
    """A retried transfer starts again after the request's ``mgr_exec``
    window closed, so a window-containment join would lose its chain
    (2 of 3 here); the request ID keeps every landed reconfiguration."""
    sc = run_named("pcap-retry", 7, monkeypatch)
    t, pcap = sc.tracer, sc.machine.pcap
    chains = dpr_chains(t)
    assert len(chains) == t.count("pcap_xfer_end") == 3
    (retry,) = t.find("pcap_retry")
    (c,) = [c for c in chains if c.prr == retry.info["prr"]
            and c.t_request < retry.t < c.t_request + c.ready]
    # pcap runs from the first launch to landing: both attempts, backoff.
    bitstream = sc.machine.bitstreams.get(c.task)
    assert c.pcap >= (2 * pcap.transfer_cycles(bitstream.size)
                      + pcap.retry_backoff_cycles)
    assert c.pcap == 1_457_501
    for c in chains:
        assert c.entry + c.decide + c.pcap == c.ready


def test_only_hwtask_requests_get_an_id():
    """Releases carry ``rid=None``; requests are numbered 1, 2, ... in
    trap order, and the numbers never repeat."""
    sc = build_virtualized(1, seed=3, with_workloads=False, iterations=2,
                           task_set=("fft256",))
    sc.guests[0].os.create_task("releaser", explore._PRIO_AUX,
                                explore._make_release_task(sc.directory))
    sc.run_until_completions(2, max_ms=200.0)
    traps = sc.tracer.find("hwreq_trap")
    assert {e.info["hc"] for e in traps} == {REQ, int(Hc.HWTASK_RELEASE)}
    rids = [e.info["rid"] for e in traps if e.info["hc"] == REQ]
    assert rids == list(range(1, len(rids) + 1))
    assert all(e.info["rid"] is None for e in traps
               if e.info["hc"] != REQ)
    # The release's manager work joins no request.
    unjoined = [e for e in sc.tracer.find("mgr_exec_start")
                if e.info["rid"] is None]
    assert len(unjoined) == sc.tracer.count("hwreq_trap") - len(rids)


def test_watchdog_reclaim_runs_without_a_request_id(monkeypatch):
    """The kernel's own reclaim names the client's VM in its ``mgr_exec``
    span but joins none of that client's requests."""
    sc = run_named("hw-hang", 7, monkeypatch)
    t = sc.tracer
    (reclaim,) = t.find("watchdog_reclaim")
    start = max((e for e in t.find("mgr_exec_start") if e.t <= reclaim.t),
                key=lambda e: e.t)
    assert start.info["vm"] == reclaim.info["vm"]
    assert start.info["rid"] is None
    o = extract_overheads(t)
    assert o.n_requests == len(t.find("hwreq_resumed")) > 0


def test_request_dense_run_samples_add_up():
    """Four request-dense guests: every Table III sample and DPR chain
    decomposes exactly, and each resumed request and landed transfer
    yields exactly one of them."""
    sc = build_virtualized(4, seed=1, with_workloads=False, verify=True,
                           tick_hz=1000)
    sc.run_ms(200.0)
    t = sc.tracer
    o = extract_overheads(t)
    assert o.n_requests == t.count("hwreq_resumed") >= 40
    for entry, execution, exit_, total in zip(o.entry, o.execution, o.exit,
                                              o.total):
        assert min(entry, execution, exit_) >= 0
        assert entry + execution + exit_ == total
    chains = dpr_chains(t)
    assert len(chains) == t.count("pcap_xfer_end") >= 20
    for c in chains:
        assert min(c.entry, c.decide, c.pcap, c.resume) >= 0
        assert c.entry + c.decide + c.pcap == c.ready


def test_native_port_numbers_its_requests():
    nat = build_native(seed=1)
    nat.run_until_completions(3, max_ms=2_000.0)
    rids = [e.info["rid"] for e in nat.tracer.find("hwreq_trap")]
    assert rids == list(range(1, len(rids) + 1)) and rids
    assert extract_overheads(nat.tracer).n_requests == len(rids)
