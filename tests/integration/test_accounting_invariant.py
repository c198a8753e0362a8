"""The per-VM accounting books balance exactly on a full scenario run.

Every simulated cycle after boot must land on exactly one ledger:
some VM's guest-kernel / guest-user / on-behalf kernel time, the
unattributed kernel, or idle.  If this ever drifts, a kernel path is
missing a context push/pop (docs/BENCHMARKS.md, "The accounting
invariant").
"""

from __future__ import annotations

import pytest

from repro.eval.scenarios import build_native, build_virtualized
from repro.obs.aggregate import MetricSnapshot
from repro.obs.flight import FlightRecorder


@pytest.fixture(scope="module")
def scenario():
    sc = build_virtualized(3, seed=11)
    sc.run_ms(80.0)
    sc.kernel.acct.settle()
    return sc


def test_books_balance_exactly(scenario):
    acct = scenario.kernel.acct
    elapsed = scenario.kernel.sim.now - acct.start_cycle
    assert acct.total_accounted() == elapsed


def test_every_vm_got_cpu_and_services(scenario):
    acct = scenario.kernel.acct
    k = scenario.kernel
    # Manager PD + 3 guests are all on the books.
    assert len(acct.vms) == 4
    mgr_vm = k.manager_pd.vm_id
    guest_accounts = [a for a in acct.vms.values() if a.vm_id != mgr_vm]
    assert len(guest_accounts) == len(scenario.guests)
    for vm in guest_accounts:
        assert vm.cpu_cycles > 0
        assert vm.guest_kernel_cycles + vm.guest_user_cycles > 0
        assert k.metrics.total("kernel.vm_switches", vm=vm.vm_id) > 0
        assert k.metrics.total("kernel.hypercalls", vm=vm.vm_id) > 0


def test_virq_latency_samples_recorded(scenario):
    acct = scenario.kernel.acct
    samples = acct.virq_latency_samples()
    assert samples, "no vIRQ injection-to-delivery samples on a live run"
    assert all(s >= 0 for s in samples)
    injected = scenario.kernel.metrics.total("kernel.virq_injected")
    assert len(samples) <= injected


def test_prr_occupancy_attributed(scenario):
    """Hardware tasks ran, so somebody must have held fabric regions."""
    acct = scenario.kernel.acct
    acct.close_prr_occupancy()
    assert sum(a.prr_occupancy_cycles for a in acct.vms.values()) > 0


def test_snapshot_reports_the_same_invariant(scenario):
    snap = scenario.kernel.acct.snapshot()
    assert snap["total_accounted"] == (scenario.kernel.sim.now
                                       - snap["start_cycle"])
    per_vm = sum(v["cpu_cycles"] for v in snap["vms"])
    assert (snap["kernel_cycles"] + snap["idle_cycles"] + per_vm
            == snap["total_accounted"])


def test_reading_the_books_creates_no_metric():
    """The accountant's snapshot and table, and a flight dump, read the
    per-VM counts from the registry without registering anything."""
    sc = build_virtualized(2, seed=11)      # books never read before
    sc.run_ms(30.0)
    k = sc.kernel
    before = MetricSnapshot.of(k.metrics)
    k.acct.snapshot()
    k.acct.render()
    FlightRecorder().arm(k).dump("test")
    assert MetricSnapshot.of(k.metrics) == before


def test_one_registry_and_one_tracer_per_machine():
    sc = build_virtualized(1, seed=1)
    m, k = sc.machine, sc.kernel
    books = {id(m.metrics), id(k.metrics), id(k.acct._metrics),
             id(k.sched._metrics), id(m.pcap._metrics)}
    assert books == {id(m.metrics)}
    # The engine, memory system and MMU count into that same registry.
    assert m.sim._m_fired is m.metrics.counter("sim.events_fired")
    assert m.mem._m_batched is m.metrics.counter(
        "sim.fastpath.batched_cycles")
    assert m.mem.mmu._m_walk_hits is m.metrics.counter(
        "sim.fastpath.walk_cache_hits")
    assert k.tracer is m.tracer is m.pcap._tracer


def test_native_registry_books_fast_path_cycles():
    """The native baseline counts its fast-path bulk work too: 50 ms at
    seed 1 batch 27,725,604 cycles, all of them in the machine's one
    registry."""
    sc = build_native(seed=1)
    sc.run_ms(50.0)
    assert sc.metrics is sc.machine.metrics
    assert sc.metrics.total("sim.fastpath.batched_cycles") == 27_725_604
