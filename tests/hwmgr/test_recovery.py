"""Watchdog force-reclaim vs. the intent journal: the two recovery
mechanisms (controller watchdog kill, crash-recovery rollback) must
converge on one consistent outcome when they race over the same region."""

import pytest

from repro.fpga.controller import (
    CTL_CLEAR,
    CTL_CLIENT,
    CTL_HWMMU_BASE,
    CTL_HWMMU_LIMIT,
    CTL_IRQ_LINE,
)
from repro.fpga.ip import make_core
from repro.hwmgr.alloc import AllocRequest, Allocator
from repro.hwmgr.journal import ACT, IntentJournal, OP_ALLOCATE
from repro.hwmgr.tables import HardwareTaskTable, PrrTable
from repro.kernel.hypercalls import HcStatus


class RacePort:
    """Recording fake port whose pcap_cancel behaves like the real PCAP:
    cancelling an in-flight transfer aborts the reconfiguration."""

    def __init__(self, machine):
        self.machine = machine
        self.calls = []
        self.mapped = {}
        self.pcap_busy = False

    def code(self, off, n):
        pass

    def touch(self, addr, *, write=False):
        pass

    def crashpoint(self, point):
        pass

    def ctl_write(self, prr_id, field, value):
        self.calls.append(("ctl", prr_id, field, value))
        prr = self.machine.prrs[prr_id]
        if field == CTL_HWMMU_BASE:
            prr.hwmmu.base = value
        elif field == CTL_HWMMU_LIMIT:
            prr.hwmmu.limit = value
        elif field == CTL_CLIENT:
            prr.client_vm = None if value == 0xFFFF_FFFF else value
        elif field == CTL_CLEAR:
            prr.reset_regs()
        elif field == CTL_IRQ_LINE:
            prr.irq_line = None if value == 0xFFFF_FFFF else value

    def reg_group_save(self, old_vm, prr):
        self.calls.append(("save", old_vm, prr.prr_id))

    def map_iface(self, vm, prr_id, va):
        self.mapped[(vm, prr_id)] = va

    def unmap_iface(self, vm, prr_id):
        self.calls.append(("unmap", vm, prr_id))
        self.mapped.pop((vm, prr_id), None)

    def mark_consistent(self, vm):
        pass

    def register_irq(self, vm, irq):
        pass

    def unregister_irq(self, vm, irq):
        self.calls.append(("irq-", vm, irq))

    def pcap_available(self):
        return not self.pcap_busy

    def pcap_launch(self, entry, prr_id, vm, rid):
        self.calls.append(("pcap", entry.name, prr_id))
        self.machine.prrs[prr_id].reconfiguring = True

    def pcap_cancel(self, prr_id):
        self.calls.append(("pcap_cancel", prr_id))
        prr = self.machine.prrs[prr_id]
        if not prr.reconfiguring:
            return None
        prr.reconfiguring = False
        prr.core = None
        return prr_id

    def iface_va_of(self, vm, prr_id):
        return self.mapped.get((vm, prr_id))

    def prr_mapped_at(self, vm, va):
        for (v, p), a in self.mapped.items():
            if v == vm and a == va:
                return p
        return None


@pytest.fixture
def env(machine):
    port = RacePort(machine)
    tasks = HardwareTaskTable.build(machine.bitstreams, machine.prrs,
                                    machine.pcap.transfer_cycles)
    journal = IntentJournal(row_base=0x5000)
    alloc = Allocator(port, tasks, PrrTable(machine.prrs), machine.prrs,
                      machine.metrics, journal=journal)
    return machine, port, alloc, tasks, journal


def _cold_alloc(alloc, tasks, vm=1):
    r = alloc.allocate(AllocRequest(
        client_vm=vm, task_id=tasks.by_name("fft1024").task_id,
        iface_va=0x9000_0000, data_pa=0x0100_0000, data_size=0x8_0000))
    assert r.status == HcStatus.RECONFIG
    return r


def test_watchdog_kill_during_journaled_reconfig(env):
    """Watchdog force_reclaim hits a region whose cold allocation is still
    journalled ACT (PCAP in flight): one reclaim, entry aborted."""
    machine, port, alloc, tasks, journal = env
    r = _cold_alloc(alloc, tasks)
    prr = machine.prrs[r.prr_id]
    row = alloc.prr_table.row(r.prr_id)
    jentry = journal.entry_for_prr(r.prr_id)
    assert prr.reconfiguring and jentry is not None and jentry.state == ACT

    old = alloc.force_reclaim(r.prr_id)
    assert old == 1
    assert jentry.state == "aborted"
    assert ("pcap_cancel", r.prr_id) in port.calls
    assert not prr.reconfiguring
    assert prr.client_vm is None and row.client_vm is None
    assert row.task_name is None
    assert machine.metrics.total("hwmgr.reclaims", reason="watchdog") == 1
    assert journal.balanced()


def test_second_reclaim_is_an_idempotent_noop(env):
    """A crash-recovery pass racing the watchdog over the same region:
    the second force_reclaim must not touch hardware or double-count."""
    machine, port, alloc, tasks, journal = env
    r = _cold_alloc(alloc, tasks)
    alloc.force_reclaim(r.prr_id, reason="watchdog")
    calls_before = list(port.calls)
    metrics_before = machine.metrics.as_dict()

    assert alloc.force_reclaim(r.prr_id, reason="recovery") is None
    assert port.calls == calls_before          # no hardware access at all
    assert machine.metrics.as_dict() == metrics_before
    # Bumped exactly once, by the reclaim that happened.
    assert machine.metrics.total("hwmgr.reclaims") == 1
    assert machine.metrics.total("hwmgr.reclaims", reason="watchdog") == 1
    assert journal.balanced()


def test_reclaim_of_committed_allocation_journals_once(env):
    """A normal (committed) allocation later reclaimed by the watchdog:
    the reclaim opens exactly one journal entry and commits it."""
    machine, port, alloc, tasks, journal = env
    machine.prrs[0].core = make_core("fft1024")   # hot: no reconfig
    r = alloc.allocate(AllocRequest(
        client_vm=1, task_id=tasks.by_name("fft1024").task_id,
        iface_va=0x9000_0000, data_pa=0x0100_0000, data_size=0x8_0000))
    assert r.status == HcStatus.SUCCESS
    opened = journal.stats["opened"]

    alloc.force_reclaim(r.prr_id)
    assert journal.stats["opened"] == opened + 1
    assert journal.balanced()
    assert not journal.open_entries()
    assert machine.metrics.total("hwmgr.reclaims", reason="watchdog") == 1
