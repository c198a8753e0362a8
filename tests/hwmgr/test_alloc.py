"""Allocation core (Fig. 7 six-stage routine) against a recording fake port."""

import pytest

from repro.fpga.controller import (
    CTL_CLEAR,
    CTL_CLIENT,
    CTL_HWMMU_BASE,
    CTL_HWMMU_LIMIT,
)
from repro.fpga.ip import make_core
from repro.fpga.prr import PrrStatus
from repro.hwmgr.alloc import AllocRequest, Allocator
from repro.hwmgr.tables import HardwareTaskTable, PrrTable
from repro.kernel.hypercalls import HcStatus


class FakePort:
    """ManagerPort that records calls and mirrors ctl writes onto PRRs."""

    def __init__(self, machine):
        self.machine = machine
        self.calls = []
        self.mapped = {}        # (vm, prr) -> va
        self.pcap_busy = False

    def code(self, off, n):
        self.calls.append(("code", off))

    def touch(self, addr, *, write=False):
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
        else:
            from repro.fpga.controller import CTL_IRQ_LINE
            if field == CTL_IRQ_LINE:
                prr.irq_line = None if value == 0xFFFF_FFFF else value

    def reg_group_save(self, old_vm, prr):
        self.calls.append(("save", old_vm, prr.prr_id))

    def map_iface(self, vm, prr_id, va):
        self.calls.append(("map", vm, prr_id, va))
        self.mapped[(vm, prr_id)] = va

    def unmap_iface(self, vm, prr_id):
        self.calls.append(("unmap", vm, prr_id))
        self.mapped.pop((vm, prr_id), None)

    def mark_consistent(self, vm):
        self.calls.append(("consistent", vm))

    def register_irq(self, vm, irq):
        self.calls.append(("irq+", vm, irq))

    def unregister_irq(self, vm, irq):
        self.calls.append(("irq-", vm, irq))

    def crashpoint(self, point):
        pass

    def pcap_cancel(self, prr_id):
        self.calls.append(("pcap_cancel", prr_id))
        return None

    def pcap_available(self):
        return not self.pcap_busy

    def pcap_launch(self, entry, prr_id, vm, rid):
        self.calls.append(("pcap", entry.name, prr_id))
        self.machine.prrs[prr_id].core = make_core(entry.name)

    def iface_va_of(self, vm, prr_id):
        return self.mapped.get((vm, prr_id))

    def prr_mapped_at(self, vm, va):
        for (v, p), a in self.mapped.items():
            if v == vm and a == va:
                return p
        return None


@pytest.fixture
def alloc_env(machine):
    port = FakePort(machine)
    tasks = HardwareTaskTable.build(machine.bitstreams, machine.prrs,
                                    machine.pcap.transfer_cycles)
    alloc = Allocator(port, tasks, PrrTable(machine.prrs), machine.prrs,
                      machine.metrics)
    return machine, port, alloc, tasks


def req(tasks, name, vm=1, iface=0x9000_0000, want_irq=False):
    return AllocRequest(client_vm=vm, task_id=tasks.by_name(name).task_id,
                        iface_va=iface, data_pa=0x0100_0000,
                        data_size=0x8_0000, want_irq=want_irq)


def test_cold_allocation_reconfigures(alloc_env):
    machine, port, alloc, tasks = alloc_env
    r = alloc.allocate(req(tasks, "fft1024"))
    assert r.status == HcStatus.RECONFIG
    assert r.prr_id in (0, 1)
    assert ("map", 1, r.prr_id, 0x9000_0000) in port.calls
    assert ("pcap", "fft1024", r.prr_id) in port.calls
    prr = machine.prrs[r.prr_id]
    assert prr.hwmmu.base == 0x0100_0000
    assert prr.hwmmu.limit == 0x0108_0000
    assert prr.client_vm == 1


def test_hot_allocation_no_reconfig(alloc_env):
    machine, port, alloc, tasks = alloc_env
    machine.prrs[0].core = make_core("fft1024")
    r = alloc.allocate(req(tasks, "fft1024"))
    assert r.status == HcStatus.SUCCESS
    assert r.prr_id == 0
    assert not any(c[0] == "pcap" for c in port.calls)


def test_unknown_task(alloc_env):
    _, _, alloc, _ = alloc_env
    r = alloc.allocate(AllocRequest(client_vm=1, task_id=999, iface_va=0,
                                    data_pa=0, data_size=0))
    assert r.status == HcStatus.ERR_NOTASK


def test_busy_when_all_suitable_prrs_busy(alloc_env):
    machine, _, alloc, tasks = alloc_env
    machine.prrs[0].status = PrrStatus.BUSY
    machine.prrs[1].reconfiguring = True
    r = alloc.allocate(req(tasks, "fft256"))
    assert r.status == HcStatus.BUSY
    assert machine.metrics.total("hwmgr.allocations", outcome="busy") == 1


def test_busy_when_pcap_in_flight_and_reconfig_needed(alloc_env):
    machine, port, alloc, tasks = alloc_env
    port.pcap_busy = True
    r = alloc.allocate(req(tasks, "fft256"))
    assert r.status == HcStatus.BUSY
    # But a hot task is still served.
    machine.prrs[2].core = make_core("qam4")
    r = alloc.allocate(req(tasks, "qam4"))
    assert r.status == HcStatus.SUCCESS


def test_reclaim_runs_consistency_protocol(alloc_env):
    """Fig. 5: T1 moves from VM1 to VM2 — save regs, demap, clear, remap."""
    machine, port, alloc, tasks = alloc_env
    r1 = alloc.allocate(req(tasks, "fft8192", vm=1))
    machine.prrs[r1.prr_id].status = PrrStatus.DONE
    # Make the sibling big PRR busy so VM2 must steal VM1's.
    other = 1 - r1.prr_id
    machine.prrs[other].status = PrrStatus.BUSY
    port.calls.clear()
    r2 = alloc.allocate(req(tasks, "fft8192", vm=2))
    assert r2.prr_id == r1.prr_id
    assert r2.reclaimed_from == 1
    names = [c[0] for c in port.calls]
    assert names.index("save") < names.index("unmap") < names.index("map")
    assert ("unmap", 1, r1.prr_id) in port.calls
    assert ("map", 2, r1.prr_id, 0x9000_0000) in port.calls
    assert machine.metrics.total("hwmgr.reclaims", reason="request") == 1
    # Task stays resident: same-task reclaim needs no PCAP.
    assert r2.status == HcStatus.SUCCESS


def test_prefers_own_prr_then_free_then_steals(alloc_env):
    machine, port, alloc, tasks = alloc_env
    machine.prrs[0].core = make_core("qam16")
    machine.prrs[0].client_vm = 2          # someone else's
    machine.prrs[1].core = make_core("qam16")
    machine.prrs[1].client_vm = None       # free
    r = alloc.allocate(req(tasks, "qam16", vm=1))
    assert r.prr_id == 1                   # free beats steal


def test_same_client_rerequest_skips_mapping(alloc_env):
    machine, port, alloc, tasks = alloc_env
    r1 = alloc.allocate(req(tasks, "qam4"))
    machine.prrs[r1.prr_id].core = make_core("qam4")
    machine.prrs[r1.prr_id].reconfiguring = False
    port.calls.clear()
    r2 = alloc.allocate(req(tasks, "qam4"))
    assert r2.prr_id == r1.prr_id
    assert not any(c[0] == "map" for c in port.calls)
    assert not any(c[0] == "unmap" for c in port.calls)


def test_same_va_different_prr_demaps_old(alloc_env):
    machine, port, alloc, tasks = alloc_env
    r1 = alloc.allocate(req(tasks, "fft256"))
    machine.prrs[r1.prr_id].core = make_core("fft256")
    machine.prrs[r1.prr_id].reconfiguring = False
    # Requesting a QAM at the same iface VA while holding the FFT.
    machine.prrs[r1.prr_id].status = PrrStatus.BUSY   # force another PRR
    r2 = alloc.allocate(req(tasks, "qam64"))
    assert r2.prr_id != r1.prr_id
    assert ("unmap", 1, r1.prr_id) in port.calls
    assert port.prr_mapped_at(1, 0x9000_0000) == r2.prr_id


def test_irq_attach_allocates_line_and_registers(alloc_env):
    machine, port, alloc, tasks = alloc_env
    r = alloc.allocate(req(tasks, "qam4", want_irq=True))
    assert r.irq_id is not None
    assert ("irq+", 1, r.irq_id) in port.calls
    prr = machine.prrs[r.prr_id]
    assert prr.irq_line is not None


def test_irq_lines_unique_per_prr(alloc_env):
    machine, port, alloc, tasks = alloc_env
    r1 = alloc.allocate(req(tasks, "fft256", want_irq=True))
    # Force the second task onto a different PRR.
    machine.prrs[r1.prr_id].status = PrrStatus.BUSY
    r2 = alloc.allocate(req(tasks, "qam4", vm=2, iface=0x9000_1000,
                            want_irq=True))
    assert r2.prr_id != r1.prr_id
    assert machine.prrs[r1.prr_id].irq_line != machine.prrs[r2.prr_id].irq_line


def test_release_clears_everything(alloc_env):
    machine, port, alloc, tasks = alloc_env
    r = alloc.allocate(req(tasks, "qam16", want_irq=True))
    machine.prrs[r.prr_id].reconfiguring = False
    machine.prrs[r.prr_id].core = make_core("qam16")
    rr = alloc.release(1, tasks.by_name("qam16").task_id)
    assert rr.status == HcStatus.SUCCESS
    assert rr.prr_id == r.prr_id
    prr = machine.prrs[r.prr_id]
    assert prr.client_vm is None
    assert prr.hwmmu.base == 0 and prr.hwmmu.limit == 0
    assert ("irq-", 1, r.irq_id) in port.calls
    assert port.iface_va_of(1, r.prr_id) is None


def test_release_nothing_held(alloc_env):
    _, _, alloc, tasks = alloc_env
    rr = alloc.release(1, 0)
    assert rr.status == HcStatus.ERR_STATE
