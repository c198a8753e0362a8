"""Hypercall ABI: every call, argument validation, results."""

import pytest

from repro.cpu.modes import Mode
from repro.gic.irqs import IRQ_PL_BASE
from repro.kernel import layout as L
from repro.kernel.core import MiniNova
from repro.kernel.exits import ExitHypercall
from repro.kernel.hypercalls import Hc, HcStatus, PUBLIC_HYPERCALLS, UCOS_HYPERCALLS
from repro.kernel.ivc import IVC_IRQ


class _Recorder:
    def __init__(self):
        self.results = []
        self.virqs = []

    def bind(self, kernel, pd):
        self.kernel, self.pd = kernel, pd

    def step(self, budget): ...

    def deliver_virq(self, irq):
        self.virqs.append(irq)

    def complete_hypercall(self, exit_):
        self.results.append(exit_.result)


@pytest.fixture
def env(small_machine):
    k = MiniNova(small_machine)
    k.boot()
    r = _Recorder()
    pd = k.create_vm("vm1", r)
    k._vm_switch(pd)
    return small_machine, k, pd, r


def call(k, pd, num, *args):
    k._handle_hypercall(pd, ExitHypercall(num=int(num), args=args))
    return pd.runner.results[-1]


def test_hypercall_table_has_25_public_entries():
    assert len(PUBLIC_HYPERCALLS) == 25
    assert len(UCOS_HYPERCALLS) == 17
    assert set(UCOS_HYPERCALLS) <= set(PUBLIC_HYPERCALLS)


def test_unknown_number_returns_err(env):
    _, k, pd, r = env
    assert call(k, pd, 999) == HcStatus.ERR_ARG


def test_cache_flush_all(env):
    machine, k, pd, _ = env
    machine.mem.caches.l1d.lookup(0x0010_0000, write=True)
    assert call(k, pd, Hc.CACHE_FLUSH_ALL) == HcStatus.SUCCESS
    assert machine.mem.caches.l1d.resident_lines == 0


def test_tlb_flush_va_only_own_asid(env):
    machine, k, pd, _ = env
    tlb = machine.mem.mmu.tlb
    from repro.mem.descriptors import AP
    from repro.mem.tlb import TlbEntry
    tlb.insert(TlbEntry(vpn=5, pfn=5, asid=pd.asid, ap=AP.FULL, domain=2))
    tlb.insert(TlbEntry(vpn=5, pfn=6, asid=99, ap=AP.FULL, domain=2))
    assert call(k, pd, Hc.TLB_FLUSH_VA, 5 << 12) == HcStatus.SUCCESS
    assert tlb.lookup(5, pd.asid) is None
    assert tlb.lookup(5, 99) is not None


def test_irq_enable_requires_ownership(env):
    _, k, pd, _ = env
    assert call(k, pd, Hc.IRQ_ENABLE, 61) == HcStatus.ERR_PERM
    pd.vgic.register(61, enabled=False)
    assert call(k, pd, Hc.IRQ_ENABLE, 61) == HcStatus.SUCCESS
    assert pd.vgic.irqs[61].enabled


def test_irq_enable_reflects_to_physical_gic_when_current(env):
    machine, k, pd, _ = env
    pd.vgic.register(61, enabled=False)
    call(k, pd, Hc.IRQ_ENABLE, 61)
    assert machine.gic.enabled[61]
    call(k, pd, Hc.IRQ_DISABLE, 61)
    assert not machine.gic.enabled[61]


def test_virq_register_sets_entry(env):
    _, k, pd, _ = env
    assert call(k, pd, Hc.VIRQ_REGISTER, 0x8040, 29) == HcStatus.SUCCESS
    assert pd.vgic.irq_entry_va == 0x8040
    assert pd.vgic.owns(29)


def test_map_insert_within_own_chunk(env):
    machine, k, pd, _ = env
    va = 0x00A0_0000
    assert call(k, pd, Hc.MAP_INSERT, va, 0x0030_0000, 2) == HcStatus.SUCCESS
    pa, _ = machine.mem.mmu.translate(va, privileged=False, write=True)
    assert pa == pd.phys_base + 0x0030_0000


def test_map_insert_rejects_foreign_memory(env):
    _, k, pd, _ = env
    # Offset beyond the VM's 16 MB chunk.
    assert call(k, pd, Hc.MAP_INSERT, 0x00A0_0000,
                L.GUEST_PHYS_CHUNK, 1) == HcStatus.ERR_PERM


def test_map_insert_rejects_misaligned(env):
    _, k, pd, _ = env
    assert call(k, pd, Hc.MAP_INSERT, 0x00A0_0100, 0, 1) == HcStatus.ERR_ARG


def test_map_remove(env):
    machine, k, pd, _ = env
    call(k, pd, Hc.MAP_INSERT, 0x00A0_0000, 0x0030_0000, 1)
    assert call(k, pd, Hc.MAP_REMOVE, 0x00A0_0000) == HcStatus.SUCCESS
    from repro.common.errors import DataAbort
    with pytest.raises(DataAbort):
        machine.mem.mmu.translate(0x00A0_0000, privileged=False, write=False)
    assert call(k, pd, Hc.MAP_REMOVE, 0x00A0_0000) == HcStatus.ERR_ARG


def test_hwdata_define_returns_physical_base(env):
    _, k, pd, _ = env
    result = call(k, pd, Hc.HWDATA_DEFINE, L.GUEST_HWDATA_VA, 256 * 1024)
    assert result == pd.phys_base + L.GUEST_HWDATA_VA
    assert pd.hw_data.configured
    assert pd.hw_data.size == 256 * 1024


def test_hwdata_define_rejects_outside_region(env):
    _, k, pd, _ = env
    assert call(k, pd, Hc.HWDATA_DEFINE, L.GUEST_USER_BASE,
                4096) == HcStatus.ERR_ARG


def test_reg_read_write_roundtrip(env):
    _, k, pd, _ = env
    assert call(k, pd, Hc.REG_WRITE, 42, 0xBEEF) == HcStatus.SUCCESS
    assert call(k, pd, Hc.REG_READ, 42) == 0xBEEF
    assert call(k, pd, Hc.REG_READ, 7) == 0


def test_vfp_enable(env):
    machine, k, pd, _ = env
    machine.cpu.vfp.disable()
    assert call(k, pd, Hc.VFP_ENABLE) == HcStatus.SUCCESS
    assert machine.cpu.vfp.enabled
    assert machine.cpu.vfp.owner == pd.vm_id


def test_timer_set_and_read(env):
    machine, k, pd, _ = env
    assert call(k, pd, Hc.TIMER_SET, 660_000) == HcStatus.SUCCESS
    assert pd.vcpu.vtimer.period == 660_000
    assert machine.private_timer.armed
    remaining = call(k, pd, Hc.TIMER_READ)
    assert 0 <= remaining <= 660_000


def test_vm_yield_rotates(env):
    _, k, pd, _ = env
    r2 = _Recorder()
    pd2 = k.create_vm("vm2", r2)
    assert k.sched.pick() is pd
    assert call(k, pd, Hc.VM_YIELD) == HcStatus.SUCCESS
    assert k.sched.pick() is pd2


def test_vm_suspend(env):
    _, k, pd, _ = env
    assert call(k, pd, Hc.VM_SUSPEND) == HcStatus.SUCCESS
    from repro.kernel.pd import PdState
    assert pd.state is PdState.SUSPENDED


def test_ivc_send_recv_with_notification(env):
    _, k, pd, _ = env
    r2 = _Recorder()
    pd2 = k.create_vm("vm2", r2)
    assert call(k, pd, Hc.IVC_SEND, pd2.vm_id, 10, 20) == HcStatus.SUCCESS
    assert pd2.vgic.owns(IVC_IRQ)
    assert pd2.vgic.has_pending()
    k._handle_hypercall(pd2, ExitHypercall(num=int(Hc.IVC_RECV), args=()))
    src, *payload = r2.results[-1]
    assert src == pd.vm_id
    assert payload[:2] == [10, 20]


def test_ivc_recv_empty_returns_none(env):
    _, k, pd, r = env
    assert call(k, pd, Hc.IVC_RECV) is None


def test_ivc_send_to_unknown_vm_fails(env):
    _, k, pd, _ = env
    assert call(k, pd, Hc.IVC_SEND, 99, 1) == HcStatus.ERR_ARG


def test_hwtask_request_without_section_fails_fast(env):
    from repro.hwmgr.service import ManagerService
    _, k, pd, r = env
    k.attach_manager(ManagerService())
    assert call(k, pd, Hc.HWTASK_REQUEST, 1, L.GUEST_PRR_IFACE_VA,
                L.GUEST_HWDATA_VA) == HcStatus.ERR_ARG


def test_hwtask_request_without_manager_errors(env):
    _, k, pd, _ = env
    assert call(k, pd, Hc.HWTASK_REQUEST, 1, L.GUEST_PRR_IFACE_VA,
                L.GUEST_HWDATA_VA) == HcStatus.ERR_STATE


def test_hypercall_counts_tracked(env):
    _, k, pd, _ = env
    before = k.hypercall_count
    call(k, pd, Hc.REG_READ, 1)
    assert k.hypercall_count == before + 1
    assert k.metrics.total("kernel.hypercalls", vm=pd.vm_id) >= 1
    assert k.metrics.total("kernel.hypercalls", hc="REG_READ") == 1


def test_exception_stack_balanced_after_hypercalls(env):
    machine, k, pd, _ = env
    depth = machine.cpu.exception_depth
    for num in (Hc.REG_READ, Hc.TIMER_READ, Hc.CACHE_FLUSH_ALL):
        call(k, pd, num)
    assert machine.cpu.exception_depth == depth
