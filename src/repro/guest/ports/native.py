"""Native (non-virtualized) uC/OS-II port — the baseline of Table III.

The *same* uCOS core and the *same* allocation algorithm run directly on
the machine: uCOS in SVC mode on a flat address space, the Hardware Task
Manager as a plain OS function.  Consequently there is no manager
entry/exit cost (no memory-space switch), no PL-IRQ distribution cost (the
IRQ vectors straight into the OS), and the manager skips all page-table
work — exactly the differences the paper attributes the native column to.
"""

from __future__ import annotations

import math
from itertools import count

from ...common.errors import DeviceError, GuestPanic
from ...fpga.controller import CTL_STRIDE
from ...gic import gic as gicdev
from ...gic.irqs import IRQ_PCAP_DONE, IRQ_PRIVATE_TIMER, SPURIOUS_IRQ
from ...kernel import layout as KL
from ...kernel.hypercalls import Hc, HcStatus
from ...machine import GIC_BASE, Machine
from ...mem.descriptors import AP, DomainType, SECTION_SIZE, dacr_set
from ...mem.ptables import PageTable
from ..costs import CODE_HC_WRAPPER, UCOS_COSTS as UC
from .. import layout_guest as GL
from ..exec import GuestExecutor
from ..ucos import Tcb, Ucos
from ...hwmgr.alloc import AllocRequest, Allocator
from ...hwmgr.tables import HardwareTaskTable, PrrTable

_ICCIAR = GIC_BASE + gicdev.ICCIAR
_ICCEOIR = GIC_BASE + gicdev.ICCEOIR
_ICDISER = GIC_BASE + gicdev.ICDISER
_ICDICER = GIC_BASE + gicdev.ICDICER

#: Where the native manager's code lives inside the OS image (a uCOS
#: function, not a separate service).
MANAGER_FN_OFF = 0x3000


class NativeSystem:
    """Bare-metal uCOS + in-OS hardware-task manager on one Machine."""

    def __init__(self, machine: Machine, os: Ucos) -> None:
        self.machine = machine
        self.os = os
        self.cpu = machine.cpu
        self.sim = machine.sim
        self.tracer = machine.tracer
        self.metrics = machine.metrics
        self.phys_base = machine.mem.guest_frames.alloc(16 << 20, align=1 << 20)
        self.exec = GuestExecutor(self.cpu, addr_base=self.phys_base,
                                  stream=f"native-{os.name}")
        os.port = self
        os.hwdata_pa = self.phys_base + GL.HWDATA_VA
        self._tick_cycles = machine.params.cpu.hz // os.tick_hz
        self._mgr_port = _NativeManagerPort(self)
        task_table = HardwareTaskTable.build(
            machine.bitstreams, machine.prrs, machine.pcap.transfer_cycles,
            row_base=self.phys_base + GL.KERNEL_DATA + 0x2000)
        prr_table = PrrTable(machine.prrs,
                             row_base=self.phys_base + GL.KERNEL_DATA + 0x3000)
        self.allocator = Allocator(self._mgr_port, task_table, prr_table,
                                   machine.prrs, machine.metrics)
        self._m_irq_entries = machine.metrics.counter("kernel.irq_entries")
        self.booted = False
        self.halted = False
        self._rids = count(1)      # request IDs, as the kernel stamps them

    # -- boot ---------------------------------------------------------------

    def boot(self) -> None:
        cpu = self.cpu
        pt = PageTable(self.machine.mem.bus, self.machine.mem.kernel_frames,
                       name="native-flat")
        # Identity map low DRAM + device windows; OS runs privileged.
        for off in range(0, KL.KERNEL_LINEAR_SIZE, SECTION_SIZE):
            pt.map_section(KL.KERNEL_BASE + off, KL.KERNEL_BASE + off,
                           ap=AP.PRIV_ONLY, domain=0, ng=False)
        for base in (GIC_BASE & ~(SECTION_SIZE - 1),
                     0xF800_0000,
                     0xE000_0000,
                     self.machine.params.memmap.prr_reg_base):
            pt.map_section(base, base, ap=AP.PRIV_ONLY, domain=0, ng=False)
        sys = cpu.sysregs
        cpu.vbar = self.phys_base + GL.KERNEL_CODE   # uCOS's own vectors
        sys.write("TTBR0", pt.l1_base, privileged=True)
        sys.write("DACR", dacr_set(0, 0, DomainType.CLIENT), privileged=True)
        sys.write("CONTEXTIDR", 0, privileged=True)
        sys.write("SCTLR", 1, privileged=True)
        cpu.irq_masked = False
        cpu.vfp.enable()                 # full authority: VFP always on
        cpu.vfp.owner = 0
        # Enable timer + PCAP IRQs; PL lines are enabled per allocation.
        for irq in (IRQ_PRIVATE_TIMER, IRQ_PCAP_DONE):
            self.machine.gic.set_enable(irq, True)
        self.machine.private_timer.program(self._tick_cycles)
        self.booted = True

    # -- main loop -----------------------------------------------------------------

    def run(self, *, until_cycles: int | None = None, until=None,
            max_iterations: int = 10_000_000) -> None:
        if not self.booted:
            raise DeviceError("boot() first")
        # With the fast path, idle stretches spin up to ``until_cycles``
        # (docs/PERFORMANCE.md §2), each spun chunk counting as one
        # iteration.  ``until`` is evaluated between spins only: it cannot
        # change while only the idle task runs and no event fires.
        spin_until = None
        if self.machine.mem.fastpath:
            spin_until = math.inf if until_cycles is None else until_cycles
        iterations = 0
        while iterations < max_iterations:
            iterations += 1
            if until_cycles is not None and self.sim.now >= until_cycles:
                return
            if until is not None and until():
                return
            self.sim.dispatch_due()
            if self.cpu.irq_pending():
                self._handle_irq()
                continue
            if self.halted:
                if not self.sim.advance_to_next_event(until_cycles):
                    return
                continue
            if self.os.pending_irqs:
                self.os.handle_pending_irqs()
            kind, payload = self.os.run_one_action(spin_until)
            if kind == "fault":
                raise GuestPanic(f"native fault: {payload}")
            if kind == "halt":
                self.halted = True
            if kind == "ran" and payload:
                iterations += payload - 1
        raise GuestPanic("native run loop exceeded max_iterations")

    def _handle_irq(self) -> None:
        """IRQ vectors directly into uCOS (no distribution layer)."""
        cpu = self.cpu
        self._m_irq_entries.inc()
        cpu.take_exception("irq")
        irq = cpu.read32(_ICCIAR)
        if irq == SPURIOUS_IRQ:
            cpu.return_from_exception()
            return
        cpu.write32(_ICCEOIR, irq)
        if irq == IRQ_PRIVATE_TIMER:
            self.os.pending_irqs.append(GL.TICK_IRQ)
            self.machine.private_timer.program(self._tick_cycles)
        else:
            self.os.pending_irqs.append(irq)
        cpu.return_from_exception()

    # -- port primitives -------------------------------------------------------------

    def do_hypercall(self, tcb: Tcb, num: int, args: tuple):
        """Native 'hypercalls' are just function calls with full authority."""
        self.exec.code(GL.KERNEL_CODE + CODE_HC_WRAPPER, UC.hypercall_wrapper)
        result: object = HcStatus.SUCCESS
        hc = Hc(num)
        if hc is Hc.TIMER_SET:
            self._tick_cycles = args[0] or self._tick_cycles
            self.machine.private_timer.program(self._tick_cycles)
        elif hc is Hc.HWDATA_DEFINE:
            result = self.os.hwdata_pa
        elif hc in (Hc.IRQ_ENABLE, Hc.IRQ_DISABLE):
            irq = args[0]
            base = _ICDISER if hc is Hc.IRQ_ENABLE else _ICDICER
            self.cpu.write32(base + 4 * (irq // 32), 1 << (irq % 32))
        elif hc is Hc.CACHE_FLUSH_ALL:
            self.sim.clock.advance(self.machine.mem.caches.flush_all())
        elif hc is Hc.TLB_FLUSH_VA:
            self.machine.mem.mmu.tlb.flush_va(args[0] >> 12, 0)
        elif hc is Hc.TIMER_READ:
            result = self.machine.private_timer.remaining() or 0
        elif hc is Hc.DEV_ACCESS:
            from ...io.uart import UART_FIFO
            from ...machine import UART_BASE
            for word in args[2:4]:
                for shift in (0, 8, 16, 24):
                    ch = (word >> shift) & 0xFF
                    if ch:
                        self.cpu.write32(UART_BASE + UART_FIFO, ch)
        # Everything else is a no-op with SUCCESS (full authority).
        tcb.inbox, tcb.has_inbox = result, True
        return ("ran", None)

    def do_hw_request(self, tcb: Tcb, req):
        """The manager as a direct function call (Table III native row):
        trap/exec/resume collapse into one call, so the entry/exit spans
        have zero width by construction."""
        rid = next(self._rids)
        self.tracer.mark("hwreq_trap", cat="hwmgr", vm=0,
                         hc=int(Hc.HWTASK_REQUEST), rid=rid)
        with self.tracer.span("mgr_exec", cat="hwmgr", vm=0, rid=rid):
            r = self.allocator.allocate(AllocRequest(
                client_vm=0, task_id=req.task_id,
                iface_va=req.iface_va,
                data_pa=self.os.hwdata_pa + (req.data_va - GL.HWDATA_VA),
                data_size=GL.HWDATA_SIZE - (req.data_va - GL.HWDATA_VA),
                want_irq=req.want_irq, rid=rid))
        self.metrics.counter("hwmgr.requests", kind="request").inc()
        self.tracer.mark("hwreq_done", cat="hwmgr", vm=0, status=int(r.status),
                         rid=rid)
        self.tracer.mark("hwreq_resumed", cat="hwmgr", vm=0, rid=rid)
        tcb.inbox, tcb.has_inbox = (r.status, r.prr_id, r.irq_id), True
        return ("ran", None)

    def do_hw_release(self, tcb: Tcb, req):
        r = self.allocator.release(0, req.task_id)
        tcb.inbox, tcb.has_inbox = (r.status, r.prr_id, None), True
        return ("ran", None)

    def mmio_read(self, va: int) -> int:
        return self.cpu.read32(va)

    def mmio_write(self, va: int, value: int) -> None:
        self.cpu.write32(va, value)

    def section_write(self, offset: int, data: bytes) -> None:
        # Uncached DMA staging, as in the paravirt port (AXI_HP is not
        # cache-coherent; Section IV-A discusses why ACP was rejected).
        pa = self.os.hwdata_pa + offset
        self.machine.mem.bus.dram.write_bytes(pa, data)
        self.cpu.stream_range(pa, len(data), write=True)

    def section_read(self, offset: int, n: int) -> bytes:
        pa = self.os.hwdata_pa + offset
        self.cpu.stream_range(pa, n)
        return self.machine.mem.bus.dram.read_bytes(pa, n)

    def vfp(self, instrs: int) -> None:
        self.cpu.vfp.execute()
        self.cpu.instr(instrs)

    def iface_addr(self, prr_id: int, requested_va: int) -> int:
        return self.machine.prr_reg_page_paddr(prr_id)


class _NativeManagerPort:
    """ManagerPort hooks for the native build: device work is real, all
    virtualization-specific steps are no-ops."""

    def __init__(self, system: NativeSystem) -> None:
        self.sys = system

    def code(self, off: int, n_instr: int) -> None:
        self.sys.exec.code(GL.KERNEL_CODE + MANAGER_FN_OFF + off, n_instr)

    def touch(self, addr: int, *, write: bool = False) -> None:
        if write:
            self.sys.cpu.store(addr)
        else:
            self.sys.cpu.load(addr)

    def ctl_write(self, prr_id: int, field: int, value: int) -> None:
        pa = self.sys.machine.prr_ctl_page_paddr() + prr_id * CTL_STRIDE + field
        self.sys.cpu.write32(pa, value)

    def reg_group_save(self, old_client_vm: int, prr) -> None:
        pass   # single client: the consistency protocol never triggers

    def map_iface(self, client_vm: int, prr_id: int, va: int) -> None:
        pass   # unified memory space: nothing to map

    def unmap_iface(self, client_vm: int, prr_id: int) -> None:
        pass

    def mark_consistent(self, client_vm: int) -> None:
        pass

    def register_irq(self, client_vm: int, irq_id: int) -> None:
        self.sys.cpu.write32(_ICDISER + 4 * (irq_id // 32), 1 << (irq_id % 32))

    def unregister_irq(self, client_vm: int, irq_id: int) -> None:
        self.sys.cpu.write32(_ICDICER + 4 * (irq_id // 32), 1 << (irq_id % 32))

    def pcap_available(self) -> bool:
        return not self.sys.machine.pcap.busy

    def pcap_launch(self, entry, prr_id: int, client_vm: int,
                    rid: int | None) -> None:
        from ...fpga.pcap import PCAP_LEN, PCAP_SRC, PCAP_TARGET
        from ...machine import PCAP_BASE
        cpu = self.sys.cpu
        cpu.write32(PCAP_BASE + PCAP_SRC, entry.bitstream.paddr)
        cpu.write32(PCAP_BASE + PCAP_LEN, entry.bitstream.size)
        cpu.write32(PCAP_BASE + PCAP_TARGET, prr_id)
        self.sys.machine.pcap.start_transfer(entry.bitstream, prr_id, rid)

    def crashpoint(self, point: str) -> None:
        pass  # the native manager is a plain function — it cannot "crash"

    def pcap_cancel(self, prr_id: int) -> int | None:
        return self.sys.machine.pcap.cancel_transfer(prr_id)

    def iface_va_of(self, client_vm: int, prr_id: int) -> int | None:
        # Identity space: the register group is always "mapped" at its PA.
        return self.sys.machine.prr_reg_page_paddr(prr_id)

    def prr_mapped_at(self, client_vm: int, va: int) -> int | None:
        return None
