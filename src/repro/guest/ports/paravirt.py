"""Paravirtualized uC/OS-II port — the ~200-LOC patch of Section V-A.

Everything uCOS does that would be privileged on bare metal goes through
this port: boot-time virtual-timer registration, IRQ-entry registration,
hardware-task-data-section declaration, and per-operation hypercalls.  The
OS core itself (:mod:`repro.guest.ucos`) is unmodified — mirroring how the
paper isolates the porting code in a patch package.
"""

from __future__ import annotations

from ...common.errors import GuestPanic
from ...kernel.exits import ExitFault, ExitHypercall, ExitShutdown
from ...kernel.hypercalls import Hc
from .. import layout_guest as GL
from ..costs import CODE_API, CODE_HC_WRAPPER, UCOS_COSTS as UC
from ..exec import GuestExecutor
from ..ucos import Tcb, Ucos


class ParavirtUcos:
    """DomainRunner hosting one paravirtualized uCOS instance."""

    def __init__(self, os: Ucos) -> None:
        self.os = os
        self.kernel = None
        self.pd = None
        self.exec: GuestExecutor | None = None
        self._awaiting: Tcb | None = None
        self._boot: list[tuple[int, tuple]] = []
        self._boot_await: int | None = None
        self.halted = False

    # -- DomainRunner ------------------------------------------------------

    def bind(self, kernel, pd) -> None:
        self.kernel = kernel
        self.pd = pd
        self.exec = GuestExecutor(kernel.cpu, addr_base=0,
                                  stream=f"guest-{self.os.name}")
        self.os.port = self
        tick_cycles = kernel.machine.params.cpu.hz // self.os.tick_hz
        # The porting patch's boot sequence (Section V-A bullet list).
        self._boot = [
            (int(Hc.VIRQ_REGISTER), (GL.KERNEL_CODE + 0x40, GL.TICK_IRQ)),
            (int(Hc.TIMER_SET), (tick_cycles,)),
            (int(Hc.HWDATA_DEFINE), (GL.HWDATA_VA, GL.HWDATA_SIZE)),
        ]

    def step(self, budget: int):
        kernel = self.kernel
        if self.halted:
            return ExitShutdown()
        if self._boot:
            num, args = self._boot.pop(0)
            self.exec.code(GL.KERNEL_CODE + CODE_HC_WRAPPER,
                           UC.hypercall_wrapper)
            self._boot_await = num
            return ExitHypercall(num=num, args=args)
        start = kernel.sim.now
        # With the fast path, idle stretches spin up to the budget's end
        # (docs/PERFORMANCE.md §2); the poll below follows their last chunk.
        spin_until = start + budget if kernel.mem.fastpath else None
        while kernel.sim.now - start < budget:
            if self.os.pending_irqs:
                self.os.handle_pending_irqs()
            kind, payload = self.os.run_one_action(spin_until)
            if kind == "ran":
                if kernel.poll():
                    return None
            elif kind == "hypercall":
                tcb, num, args = payload
                self._awaiting = tcb
                return ExitHypercall(num=num, args=args)
            elif kind == "fault":
                return ExitFault(payload)
            elif kind == "halt":
                self.halted = True
                return ExitShutdown()
        return None

    def deliver_virq(self, irq_id: int) -> None:
        self.os.pending_irqs.append(irq_id)

    # -- VM lifecycle hooks (docs/RECOVERY.md §9) ----------------------------------

    def lifecycle_respawn(self) -> "ParavirtUcos":
        """A fresh runner for a resurrected incarnation of this VM: same
        task set, no execution state — the supervisor binds it to the
        rebuilt PD and the boot hypercall sequence replays."""
        return ParavirtUcos(self.os.lifecycle_fresh())

    def lifecycle_state(self) -> dict:
        """Checkpointable guest-software state beyond the memory image:
        the OS persistence scratchpad restartable tasks record progress in."""
        return {"persist": dict(self.os.persist)}

    def lifecycle_restore(self, state: dict) -> None:
        self.os.persist.clear()
        self.os.persist.update(state.get("persist", {}))

    def deliver_fault(self, fault) -> None:
        self.os.absorb_fault(fault)

    def complete_hypercall(self, exit_: ExitHypercall) -> None:
        if self._boot_await is not None:
            if self._boot_await == int(Hc.HWDATA_DEFINE):
                # Success returns the section's physical base (the guest
                # programs DMA addresses with it).
                if isinstance(exit_.result, int) and exit_.result > 0xFFF:
                    self.os.hwdata_pa = exit_.result
            self._boot_await = None
            return
        tcb = self._awaiting
        self._awaiting = None
        if tcb is None:
            raise GuestPanic(f"{self.os.name}: hypercall completion with no waiter")
        tcb.inbox, tcb.has_inbox = exit_.result, True

    # -- port primitives used by the OS core --------------------------------------

    @property
    def cpu(self):
        return self.kernel.cpu

    def do_hypercall(self, tcb: Tcb, num: int, args: tuple):
        self.exec.code(GL.KERNEL_CODE + CODE_HC_WRAPPER, UC.hypercall_wrapper)
        return ("hypercall", (tcb, num, args))

    def do_hw_request(self, tcb: Tcb, req):
        self.exec.code(GL.KERNEL_CODE + CODE_API, UC.api_glue)
        self.exec.code(GL.KERNEL_CODE + CODE_HC_WRAPPER, UC.hypercall_wrapper)
        args = (req.task_id, req.iface_va, req.data_va, int(req.want_irq))
        return ("hypercall", (tcb, int(Hc.HWTASK_REQUEST), args))

    def do_hw_release(self, tcb: Tcb, req):
        self.exec.code(GL.KERNEL_CODE + CODE_HC_WRAPPER, UC.hypercall_wrapper)
        return ("hypercall", (tcb, int(Hc.HWTASK_RELEASE), (req.task_id,)))

    def mmio_read(self, va: int) -> int:
        # Direct access through the guest's own mapping; faults (reclaimed
        # page) escape to the hypervisor as a data abort (Section IV-E).
        return self.cpu.read32(va)

    def mmio_write(self, va: int, value: int) -> None:
        self.cpu.write32(va, value)

    def section_write(self, offset: int, data: bytes) -> None:
        # The data section is DMA staging memory on the non-coherent
        # AXI_HP path: the guest treats it as uncached (Section IV-B).
        pa = self.os.hwdata_pa + offset
        self.kernel.mem.bus.dram.write_bytes(pa, data)
        self.cpu.stream_range(GL.HWDATA_VA + offset, len(data), write=True)

    def section_read(self, offset: int, n: int) -> bytes:
        pa = self.os.hwdata_pa + offset
        self.cpu.stream_range(GL.HWDATA_VA + offset, n)
        return self.kernel.mem.bus.dram.read_bytes(pa, n)

    def vfp(self, instrs: int) -> None:
        self.cpu.vfp.execute()       # traps (UND) while disabled
        self.cpu.instr(instrs)

    def iface_addr(self, prr_id: int, requested_va: int) -> int:
        return requested_va
