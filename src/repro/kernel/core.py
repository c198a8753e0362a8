"""Mini-NOVA: the microkernel/VMM itself.

Everything in Section III lives here: exception-driven entry (SVC =
hypercalls, UND = privileged/VFP traps, ABT = page faults, IRQ = physical
interrupts), the vCPU switch with active/lazy resource classes, the vGIC
mask/unmask-and-inject protocol, DACR-based guest kernel/user separation,
the priority round-robin scheduler, and the 25-hypercall ABI.

Every kernel path is *timed*: it executes `cpu.code()` at its own code
address (paying I-cache reality) and touches its data structures through
the D-cache/TLB models, so the virtualization overheads of Table III are
produced, not scripted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Callable

from ..common.errors import (
    DeviceError,
    GuestPanic,
    HypercallError,
    ReproError,
    ServiceCrashed,
    SimulationError,
    UndefinedInstruction,
)
from ..common.units import ms_to_cycles
from ..cpu.modes import Mode
from ..cpu.vfp import VFP_CONTEXT_WORDS
from ..gic import gic as gicdev
from ..hwmgr.journal import JOURNAL_OFF, OP_ALLOCATE, IntentJournal
from ..gic.irqs import IRQ_PCAP_DONE, IRQ_PRIVATE_TIMER, SPURIOUS_IRQ, pl_line
from ..machine import GIC_BASE, Machine
from ..obs.accounting import VmAccounting
from . import layout as L
from .costs import KERNEL_COSTS as C
from .exits import (
    ExitFault,
    ExitHypercall,
    ExitIdle,
    ExitShutdown,
    GuestExit,
)
from .hypercalls import Hc, HcStatus
from .ivc import IVC_IRQ, IvcRouter
from .lifecycle import VmLifecycle
from .memory import DACR_GUEST_KERNEL, DACR_GUEST_USER, DACR_HOST, KernelMemory
from .pd import PdState, ProtectionDomain
from .sched import Scheduler
from .supervisor import ManagerSupervisor
from .vcpu import Vcpu
from .vgic import VGic

_ICCIAR = GIC_BASE + gicdev.ICCIAR
_ICCEOIR = GIC_BASE + gicdev.ICCEOIR
_ICDISER = GIC_BASE + gicdev.ICDISER
_ICDICER = GIC_BASE + gicdev.ICDICER


#: Scheduling priority of guest PDs (services run above, idle at 0).
GUEST_PRIORITY = 1


@dataclass
class KernelConfig:
    """Boot-time policy knobs (defaults = the paper's design; the
    alternatives exist for the ablation benches)."""

    #: Guest scheduling quantum, milliseconds (paper: 33 ms).
    quantum_ms: float = 33.0
    lazy_vfp: bool = True          # Table I: VFP is lazy-switched
    use_asid: bool = True          # Section III-C: no TLB flush on switch
    #: Also emit the high-rate events (per-hypercall, per-vIRQ-injection,
    #: timer fires) documented as *verbose* in docs/OBSERVABILITY.md.
    trace_verbose: bool = False
    #: Priority of the services (manager); guests run at
    #: :data:`GUEST_PRIORITY`, idle at 0.
    service_priority: int = 2
    #: Services resume at the front of their circle (immediate dispatch);
    #: False = ablation where the manager waits its round-robin turn.
    service_resume_front: bool = True


@dataclass
class _HwRequest:
    """Mailbox record for the Hardware Task Manager."""

    kind: str   # "request" | "release" | "irq_attach" | "watchdog" | "client_died"
    pd: ProtectionDomain
    #: None for kernel-originated requests (watchdog): nothing to resume.
    exit_: ExitHypercall | None
    task_id: int = 0
    iface_va: int = 0
    data_va: int = 0
    want_irq: bool = False
    #: Request ID stamped at the HWTASK_REQUEST trap (None for other kinds).
    rid: int | None = None


class MiniNova:
    def __init__(self, machine: Machine, config: KernelConfig | None = None) -> None:
        self.machine = machine
        self.config = config or KernelConfig()
        self.cpu = machine.cpu
        self.mem = machine.mem
        self.sim = machine.sim
        #: The machine's tracer and registry: every count this kernel
        #: reports has its one book there (docs/OBSERVABILITY.md §6).
        self.tracer = machine.tracer
        self.tracer.verbose = self.config.trace_verbose
        self.metrics = machine.metrics
        self._m_vm_switch_cycles = self.metrics.histogram(
            "kernel.vm_switch_cycles")
        self._m_irq_entries = self.metrics.counter("kernel.irq_entries")
        self._m_irqs = self.metrics.counter("kernel.irqs")
        self._m_hypercall_cycles = self.metrics.histogram(
            "kernel.hypercall_cycles")
        #: Per-VM resource accounting: context-clock cycle attribution,
        #: PRR occupancy and vIRQ latency samples (docs/BENCHMARKS.md).
        self.acct = VmAccounting(self.metrics)
        self.kmem = KernelMemory(machine)
        self.sched = Scheduler(
            ms_to_cycles(self.config.quantum_ms, machine.params.cpu.hz),
            self.metrics)
        self.ivc = IvcRouter(self.metrics)
        self.syms = L.SYMS
        self.domains: dict[int, ProtectionDomain] = {}
        self.current: ProtectionDomain | None = None
        self._next_vm_id = 1
        self._timer_purpose: tuple[str, ProtectionDomain] | None = None
        self._plirq_seq = 0
        self._rids = count(1)      # request IDs, stamped at HWTASK_REQUEST
        self._irq_vector_t = 0
        #: VM that launched the in-flight PCAP transfer (gets the DONE IRQ).
        self.pcap_client: ProtectionDomain | None = None
        #: The Hardware Task Manager service PD + its request mailbox.
        self.manager_pd: ProtectionDomain | None = None
        self.manager_queue: list[_HwRequest] = []
        #: Fault injector attachment point (set by FaultInjector.attach;
        #: None = happy path, zero supervision events scheduled).
        self.faults = None
        #: Brownout controller attachment point (a :class:`repro.hwmgr.
        #: brownout.BrownoutController`; None = brownout mode off).  The
        #: manager service feeds it pressure, the adaptive guest APIs
        #: consult it for best-effort tasks (docs/FLEET.md §11).
        self.brownout = None
        #: Flight-recorder attachment point (set by FlightRecorder.arm;
        #: None = no post-mortem bundle on incident — docs/OBSERVABILITY.md
        #: §13).  Purely observational: dumping never mutates kernel state.
        self.flight = None
        #: Kernel-owned write-ahead intent journal for the manager; lives
        #: logically in the manager's persistent data area, so it survives
        #: a service restart (docs/RECOVERY.md).
        self.manager_journal: IntentJournal | None = None
        #: Health-checks the manager PD and drives crash recovery.
        self.supervisor = ManagerSupervisor(self)
        #: Checkpoint store + per-VM death policies (restart / restore /
        #: halt — docs/RECOVERY.md §9).  Schedules nothing until a VM
        #: actually dies.
        self.lifecycle = VmLifecycle(self)
        #: Per-VM console transcript: (vm_id, line) in emission order.
        self.console_log: list[tuple[int, str]] = []
        self._console_bufs: dict[int, bytearray] = {}
        self.booted = False

    @property
    def vm_switch_count(self) -> int:
        """All VMs' ``kernel.vm_switches`` (a read-only view over the
        registry, kept for benchmarks/e2e)."""
        return self.metrics.total("kernel.vm_switches")

    @property
    def hypercall_count(self) -> int:
        """All VMs' ``kernel.hypercalls`` (a read-only view over the
        registry, kept for benchmarks/e2e)."""
        return self.metrics.total("kernel.hypercalls")

    # ------------------------------------------------------------------ boot

    def boot(self) -> None:
        """Install vectors, enable the MMU on the kernel space."""
        cpu, sys = self.cpu, self.cpu.sysregs
        cpu.vbar = self.syms.vectors
        sys.write("VBAR", self.syms.vectors, privileged=True)
        sys.write("TTBR0", self.kmem.kernel_pt.l1_base, privileged=True)
        sys.write("DACR", DACR_HOST, privileged=True)
        sys.write("CONTEXTIDR", 0, privileged=True)
        sys.write("SCTLR", 1, privileged=True)
        # Kernel-owned physical interrupts: the scheduler timer and the
        # PCAP-done line are always live (their *virtual* counterparts are
        # per-VM and routed through the vGICs).
        for irq in (IRQ_PRIVATE_TIMER, IRQ_PCAP_DONE):
            self.machine.gic.set_enable(irq, True)
        # Hung-task watchdog recovery goes through the manager service.
        self.machine.prr_controller.on_hang = self._on_prr_hang
        # Failure/recovery counters, registered up front so the BENCH
        # artifacts carry them zero-valued on fault-free runs
        # (docs/FAULTS.md; the pcap.* ones register with the machine).
        self.metrics.counter("fault.injected")
        self.metrics.counter("kernel.vm_kills")
        self.metrics.counter("kernel.hypercall_faults")
        self.metrics.counter("kernel.plirq_spurious")
        self.metrics.counter("recovery.watchdog_reclaims")
        self.metrics.counter("recovery.sw_fallbacks")
        self.metrics.histogram("recovery.latency_cycles")
        # Manager supervision + crash recovery (docs/RECOVERY.md).
        self.metrics.counter("supervisor.crashes")
        self.metrics.counter("supervisor.restarts")
        self.metrics.counter("supervisor.deadline_expiries")
        self.metrics.counter("supervisor.invariant_violations")
        self.metrics.histogram("supervisor.restart_cycles")
        self.metrics.counter("recovery.bounced_requests")
        self.metrics.counter("recovery.journal_rollbacks")
        self.metrics.counter("recovery.journal_replays")
        self.metrics.counter("recovery.reconcile_reclaims")
        # VM lifecycle: checkpoint/restore + kill-path reclamation
        # (docs/RECOVERY.md §9) — zero-valued on fault-free runs.
        self.metrics.counter("vm.lifecycle.checkpoints")
        self.metrics.counter("vm.lifecycle.checkpoint_bytes")
        self.metrics.counter("vm.lifecycle.restore_bytes")
        self.metrics.counter("vm.lifecycle.restarts")
        self.metrics.counter("vm.lifecycle.restores")
        self.metrics.counter("vm.lifecycle.halts")
        self.metrics.counter("vm.lifecycle.virqs_dropped")
        self.metrics.counter("vm.lifecycle.virqs_replayed")
        self.metrics.counter("vm.lifecycle.virqs_dead_epoch")
        self.metrics.counter("vm.lifecycle.iface_unmaps")
        self.metrics.counter("vm.lifecycle.requests_purged")
        self.metrics.counter("vm.lifecycle.ivc_purged")
        self.metrics.counter("vm.lifecycle.client_reclaims")
        self.metrics.counter("vm.lifecycle.adoptions")
        self.metrics.histogram("vm.lifecycle.checkpoint_cycles")
        self.metrics.histogram("vm.lifecycle.restore_cycles")
        # Accounting starts at boot time: every later cycle is attributed
        # to a context (kernel / guest / idle) until the books are read.
        self.acct.bind(self.sim.clock)
        self.sim.attach_accounting(self.acct)
        cpu.irq_masked = False
        self.booted = True

    # ------------------------------------------------------------ VM creation

    def create_vm(self, name: str, runner, *, priority: int | None = None,
                  runnable: bool = True) -> ProtectionDomain:
        """Build a guest VM: address space, vCPU, vGIC, PD; enqueue it."""
        vm_id = self._next_vm_id
        self._next_vm_id += 1
        phys_base = self.mem.guest_frames.alloc(L.GUEST_PHYS_CHUNK,
                                                align=1 << 20)
        pt = self.kmem.build_guest_space(name, phys_base)
        kobj = self.mem.kernel_frames.alloc(4096)
        vcpu = Vcpu(vm_id=vm_id, save_area=kobj + 0x40)
        pd = ProtectionDomain(
            vm_id=vm_id, name=name,
            priority=GUEST_PRIORITY if priority is None else priority,
            vcpu=vcpu, vgic=VGic(vm_id=vm_id, acct=self.acct), page_table=pt,
            asid=self.kmem.alloc_asid(), phys_base=phys_base,
            phys_size=L.GUEST_PHYS_CHUNK, runner=runner, kobj_addr=kobj)
        self.domains[vm_id] = pd
        self.acct.register_vm(vm_id, name)
        self.ivc.register(vm_id)
        runner.bind(self, pd)
        self.sched.add(pd, runnable=runnable)
        return pd

    def attach_manager(self, runner) -> ProtectionDomain:
        """Create the Hardware Task Manager service PD (suspended; it is
        resumed — preempting guests — whenever a request arrives)."""
        if self.manager_pd is not None:
            raise DeviceError("manager already attached")
        vm_id = self._next_vm_id
        self._next_vm_id += 1
        phys_base = self.mem.guest_frames.alloc(4 << 20, align=1 << 20)
        pt = self.kmem.build_manager_space(phys_base)
        kobj = self.mem.kernel_frames.alloc(4096)
        pd = ProtectionDomain(
            vm_id=vm_id, name="hw-task-manager",
            priority=self.config.service_priority,
            vcpu=Vcpu(vm_id=vm_id, save_area=kobj + 0x40),
            vgic=VGic(vm_id=vm_id, acct=self.acct), page_table=pt,
            asid=self.kmem.alloc_asid(), phys_base=phys_base,
            phys_size=4 << 20, runner=runner, kobj_addr=kobj)
        self.domains[vm_id] = pd
        self.acct.register_vm(vm_id, "hw-task-manager")
        # The intent journal outlives the service instance: it models the
        # write-ahead log in the manager's persistent data area.
        if self.manager_journal is None:
            self.manager_journal = IntentJournal(
                row_base=L.MANAGER_DATA_VA + JOURNAL_OFF)
        # Journal close-out on PCAP completion/abort is kernel-side so it
        # keeps working across manager restarts (the hooks look the
        # current service instance up dynamically).
        self.machine.pcap.on_done = self._manager_pcap_done
        self.machine.pcap.on_abort = self._manager_pcap_abort
        runner.bind(self, pd)
        self.sched.add(pd, runnable=False)
        self.manager_pd = pd
        return pd

    # ------------------------------------------------------------------- loop

    def poll(self) -> bool:
        """Called by runners between chunks: fire due events, report IRQs."""
        self.sim.dispatch_due()
        return self.cpu.irq_pending()

    def run(self, *, until_cycles: int | None = None,
            until: Callable[[], bool] | None = None,
            max_iterations: int = 10_000_000) -> None:
        """Main dispatch loop; returns when the condition holds or nothing
        remains runnable and no events are pending.

        Anything escaping the loop is a kernel-level incident: if a
        flight recorder is armed, it dumps a post-mortem bundle before
        the exception propagates.
        """
        if not self.booted:
            raise DeviceError("boot() first")
        try:
            self._run_loop(until_cycles, until, max_iterations)
        except Exception as exc:
            if self.flight is not None:
                from ..obs.flight import maybe_dump
                maybe_dump(self, "unhandled_exception",
                           error=type(exc).__name__, detail=str(exc))
            raise

    def _run_loop(self, until_cycles, until, max_iterations) -> None:
        deadline = until_cycles
        for _ in range(max_iterations):
            if deadline is not None and self.sim.now >= deadline:
                return
            if until is not None and until():
                return
            self.sim.dispatch_due()
            if self.cpu.irq_pending():
                self._handle_physical_irq()
                continue
            pd = self.sched.pick()
            if pd is None:
                if not self.sim.advance_to_next_event(deadline):
                    return
                continue
            if pd is not self.current:
                self._vm_switch(pd)
            self._resume_completed_hypercall(pd)
            self._deliver_pending_virqs(pd)
            start = self.sim.now
            budget = pd.quantum_remaining
            # Guest privilege view is constant within one chunk: it only
            # flips in kernel context (GUEST_MODE_SET, vIRQ injection).
            ctx = self.acct.guest_push(pd.vm_id, pd.vcpu.guest_kernel_mode)
            try:
                exit_ = pd.runner.step(budget)
            except ServiceCrashed as crash:
                self.acct.pop(ctx)
                used = self.sim.now - start
                self.sched.charge(pd, used)
                self._consume_vtime(pd, used)
                if pd is not self.manager_pd:
                    raise        # only the manager service is restartable
                self.supervisor.handle_crash(pd, crash)
                continue
            self.acct.pop(ctx)
            used = self.sim.now - start
            self.sched.charge(pd, used)
            self._consume_vtime(pd, used)
            if exit_ is not None:
                self._handle_exit(pd, exit_)
            if pd.state is PdState.RUN and pd.quantum_remaining <= 0:
                self.sched.quantum_expired(pd)
                if self.current is pd and self.sched.pick() is pd:
                    # Same PD continues into a fresh slice: rearm the timer
                    # (a switch to another PD would have done it).
                    self._program_timer(pd)
        raise GuestPanic("kernel run loop exceeded max_iterations")

    # -------------------------------------------------------------- VM switch

    def _vm_switch(self, to: ProtectionDomain) -> None:
        cpu, syms = self.cpu, self.syms
        switch_start = self.sim.now
        ctx = self.acct.push("kernel", to.vm_id)   # switch-in cost: successor
        # The switch runs in kernel context (reached via SVC/IRQ on real
        # hardware; the run loop raises privilege explicitly here).
        cpu.set_mode(Mode.SVC)
        cpu.irq_masked = True
        prev = self.current
        self.tracer.mark("vm_switch", cat="sched",
                         frm=prev.vm_id if prev else 0, to=to.vm_id)
        cpu.code(syms.scheduler, C.scheduler_pick)
        # The scheduler traverses the double-linked priority circles
        # (Fig. 3): one PD record per runnable domain.  Other domains'
        # records go cold while they wait, so this walk is where the
        # VM-count-dependent cache cost of dispatch shows up.  Each PD's
        # 10 instructions are charged as the walk reaches it, and the
        # loads of every record in one run after them: nothing reads the
        # clock in between.
        records = []
        for level in range(self.sched.n_priorities - 1, -1, -1):
            for queued in self.sched.run_queue_at(level):
                cpu.instr(10)
                # PD record: link words, priority/state, quantum account.
                kobj = L.kva(queued.kobj_addr)
                records += (kobj + 0x80, kobj + 0x180, kobj + 0x280)
        cpu.load_run(records)
        cpu.code(syms.vm_switch, C.vm_switch_fixed)

        if prev is not None:
            # Active save: user registers + virtual state into the save area.
            prev.vcpu.save_user_regs(cpu.regs)
            area = L.kva(prev.vcpu.save_area)
            cpu.store_run(range(area, area + 4 * Vcpu.ACTIVE_CONTEXT_WORDS, 4))
            self._gic_mask_set(prev, enable=False)

        # Unmask the successor's enabled IRQs, restore its context.
        self._gic_mask_set(to, enable=True)
        to.vcpu.restore_user_regs(cpu.regs)
        area = L.kva(to.vcpu.save_area)
        cpu.load_run(range(area, area + 4 * Vcpu.ACTIVE_CONTEXT_WORDS, 4))

        # TTBR/ASID/DACR reload (the cheap switch Section III-C argues for).
        sysregs = cpu.sysregs
        sysregs.write("TTBR0", to.page_table.l1_base, privileged=True)
        sysregs.write("CONTEXTIDR", to.asid, privileged=True)
        sysregs.write("DACR", DACR_GUEST_KERNEL if to.vcpu.guest_kernel_mode
                      else DACR_GUEST_USER, privileged=True)
        cpu.instr(C.ttbr_asid_dacr_reload)
        if not self.config.use_asid:
            # Ablation: pretend the TLB is not ASID-tagged.
            self.mem.mmu.tlb.flush_all()
            self.metrics.counter("kernel.tlb_flush", kind="switch_all").inc()
            cpu.instr(C.tlb_flush_asid)

        # VFP policy (Table I): lazy = just disable; eager = move both banks.
        if self.config.lazy_vfp:
            cpu.vfp.disable()
        else:
            if prev is not None and cpu.vfp.owner == prev.vm_id:
                cpu.vfp.save_bank()
                bank = L.kva(prev.vcpu.save_area + 0x100)
                cpu.store_run(range(bank, bank + 4 * VFP_CONTEXT_WORDS, 4))
            cpu.vfp.restore_bank(to.vm_id)
            bank = L.kva(to.vcpu.save_area + 0x100)
            cpu.load_run(range(bank, bank + 4 * VFP_CONTEXT_WORDS, 4))
            cpu.vfp.enable()

        self._program_timer(to)
        self.metrics.counter("kernel.vm_switches", vm=to.vm_id).inc()
        self._m_vm_switch_cycles.observe(self.sim.now - switch_start)
        self.acct.pop(ctx)
        self.current = to
        # Drop to PL0 for the incoming domain; IRQs are live while it runs.
        cpu.set_mode(Mode.USR)
        cpu.irq_masked = False

    def _gic_mask_set(self, pd: ProtectionDomain, *, enable: bool) -> None:
        """Reflect ``pd``'s enabled vIRQ set into the physical GIC.

        Per Fig. 2 the kernel walks the VM's whole vIRQ record list (one
        entry per IRQ source number) to find the enabled ones.
        """
        cpu = self.cpu
        # Record-list walk: 96 entries x 4 B = 12 cache lines of per-VM data.
        cpu.instr(30)
        records = L.kva(pd.kobj_addr) + 0x100
        cpu.load_run(range(records, records + 2 * self.machine.gic.n_irqs, 32))
        kernel_owned = (IRQ_PRIVATE_TIMER, IRQ_PCAP_DONE)
        irqs = [i for i in pd.vgic.enabled_irqs() if i not in kernel_owned]
        if not irqs:
            return
        words: dict[int, int] = {}
        for irq in irqs:
            cpu.instr(C.vgic_mask_per_irq)
            words[irq // 32] = words.get(irq // 32, 0) | (1 << (irq % 32))
        base = _ICDISER if enable else _ICDICER
        for w, bits in sorted(words.items()):
            cpu.write32(base + 4 * w, bits)

    def _program_timer(self, pd: ProtectionDomain) -> None:
        """Arm the private timer for quantum end or the guest's next vtick,
        whichever is sooner."""
        cpu = self.cpu
        quantum = max(1, pd.quantum_remaining)
        vt = pd.vcpu.vtimer
        if vt.armed and vt.remaining <= 0:
            # The tick expired while the VM was away (paper: the IRQ state
            # stays until the VM is next scheduled): deliver it now.
            vt.remaining = vt.period
            if pd.vgic.owns(vt.irq_id):
                pd.vgic.pend(vt.irq_id)
        if vt.armed and vt.remaining > 0 and vt.remaining < quantum:
            delay, purpose = vt.remaining, "vtick"
        else:
            delay, purpose = quantum, "quantum"
        cpu.instr(C.timer_reprogram)
        self.machine.private_timer.program(delay)
        self._timer_purpose = (purpose, pd)

    def _consume_vtime(self, pd: ProtectionDomain, used: int) -> None:
        vt = pd.vcpu.vtimer
        if vt.armed and vt.remaining > 0:
            vt.remaining = max(0, vt.remaining - used)

    # --------------------------------------------------------- interrupt entry

    def _handle_physical_irq(self) -> None:
        cpu, syms = self.cpu, self.syms
        # ACK/EOI/routing is unattributed kernel work; injection into a
        # specific VM re-pushes with that VM (see _inject_virq).
        ctx = self.acct.push("kernel", None)
        self._m_irq_entries.inc()           # spurious ACKs included
        self._irq_vector_t = self.sim.now   # PL-IRQ entry is measured from
        cpu.take_exception("irq")           # the exception vector (paper)
        cpu.code(syms.irq_entry, C.irq_entry_stub)
        irq = cpu.read32(_ICCIAR)               # ACK (timed device read)
        if irq == SPURIOUS_IRQ:
            cpu.return_from_exception()
            self.acct.pop(ctx)
            return
        self._m_irqs.inc()
        if self.tracer.verbose:
            self.tracer.mark("irq_phys", cat="vgic", irq=irq)
        cpu.code(syms.vgic_inject, C.vgic_ack_and_route)
        cpu.write32(_ICCEOIR, irq)              # paper: EOI before injecting

        line = pl_line(irq)
        if irq == IRQ_PRIVATE_TIMER:
            self._timer_fired()
        elif irq == IRQ_PCAP_DONE:
            if self.pcap_client is not None:
                target = self.pcap_client
                self.pcap_client = None
                if target.state is PdState.DEAD:
                    self._note_dead_epoch_virq(target, irq)
                elif target.vgic.owns(irq):
                    target.vgic.pend(irq)
                    if target is self.current:
                        self._inject_virq(target, measure_pl=False)
        elif line is not None:
            self._route_pl_irq(irq, line)
        # other device IRQs (UART...) are kernel-internal: nothing to inject
        cpu.return_from_exception()
        self.acct.pop(ctx)

    def _route_pl_irq(self, irq: int, line: int) -> None:
        """Hardware-task IRQ -> owning VM's vGIC (Fig. 6)."""
        self._plirq_seq += 1
        seq = self._plirq_seq
        # Measured from the exception vector (paper), not from here.
        self.tracer.mark_at(self._irq_vector_t, "plirq_route_start",
                            cat="vgic", seq=seq, irq=irq)
        target: ProtectionDomain | None = None
        for prr in self.machine.prrs:
            if prr.irq_line == line and prr.client_vm is not None:
                target = self.domains.get(prr.client_vm)
                break
        cpu = self.cpu
        # IRQ -> PRR -> client routing: scan the per-PRR routing records.
        n = len(self.machine.prrs)
        cpu.instr(10 * n)
        routes = self.syms.vgic_inject + 0x80
        cpu.load_run(range(routes, routes + 32 * n, 32))
        if target is not None and target.state is PdState.DEAD:
            # Dead-epoch rule (docs/RECOVERY.md §9): counted + dropped,
            # never delivered.
            self._note_dead_epoch_virq(target, irq)
            self.tracer.mark("plirq_route_end", cat="vgic", seq=seq, vm=0)
        elif target is not None and target.vgic.owns(irq):
            target.vgic.pend(irq)
            cpu.store(L.kva(target.kobj_addr + 0x100 + 4 * irq))
            self.tracer.mark("plirq_route_end", cat="vgic", seq=seq,
                             vm=target.vm_id)
            if target is self.current:
                # Paper: handled immediately when the VM is running.
                self._inject_virq(target, measure_pl=True, seq=seq)
            else:
                target.vcpu.vregs["_pending_pl_seq"] = seq
        else:
            # Unsolicited PL IRQ (no owning client): dropped at the router,
            # so an IRQ storm on an unowned line never reaches any VM.
            self.metrics.counter("kernel.plirq_spurious").inc()
            self.tracer.mark("plirq_route_end", cat="vgic", seq=seq, vm=0)

    def _note_dead_epoch_virq(self, pd: ProtectionDomain, irq: int) -> None:
        """A vIRQ was routed at a DEAD PD: count + drop (never deliver)."""
        self.metrics.counter("vm.lifecycle.virqs_dead_epoch").inc()
        self.tracer.mark("virq_dead_epoch", cat="lifecycle", vm=pd.vm_id,
                         irq=irq, epoch=pd.epoch)

    def _timer_fired(self) -> None:
        purpose = self._timer_purpose
        self._timer_purpose = None
        if purpose is None or self.current is None:
            return
        kind, pd = purpose
        if self.tracer.verbose:
            self.tracer.mark("timer_fire", cat="sched", kind=kind,
                             vm=pd.vm_id)
        if pd is not self.current:
            # Fired across a switch (e.g. during a manager preemption):
            # record the overdue tick; switch-in delivery handles it.
            if kind == "vtick":
                pd.vcpu.vtimer.remaining = 0
            return
        if kind == "vtick":
            vt = pd.vcpu.vtimer
            vt.remaining = vt.period
            if pd.vgic.owns(vt.irq_id):
                pd.vgic.pend(vt.irq_id)
            self._program_timer(pd)
        else:  # quantum expiry: rotation happens back in the run loop
            pd.quantum_remaining = 0
            self.sched.note_preemption()

    # ---------------------------------------------------------- vIRQ injection

    def _deliver_pending_virqs(self, pd: ProtectionDomain) -> None:
        if not pd.vgic.has_pending():
            return
        cpu = self.cpu
        mode, masked = cpu.mode, cpu.irq_masked
        cpu.set_mode(Mode.SVC)
        cpu.irq_masked = True
        while pd.vgic.has_pending():
            seq = pd.vcpu.vregs.pop("_pending_pl_seq", None)
            self._inject_virq(pd, measure_pl=seq is not None, seq=seq)
        cpu.set_mode(mode)
        cpu.irq_masked = masked

    def _inject_virq(self, pd: ProtectionDomain, *, measure_pl: bool,
                     seq: int | None = None) -> None:
        """vGIC injection: force the VM to its IRQ entry with the vIRQ id."""
        irq = pd.vgic.next_pending()
        if irq is None:
            return
        cpu = self.cpu
        ctx = self.acct.push("kernel", pd.vm_id)
        if measure_pl and seq is not None:
            self.tracer.mark("plirq_inject_start", cat="vgic", seq=seq,
                             vm=pd.vm_id)
        cpu.code(self.syms.vgic_inject, C.vgic_inject)
        # Scan the pending region of the vIRQ record list for the winner,
        # then mark it delivered and fetch the guest's IRQ entry address.
        kobj = L.kva(pd.kobj_addr)
        cpu.load_run(range(kobj + 0x100, kobj + 0x200, 32))
        cpu.store(kobj + 0x100 + 4 * irq)                    # mark delivered
        cpu.load(kobj + 0x08)                                # IRQ entry address
        pd.vgic.take(irq)
        # Guest runs its handler in guest-kernel mode: DACR flips (Table II).
        if not pd.vcpu.guest_kernel_mode:
            pd.vcpu.guest_kernel_mode = True
            cpu.sysregs.write("DACR", DACR_GUEST_KERNEL, privileged=True)
        if measure_pl and seq is not None:
            self.tracer.mark("plirq_inject_end", cat="vgic", seq=seq,
                             vm=pd.vm_id)
        self.metrics.counter("kernel.virq_injected", vm=pd.vm_id).inc()
        if self.tracer.verbose:
            self.tracer.mark("virq_inject", cat="vgic", vm=pd.vm_id, irq=irq)
        self.acct.pop(ctx)
        pd.runner.deliver_virq(irq)

    # ------------------------------------------------------------- guest exits

    def _handle_exit(self, pd: ProtectionDomain, exit_: GuestExit) -> None:
        if pd.state is PdState.DEAD:
            # The PD was killed mid-chunk (e.g. a seeded vm.kill event
            # fired during its step): the stale exit belongs to a dead
            # epoch and is discarded.
            return
        if isinstance(exit_, ExitHypercall):
            self._handle_hypercall(pd, exit_)
        elif isinstance(exit_, ExitIdle):
            # Services park themselves; the idle "exit" of a guest OS does
            # not exist (its idle task spins like on real hardware).
            self.sched.suspend(pd)
            if self.current is pd:
                self.current = None
                self.machine.private_timer.cancel()
        elif isinstance(exit_, ExitFault):
            self._handle_fault(pd, exit_)
        elif isinstance(exit_, ExitShutdown):
            self.sched.remove(pd)
            if self.current is pd:
                self.current = None
                self.machine.private_timer.cancel()

    def _handle_fault(self, pd: ProtectionDomain, exit_: ExitFault) -> None:
        cpu = self.cpu
        fault = exit_.fault
        pd.faults += 1
        if isinstance(fault, UndefinedInstruction) and "VFP" in fault.what:
            self._vfp_lazy_switch(pd)
            return
        # Forward to the guest's fault handler if it has one; kill otherwise.
        kind = "und" if isinstance(fault, UndefinedInstruction) else "dabt"
        cpu.take_exception(kind)
        cpu.code(self.syms.abt_entry, C.abt_entry_stub)
        cpu.return_from_exception()
        handler = getattr(pd.runner, "deliver_fault", None)
        if handler is None:
            # Containment: the misbehaving VM dies; the host and every
            # other VM keep running (never a host traceback).
            self.kill_vm(pd, reason="unhandled_fault")
            return
        try:
            handler(fault)
        except SimulationError:
            raise                     # engine corruption: not a guest bug
        except ReproError:
            # Double fault: the guest faulted again while absorbing the
            # first one (e.g. a rogue GUEST_MODE_SET desynced its own
            # DACR view, so its fault handler's code is unreachable).
            # Beyond saving — same containment rule as above.
            self.metrics.counter("kernel.vm_double_faults").inc()
            self.kill_vm(pd, reason="double_fault")

    def kill_vm(self, pd: ProtectionDomain, *, reason: str) -> None:
        """Terminate a misbehaving VM (state -> DEAD) and reclaim every
        resource the dead incarnation held; the lifecycle policy then
        decides whether this epoch was the VM's last
        (docs/RECOVERY.md §9).

        Reclamation charges timed kernel paths, and a kill can arrive
        from any context (an exception handler, or an externally-driven
        fault event interrupting guest user code), so it runs under the
        supervisor's saved/restored privileged-context protocol."""
        cpu = self.cpu
        mode, masked = cpu.mode, cpu.irq_masked
        cpu.set_mode(Mode.SVC)
        cpu.irq_masked = True
        try:
            self.sched.remove(pd)
            if self.current is pd:
                self.current = None
                self.machine.private_timer.cancel()
            self._reclaim_vm_resources(pd)
            self.metrics.counter("kernel.vm_kills").inc()
            self.tracer.mark("vm_killed", cat="fault", vm=pd.vm_id,
                             reason=reason)
            self.lifecycle.note_kill(pd, reason)
        finally:
            cpu.set_mode(mode)
            cpu.irq_masked = masked

    def _reclaim_vm_resources(self, pd: ProtectionDomain) -> None:
        """Tear down everything a dead PD owns.

        Pending vIRQs are dropped (and the vGIC marked dead so nothing
        new pends into the old epoch), register-group pages are demapped
        with their TLB shoot-downs, the dead VM's queued manager requests
        are purged, PRRs it still owns get a ``client_died`` reclaim
        queued through the consistency protocol, and its IVC mailbox is
        emptied.  Leaving any of these behind is a lifecycle-invariant
        violation (``check_lifecycle_invariants``)."""
        cpu = self.cpu
        dropped = pd.vgic.drop_all_pending()
        pd.vgic.dead = True
        if dropped:
            self.metrics.counter("vm.lifecycle.virqs_dropped").inc(dropped)
        pd.vcpu.vregs.pop("_pending_pl_seq", None)
        pd.vcpu.vregs.pop("_hwreq_wait", None)
        pd.vcpu.vregs.pop("_deferred_req", None)
        # Register-group mappings: demap + shoot down, like a release.
        for prr_id in list(pd.prr_iface):
            cpu.code(self.syms.mem_map, C.pt_update_per_page)
            self.kmem.unmap_prr_iface(pd, prr_id)
            cpu.instr(C.tlb_flush_va)
            self.metrics.counter("vm.lifecycle.iface_unmaps").inc()
        # Queued (not yet picked up) requests from this PD will never be
        # answered: purge them so the manager does not work for a ghost.
        # The in-flight one, if any, is handled by manager_post_result.
        kept = [r for r in self.manager_queue
                if not (r.pd is pd and r.exit_ is not None)]
        purged = len(self.manager_queue) - len(kept)
        if purged:
            self.manager_queue = kept
            self.metrics.counter("vm.lifecycle.requests_purged").inc(purged)
            self.supervisor.note_progress()
        # PRRs the dead client still owns: drive the hwmgr consistency
        # protocol (force-reclaim via a kernel-originated request, like
        # the watchdog path — nobody is parked on the result).
        if self.manager_pd is not None and pd is not self.manager_pd:
            queued_reclaim = False
            for prr in self.machine.prrs:
                if prr.client_vm == pd.vm_id:
                    self.manager_queue.append(_HwRequest(
                        "client_died", pd, None, task_id=prr.prr_id))
                    self.supervisor.note_enqueue()
                    queued_reclaim = True
            if queued_reclaim:
                self.sched.resume(self.manager_pd,
                                  front=self.config.service_resume_front)
        # IVC: drop undelivered messages addressed to the dead epoch.
        pending_msgs = self.ivc.pending(pd.vm_id)
        if pending_msgs:
            self.metrics.counter("vm.lifecycle.ivc_purged").inc(pending_msgs)
        self.ivc.register(pd.vm_id)      # fresh (empty) mailbox
        if self.pcap_client is pd:
            self.pcap_client = None
        self._console_bufs.pop(pd.vm_id, None)

    def _vfp_lazy_switch(self, pd: ProtectionDomain) -> None:
        """UND trap from a disabled VFP: move banks now (Table I, lazy)."""
        cpu = self.cpu
        ctx = self.acct.push("kernel", pd.vm_id)
        cpu.take_exception("und")
        cpu.code(self.syms.und_entry, C.und_entry_stub)
        cpu.code(self.syms.vfp_lazy, C.vfp_lazy_trap)
        old_owner = cpu.vfp.owner
        if old_owner is not None and old_owner != pd.vm_id:
            old = self.domains.get(old_owner)
            if old is not None:
                cpu.vfp.save_bank()
                bank = L.kva(old.vcpu.save_area + 0x100)
                cpu.store_run(range(bank, bank + 4 * VFP_CONTEXT_WORDS, 4))
        if cpu.vfp.owner != pd.vm_id:
            cpu.vfp.restore_bank(pd.vm_id)
            bank = L.kva(pd.vcpu.save_area + 0x100)
            cpu.load_run(range(bank, bank + 4 * VFP_CONTEXT_WORDS, 4))
        cpu.vfp.enable()
        pd.vcpu.used_vfp = True
        self.metrics.counter("kernel.vfp_lazy_switches").inc()
        self.tracer.mark("vfp_lazy_switch", cat="sched", vm=pd.vm_id)
        cpu.return_from_exception()
        self.acct.pop(ctx)

    # -------------------------------------------------------------- hypercalls

    def _resume_completed_hypercall(self, pd: ProtectionDomain) -> None:
        """Deliver the result of a deferred hypercall (manager round trip)."""
        req = pd.vcpu.vregs.pop("_deferred_req", None)
        if req is None:
            return
        cpu = self.cpu
        ctx = self.acct.push("kernel", pd.vm_id)
        cpu.set_mode(Mode.SVC)    # completing the still-open SVC frame
        cpu.irq_masked = True
        cpu.code(self.syms.exc_return, C.exc_return_path)
        cpu.return_from_exception()
        self.tracer.mark("hwreq_resumed", cat="hwmgr", vm=pd.vm_id,
                         rid=req.rid)
        self.acct.pop(ctx)
        pd.runner.complete_hypercall(req.exit_)

    def _handle_hypercall(self, pd: ProtectionDomain, exit_: ExitHypercall) -> None:
        cpu, syms = self.cpu, self.syms
        ctx = self.acct.push("kernel", pd.vm_id)
        hc_start = self.sim.now
        try:
            num = Hc(exit_.num)
        except ValueError:
            self.metrics.counter("kernel.hypercalls", hc="INVALID",
                                 vm=pd.vm_id).inc()
            # An unassigned number is the same guest fault class as a
            # malformed argument: both land in the hypercall guard.
            self.metrics.counter("kernel.hypercall_faults").inc()
            self.tracer.mark("hypercall_rejected", cat="fault",
                             vm=pd.vm_id, hc=int(exit_.num))
            exit_.result = HcStatus.ERR_ARG
            pd.runner.complete_hypercall(exit_)
            self.acct.pop(ctx)
            return
        self.metrics.counter("kernel.hypercalls", hc=num.name,
                             vm=pd.vm_id).inc()
        if self.tracer.verbose:
            self.tracer.mark("hypercall", cat="hypercall", vm=pd.vm_id,
                             hc=int(num))
        rid = next(self._rids) if num is Hc.HWTASK_REQUEST else None
        if num in (Hc.HWTASK_REQUEST, Hc.HWTASK_RELEASE, Hc.HWTASK_IRQ_ATTACH):
            self.tracer.mark("hwreq_trap", cat="hwmgr", vm=pd.vm_id,
                             hc=int(num), rid=rid)
        cpu.take_exception("svc")
        cpu.code(syms.svc_entry, C.svc_entry_stub)
        # Spill r0-r3 into the PD frame.
        frame = L.kva(pd.kobj_addr + 0x20)
        cpu.store_run(range(frame, frame + 16, 4))
        cpu.code(syms.hypercall_dispatch, C.hypercall_dispatch)
        cpu.load(L.kva(pd.kobj_addr))    # PD capability/portal lookup
        cpu.code(syms.handler(int(num)), 8)    # handler prologue fetch

        try:
            deferred = self._dispatch_hypercall(pd, num, exit_, rid)
        except SimulationError:
            raise                         # engine corruption: not a guest bug
        except ReproError:
            # Safety net: a malformed argument that slipped past explicit
            # validation becomes an error status in r0 — a guest can never
            # surface a host traceback through the hypercall interface.
            self.metrics.counter("kernel.hypercall_faults").inc()
            self.tracer.mark("hypercall_rejected", cat="fault",
                             vm=pd.vm_id, hc=int(num))
            exit_.result = HcStatus.ERR_ARG
            deferred = False

        if not deferred:
            cpu.code(syms.exc_return, C.exc_return_path)
            cpu.return_from_exception()
            # Deferred requests park the vCPU until the manager posts the
            # result; only the synchronous round-trip is a "hypercall
            # latency" (the deferred path is measured by the hwreq spans).
            self._m_hypercall_cycles.observe(self.sim.now - hc_start)
            pd.runner.complete_hypercall(exit_)
        self.acct.pop(ctx)

    def _dispatch_hypercall(self, pd: ProtectionDomain, num: Hc,
                            exit_: ExitHypercall, rid: int | None) -> bool:
        """Execute one hypercall.  Returns True when the result is deferred
        (manager round-trip): the SVC frame then stays live until the
        requester is resumed."""
        cpu = self.cpu
        a = exit_.args

        def arg(i: int, default: int = 0) -> int:
            return a[i] if i < len(a) else default

        if num is Hc.CACHE_FLUSH_ALL:
            cpu.instr(C.cache_flush_call)
            self.metrics.counter("kernel.cache_flush", kind="all").inc()
            self.sim.clock.advance(self.mem.caches.flush_all())
            exit_.result = HcStatus.SUCCESS
        elif num is Hc.CACHE_INV_LINE:
            cpu.instr(C.cache_flush_call)
            self.metrics.counter("kernel.cache_flush", kind="line").inc()
            pa = pd.va_to_pa(arg(0))
            if pa is not None:
                self.sim.clock.advance(self.mem.caches.invalidate_line(pa))
            exit_.result = HcStatus.SUCCESS
        elif num is Hc.TLB_FLUSH_ASID:
            cpu.instr(C.tlb_flush_asid)
            self.metrics.counter("kernel.tlb_flush", kind="asid").inc()
            self.mem.mmu.tlb.flush_asid(pd.asid)
            exit_.result = HcStatus.SUCCESS
        elif num is Hc.TLB_FLUSH_VA:
            cpu.instr(C.tlb_flush_va)
            self.metrics.counter("kernel.tlb_flush", kind="va").inc()
            self.mem.mmu.tlb.flush_va(arg(0) >> 12, pd.asid)
            exit_.result = HcStatus.SUCCESS
        elif num in (Hc.IRQ_ENABLE, Hc.IRQ_DISABLE):
            irq = arg(0)
            cpu.instr(C.small_hypercall)
            if not pd.vgic.owns(irq):
                exit_.result = HcStatus.ERR_PERM
            else:
                on = num is Hc.IRQ_ENABLE
                pd.vgic.set_enabled(irq, on)
                if pd is self.current:       # reflect into the physical GIC
                    base = _ICDISER if on else _ICDICER
                    cpu.write32(base + 4 * (irq // 32), 1 << (irq % 32))
                exit_.result = HcStatus.SUCCESS
        elif num is Hc.IRQ_EOI:
            cpu.instr(C.vgic_eoi)
            irq = arg(0)
            if not 0 <= irq < self.machine.gic.n_irqs:
                exit_.result = HcStatus.ERR_ARG
            else:
                cpu.store(L.kva(pd.kobj_addr + 0x100 + 4 * irq))
                exit_.result = HcStatus.SUCCESS
        elif num is Hc.VIRQ_REGISTER:
            cpu.instr(C.small_hypercall)
            if len(a) > 1 and not 0 <= arg(1) < self.machine.gic.n_irqs:
                exit_.result = HcStatus.ERR_ARG
            else:
                pd.vgic.irq_entry_va = arg(0)
                if len(a) > 1:
                    pd.vgic.register(arg(1))
                cpu.store(L.kva(pd.kobj_addr + 0x08))
                exit_.result = HcStatus.SUCCESS
        elif num is Hc.MAP_INSERT:
            exit_.result = self._hc_map_insert(pd, arg(0), arg(1), arg(2, 1))
        elif num is Hc.MAP_REMOVE:
            cpu.instr(C.pt_update_per_page)
            if pd.page_table.unmap_page(arg(0)):
                addr = pd.page_table.l2_entry_addr(arg(0))
                if addr is not None:
                    cpu.store(L.kva(addr))
                cpu.instr(C.tlb_flush_va)
                self.mem.mmu.tlb.flush_va(arg(0) >> 12, pd.asid)
                exit_.result = HcStatus.SUCCESS
            else:
                exit_.result = HcStatus.ERR_ARG
        elif num is Hc.PT_CREATE:
            cpu.instr(C.pt_update_per_page)
            exit_.result = HcStatus.SUCCESS
        elif num is Hc.HWDATA_DEFINE:
            exit_.result = self._hc_hwdata_define(pd, arg(0), arg(1))
        elif num is Hc.REG_READ:
            cpu.instr(C.small_hypercall)
            exit_.result = pd.vcpu.vregs.get(str(arg(0)), 0)
        elif num is Hc.REG_WRITE:
            cpu.instr(C.small_hypercall)
            pd.vcpu.vregs[str(arg(0))] = arg(1)
            exit_.result = HcStatus.SUCCESS
        elif num is Hc.GUEST_MODE_SET:
            cpu.instr(C.small_hypercall)
            to_kernel = bool(arg(0))
            pd.vcpu.guest_kernel_mode = to_kernel
            cpu.sysregs.write(
                "DACR", DACR_GUEST_KERNEL if to_kernel else DACR_GUEST_USER,
                privileged=True)
            exit_.result = HcStatus.SUCCESS
        elif num is Hc.VFP_ENABLE:
            self._vfp_lazy_switch(pd)
            exit_.result = HcStatus.SUCCESS
        elif num is Hc.TIMER_SET:
            cpu.instr(C.timer_reprogram)
            if arg(0) < 0:
                exit_.result = HcStatus.ERR_ARG
            else:
                vt = pd.vcpu.vtimer
                vt.period = arg(0)
                vt.remaining = arg(0)
                if pd is self.current:
                    self._program_timer(pd)
                exit_.result = HcStatus.SUCCESS
        elif num is Hc.TIMER_READ:
            cpu.instr(C.small_hypercall)
            exit_.result = pd.vcpu.vtimer.remaining
        elif num is Hc.VM_YIELD:
            cpu.instr(C.small_hypercall)
            self.sched.quantum_expired(pd)
            exit_.result = HcStatus.SUCCESS
        elif num is Hc.VM_SUSPEND:
            cpu.instr(C.small_hypercall)
            self.sched.suspend(pd)
            if self.current is pd:
                self.current = None
            exit_.result = HcStatus.SUCCESS
        elif num in (Hc.HWTASK_REQUEST, Hc.HWTASK_RELEASE, Hc.HWTASK_IRQ_ATTACH):
            return self._hc_hwtask(pd, num, exit_, rid)
        elif num is Hc.DEV_ACCESS:
            exit_.result = self._hc_dev_access(pd, a)
        elif num is Hc.IVC_SEND:
            cpu.instr(C.ivc_send)
            dst = arg(0)
            target = self.domains.get(dst)
            if target is None or target.state is PdState.DEAD:
                # A dead peer is indistinguishable from a missing one,
                # but the attempted notification is epoch-accounted.
                if target is not None:
                    self._note_dead_epoch_virq(target, IVC_IRQ)
                exit_.result = HcStatus.ERR_ARG
            elif self.ivc.send(pd.vm_id, dst, tuple(a[1:5])):
                target.vgic.register(IVC_IRQ)
                target.vgic.pend(IVC_IRQ)
                exit_.result = HcStatus.SUCCESS
            else:
                # The addressee's mailbox is full until it receives.
                exit_.result = HcStatus.BUSY
        elif num is Hc.IVC_RECV:
            cpu.instr(C.ivc_recv)
            msg = self.ivc.recv(pd.vm_id)
            exit_.result = (msg.src_vm, *msg.payload) if msg else None
        elif num is Hc.VM_CHECKPOINT:
            # Synchronous snapshot of the calling VM (never parks, never
            # kills; arguments are ignored so no malformed call can fault).
            cpu.instr(C.small_hypercall)
            if self.lifecycle.checkpoint_in_progress:
                exit_.result = HcStatus.BUSY
            elif (pd.state is PdState.DEAD
                  or self.lifecycle.marked_for_restart(pd.vm_id)):
                exit_.result = HcStatus.ERR_STATE
            else:
                exit_.result = self.lifecycle.checkpoint(
                    pd, reason="hypercall").seq
        elif num is Hc.VM_CHECKPOINT_QUERY:
            cpu.instr(C.small_hypercall)
            exit_.result = self.lifecycle.latest_seq(pd.vm_id)
        else:  # pragma: no cover - exhaustive above
            raise HypercallError(f"unhandled hypercall {num}")
        return False

    def _hc_map_insert(self, pd: ProtectionDomain, va: int, pa_off: int,
                       n_pages: int) -> HcStatus:
        """Guest maps extra 4K pages of *its own* chunk at a chosen VA."""
        cpu = self.cpu
        if va & 0xFFF or pa_off & 0xFFF or va < 0 or pa_off < 0:
            return HcStatus.ERR_ARG
        if not 0 < n_pages <= pd.phys_size // 4096:
            return HcStatus.ERR_ARG
        pa = pd.phys_base + pa_off
        if not pd.owns_phys(pa, pa + n_pages * 4096):
            return HcStatus.ERR_PERM
        from ..mem.descriptors import AP
        for i in range(n_pages):
            cpu.code(self.syms.mem_map, C.pt_update_per_page)
            pd.page_table.map_page(va + i * 4096, pa + i * 4096,
                                   ap=AP.FULL, domain=L.DOMAIN_GU)
            addr = pd.page_table.l2_entry_addr(va + i * 4096)
            if addr is not None:
                cpu.store(L.kva(addr))
        return HcStatus.SUCCESS

    def _hc_dev_access(self, pd: ProtectionDomain, a: tuple) -> HcStatus:
        """Supervised shared-I/O access (Section V-A): the guest never maps
        the UART; the kernel serializes its bytes into the physical port
        and keeps a per-VM console transcript."""
        from ..machine import UART_BASE
        from ..io.uart import UART_FIFO
        cpu = self.cpu
        cpu.instr(C.small_hypercall)
        dev = a[0] if a else 0
        op = a[1] if len(a) > 1 else 0
        if dev != 0 or op != 0:          # only UART putc/puts for now
            return HcStatus.ERR_ARG
        buf = self._console_bufs.setdefault(pd.vm_id, bytearray())
        for word in a[2:4]:
            for shift in (0, 8, 16, 24):
                ch = (word >> shift) & 0xFF
                if ch == 0:
                    continue
                cpu.write32(UART_BASE + UART_FIFO, ch)
                if ch == 0x0A:           # newline: close the VM's line
                    self.console_log.append(
                        (pd.vm_id, buf.decode("latin-1")))
                    buf.clear()
                else:
                    buf.append(ch)
        return HcStatus.SUCCESS

    def _hc_hwdata_define(self, pd: ProtectionDomain, va: int,
                          size: int) -> "HcStatus | int":
        cpu = self.cpu
        cpu.instr(C.small_hypercall)
        if size <= 0:
            return HcStatus.ERR_ARG
        if not (L.GUEST_HWDATA_VA <= va
                and va + size <= L.GUEST_HWDATA_VA + L.GUEST_HWDATA_SIZE):
            return HcStatus.ERR_ARG
        pd.hw_data.va = va
        pd.hw_data.pa = pd.phys_base + va
        pd.hw_data.size = size
        cpu.store(L.kva(pd.kobj_addr + 0x10))
        cpu.store(L.kva(pd.kobj_addr + 0x14))
        # Success returns the section's *physical* base: the guest needs it
        # to program hardware-task DMA addresses (the hwMMU checks physical
        # ranges, Section IV-C).
        return pd.hw_data.pa

    def _hc_hwtask(self, pd: ProtectionDomain, num: Hc,
                   exit_: ExitHypercall, rid: int | None) -> bool:
        """Queue a request for the Hardware Task Manager and wake it.

        Deferred: the caller resumes (with the status in r0) only after the
        manager ran — measured as 'HW Manager entry/exit' in Table III.
        """
        cpu = self.cpu
        if self.manager_pd is None:
            exit_.result = HcStatus.ERR_STATE
            return False
        a = exit_.args
        cpu.code(self.syms.hwreq_glue, C.hwreq_validate)
        if num is Hc.HWTASK_REQUEST:
            if (len(a) < 3 or not pd.hw_data.configured or a[1] & 0xFFF
                    or a[1] < 0 or a[2] < 0):
                exit_.result = HcStatus.ERR_ARG
                return False
            req = _HwRequest("request", pd, exit_, task_id=a[0],
                             iface_va=a[1], data_va=a[2],
                             want_irq=bool(a[3]) if len(a) > 3 else False,
                             rid=rid)
        elif num is Hc.HWTASK_RELEASE:
            req = _HwRequest("release", pd, exit_, task_id=a[0] if a else 0)
        else:
            req = _HwRequest("irq_attach", pd, exit_,
                             task_id=a[0] if a else 0)
        # Copy the request into the manager's mailbox (its data area).
        mbox = L.kva(self.manager_pd.phys_base + L.MANAGER_DATA_VA)
        cpu.store_run(range(mbox, mbox + 4 * 6, 4))
        self.manager_queue.append(req)
        cpu.code(self.syms.hwreq_glue + 0x100, C.hwreq_wakeup_manager)
        self.sched.resume(self.manager_pd,
                          front=self.config.service_resume_front)
        # The requester's vCPU is parked inside the hypercall until the
        # manager posts the result — it must not be scheduled meanwhile.
        # The marker lets the invariant checker prove no request is lost
        # across a manager restart (docs/RECOVERY.md).
        self.sched.suspend(pd)
        pd.vcpu.vregs["_hwreq_wait"] = True
        self.supervisor.note_enqueue()
        self.tracer.mark("hwreq_queued", cat="hwmgr", vm=pd.vm_id,
                         rid=req.rid)
        return True

    # ---------------------------------------------- manager kernel crossings
    #
    # The Hardware Task Manager is a user-level service: touching another
    # VM's page table or vGIC means a hypercall into the kernel ("extra
    # hypercalls", Section V-B).  Each helper below charges the full SVC
    # entry/exit plumbing around the actual work.

    def _service_crossing_enter(self) -> None:
        cpu = self.cpu
        cpu.take_exception("svc")
        cpu.code(self.syms.svc_entry, C.svc_entry_stub)
        cpu.code(self.syms.hypercall_dispatch, C.hypercall_dispatch)

    def _service_crossing_exit(self) -> None:
        cpu = self.cpu
        cpu.code(self.syms.exc_return, C.exc_return_path)
        cpu.return_from_exception()

    def service_map_iface(self, client: ProtectionDomain, prr_id: int,
                          va: int) -> None:
        """Map a PRR register group into ``client`` (Section IV-E stage 3)."""
        cpu = self.cpu
        self._service_crossing_enter()
        cpu.code(self.syms.mem_map, C.pt_update_per_page)
        self.kmem.map_prr_iface(client, prr_id, va)
        addr = client.page_table.l2_entry_addr(va)
        if addr is not None:
            cpu.store(L.kva(addr))
        self._service_crossing_exit()

    def service_unmap_iface(self, client: ProtectionDomain, prr_id: int) -> int:
        """Demap a PRR register group from its previous client; returns the
        VA it occupied.  Includes the TLB shoot-down for that page."""
        cpu = self.cpu
        self._service_crossing_enter()
        cpu.code(self.syms.mem_map, C.pt_update_per_page)
        va = self.kmem.unmap_prr_iface(client, prr_id)
        addr = client.page_table.l2_entry_addr(va)
        if addr is not None:
            cpu.store(L.kva(addr))
        cpu.instr(C.tlb_flush_va)
        self._service_crossing_exit()
        return va

    def service_save_reggroup(self, old_client: ProtectionDomain, prr_id: int,
                              regs: dict[str, int]) -> None:
        """Consistency protocol (Section IV-C): save the register-group
        content + an 'inconsistent' state flag into the old client's
        hardware-task data section."""
        cpu = self.cpu
        self._service_crossing_enter()
        sect = old_client.hw_data
        record = sect.pa
        bus = self.mem.bus
        bus.write32(record, 1)                    # state flag: inconsistent
        cpu.store(L.kva(record))
        for i, value in enumerate(regs.values()):
            bus.write32(record + 4 + 4 * i, value)
            cpu.store(L.kva(record + 4 + 4 * i))
        self._service_crossing_exit()

    def service_mark_consistent(self, client: ProtectionDomain) -> None:
        """Clear the state flag when a task is (re)dispatched to a client."""
        cpu = self.cpu
        self._service_crossing_enter()
        self.mem.bus.write32(client.hw_data.pa, 0)
        cpu.store(L.kva(client.hw_data.pa))
        self._service_crossing_exit()

    def service_register_plirq(self, client: ProtectionDomain,
                               irq_id: int) -> None:
        """Register a PL IRQ in the client's vGIC table (Fig. 6) and enable
        it physically if the client is running."""
        cpu = self.cpu
        self._service_crossing_enter()
        cpu.instr(C.small_hypercall)
        client.vgic.register(irq_id)
        cpu.store(L.kva(client.kobj_addr + 0x100 + 4 * irq_id))
        if client is self.current:
            cpu.write32(_ICDISER + 4 * (irq_id // 32), 1 << (irq_id % 32))
        self._service_crossing_exit()

    def service_unregister_plirq(self, client: ProtectionDomain,
                                 irq_id: int) -> None:
        cpu = self.cpu
        self._service_crossing_enter()
        cpu.instr(C.small_hypercall)
        client.vgic.unregister(irq_id)
        if client is self.current:
            cpu.write32(_ICDICER + 4 * (irq_id // 32), 1 << (irq_id % 32))
        self._service_crossing_exit()

    def service_set_pcap_client(self, client: ProtectionDomain) -> None:
        """Route the next PCAP-done IRQ to ``client`` (Section IV-D)."""
        self.pcap_client = client
        client.vgic.register(IRQ_PCAP_DONE)

    # ------------------------------------------------- manager service glue

    def _on_prr_hang(self, prr_id: int) -> None:
        """Controller watchdog expired: queue a reclaim for the manager.

        Kernel-originated request (``exit_`` is None — nobody is parked
        waiting for the result); the manager preempts guests, runs the
        consistency protocol, and returns the region to the free pool.
        """
        self.tracer.mark("watchdog_expire", cat="fault", prr=prr_id)
        if self.manager_pd is None:
            return
        client_vm = self.machine.prrs[prr_id].client_vm
        pd = self.domains.get(client_vm) if client_vm is not None else None
        self.manager_queue.append(_HwRequest(
            "watchdog", pd if pd is not None else self.manager_pd, None,
            task_id=prr_id))
        self.supervisor.note_enqueue()
        self.sched.resume(self.manager_pd,
                          front=self.config.service_resume_front)

    def _manager_pcap_done(self, prr_id: int, task: str) -> None:
        """PCAP completion: commit the open reconfiguring-allocate entry."""
        j = self.manager_journal
        if j is None:
            return
        e = j.entry_for_prr(prr_id)
        if e is not None and e.op == OP_ALLOCATE and e.reconfig:
            j.commit(e)

    def _manager_pcap_abort(self, prr_id: int) -> None:
        """PCAP gave up / was cancelled: abort the entry, clear the row.

        The region lands in ERR_RECONFIG hosting nothing; the manager's
        table must say so too or the next invariant check flags it.
        """
        j = self.manager_journal
        if j is not None:
            e = j.entry_for_prr(prr_id)
            if e is not None and e.op == OP_ALLOCATE:
                j.abort(e)
        mgr = self.manager_pd
        alloc = getattr(mgr.runner, "allocator", None) if mgr else None
        if alloc is not None:
            row = alloc.prr_table.row(prr_id)
            row.task_name = None
            row.busy = False

    def restart_manager(self, *, reason: str):
        """Tear down the (crashed or hung) manager PD and respawn it.

        The new instance reuses the dead one's address space, data area
        and vm_id — that is what makes the intent journal a write-ahead
        log: its backing frames survive.  In-flight and queued *guest*
        requests are bounced with MANAGER_RESTARTING (the guest API
        retries transparently); kernel-originated watchdog requests are
        re-queued, since nobody is parked on them and the hung region
        still needs reclaiming.  Returns the fresh service runner —
        the caller (the supervisor) drives journal recovery next.
        """
        old_pd = self.manager_pd
        if old_pd is None:
            raise DeviceError("no manager to restart")
        old_runner = old_pd.runner
        self.sched.remove(old_pd)              # state -> DEAD
        if self.current is old_pd:
            self.current = None
            self.machine.private_timer.cancel()
        # Sort the mailbox: bounce guest requests, keep kernel ones.  The
        # request the dead instance was executing is bounced too — its
        # effects are rolled back or replayed from the journal, so letting
        # the guest retry can never double-apply it.
        bounced: list[_HwRequest] = []
        inflight = getattr(old_runner, "current_request", None)
        if inflight is not None and inflight.exit_ is not None:
            bounced.append(inflight)
        requeue: list[_HwRequest] = []
        for req in self.manager_queue:
            (requeue if req.exit_ is None else bounced).append(req)
        self.manager_queue = []
        # Respawn: same address space, fresh vCPU/vGIC/runner state.
        new_runner = type(old_runner)(
            block_on_pcap=getattr(old_runner, "block_on_pcap", False))
        pd = old_pd.successor(new_runner, self.acct, epoch=0)
        self.domains[old_pd.vm_id] = pd
        self.manager_pd = pd
        new_runner.bind(self, pd)
        self.sched.add(pd, runnable=False)
        # Modelled restart cost: PD teardown + respawn through the same
        # kernel paths a create would take (restarts only ever happen in
        # fault runs, so this cannot perturb the benchmarks).
        self.cpu.code(self.syms.scheduler, C.scheduler_pick)
        self.cpu.code(self.syms.vm_switch, C.vm_switch_fixed)
        for req in bounced:
            self.metrics.counter("recovery.bounced_requests").inc()
            self.manager_post_result(
                req, (HcStatus.MANAGER_RESTARTING, None, None))
        self.manager_queue.extend(requeue)
        if self.manager_queue:
            self.sched.resume(pd, front=self.config.service_resume_front)
        return new_runner

    def manager_take_request(self) -> _HwRequest | None:
        """Called by the manager runner to pop its mailbox."""
        return self.manager_queue.pop(0) if self.manager_queue else None

    def manager_post_result(self, req: _HwRequest, result) -> None:
        """Manager finished a request: arrange the requester's resume.

        ``result`` is the (status, prr_id, irq_id) triple the guest API
        expects in r0-r2.
        """
        self.supervisor.note_progress()
        if req.exit_ is None:
            return        # kernel-originated (watchdog): nobody to resume
        req.pd.vcpu.vregs.pop("_hwreq_wait", None)
        # A requester killed while parked must not be resurrected by its
        # own result (or by a restart bounce): drop the reply.  If the
        # request was in flight when the client died and the manager
        # still *granted* a region, that region now names a dead client —
        # immediately queue the consistency-protocol reclaim.
        if req.pd.state is PdState.DEAD:
            status = result[0] if isinstance(result, tuple) else result
            if (req.kind == "request" and isinstance(result, tuple)
                    and len(result) > 1 and result[1] is not None
                    and status in (HcStatus.SUCCESS, HcStatus.RECONFIG)):
                self.manager_queue.append(_HwRequest(
                    "client_died", req.pd, None, task_id=result[1]))
                self.supervisor.note_enqueue()
                if self.manager_pd is not None:
                    self.sched.resume(self.manager_pd,
                                      front=self.config.service_resume_front)
            return
        req.exit_.result = result
        req.pd.vcpu.vregs["_deferred_req"] = req
        self.sched.resume(req.pd, front=True)   # unpark the requester
        status = result[0] if isinstance(result, tuple) else result
        self.tracer.mark("hwreq_done", cat="hwmgr", vm=req.pd.vm_id,
                         status=int(status), rid=req.rid)

    # ------------------------------------------------------------- utilities

    def pd_of(self, vm_id: int) -> ProtectionDomain:
        return self.domains[vm_id]

    @property
    def now(self) -> int:
        return self.sim.now
