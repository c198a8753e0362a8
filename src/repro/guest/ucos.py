"""uC/OS-II-style real-time kernel core (the guest OS of Section V-A).

Faithful to the uC/OS-II programming model where the paper depends on it:
64 strict priority levels with one task per level, a ready-list scheduler,
semaphores that tasks pend on and ISRs post (``BindIrqSem``) with
priority-ordered wakeup, OSTimeDly tick-based delays, and ISR enter/exit
paths.  Application tasks are Python generators yielding
:mod:`repro.guest.actions` records.

The same core runs under two *ports* (as the paper's uCOS runs natively
and paravirtualized): the port supplies execution primitives — how a
hypercall/sensitive op is performed, where code lives, how devices are
reached — while all OS semantics stay here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Generator

from ..common.errors import ArchFault, GuestPanic
from . import layout_guest as GL
from .actions import (
    BindIrqSem,
    Compute,
    Delay,
    FAULTED,
    Finish,
    HwRelease,
    HwRequest,
    Hypercall,
    MmioRead,
    MmioWrite,
    SectionRead,
    SectionWrite,
    SemPend,
    VfpCompute,
)
from .costs import (
    CODE_API,
    CODE_CTXSW,
    CODE_FAULT,
    CODE_ISR,
    CODE_SCHED,
    CODE_SEM,
    CODE_TICK,
    UCOS_COSTS as UC,
)

#: uC/OS-II convention: lower number = higher priority; 63 = idle.
N_PRIOS = 64
IDLE_PRIO = N_PRIOS - 1
#: One pass of ``OS_TaskIdle``'s loop: its body and ``OSIdleCtr++``, one
#: read-modify-write of one word (``GuestExecutor.word``, no draws).
IDLE_CHUNK = Compute(UC.idle_loop, 4, ((GL.OS_IDLE_CTR, 4),), 1.0)


class TaskState(Enum):
    READY = "ready"
    DELAYED = "delayed"
    PENDING = "pending"       # blocked on a semaphore
    DONE = "done"


@dataclass(eq=False)
class Semaphore:
    name: str
    count: int = 0
    waiters: list["Tcb"] = field(default_factory=list)


@dataclass(eq=False)
class Tcb:
    prio: int
    name: str
    fn: Callable[["Ucos"], Generator]
    gen: Generator | None = None
    state: TaskState = TaskState.READY
    delay: int = 0
    #: Value to send into the generator at next resume (None = plain next).
    inbox: Any = None
    has_inbox: bool = False
    #: Action to re-execute after a transparent trap (VFP lazy switch).
    retry_action: Any = None
    pending_sem: Semaphore | None = None


@dataclass
class OsStats:
    ticks: int = 0
    ctx_switches: int = 0
    isr_count: int = 0
    faults_handled: int = 0


class Ucos:
    """One guest OS instance."""

    def __init__(self, name: str, *, tick_hz: int = 1000) -> None:
        self.name = name
        self.tick_hz = tick_hz
        self.tasks: dict[int, Tcb] = {}
        self.sems: list[Semaphore] = []
        self.stats = OsStats()
        self.current: Tcb | None = None
        #: vIRQ id -> semaphore posted from the ISR (BindIrqSem).
        self.irq_bindings: dict[int, Semaphore] = {}
        #: IRQs delivered by the hypervisor/hardware, pending OS handling.
        self.pending_irqs: list[int] = []
        #: Filled by the port at boot: physical base of the hw data section.
        self.hwdata_pa: int = 0
        #: Application-visible scratchpad a restartable task keeps its
        #: progress markers in; captured into VM checkpoints as runner
        #: state and reinstated on restore (docs/RECOVERY.md §9).  A
        #: *fresh* restart gets an empty one — progress only survives
        #: through a checkpoint.
        self.persist: dict = {}
        self.port = None   # bound by the port/runner
        self._create_idle()

    # -- configuration ------------------------------------------------------

    def create_task(self, name: str, prio: int,
                    fn: Callable[["Ucos"], Generator]) -> Tcb:
        if not 0 <= prio < N_PRIOS:
            raise GuestPanic(f"priority {prio} out of range")
        if prio in self.tasks:
            raise GuestPanic(f"priority {prio} already taken (uC/OS-II rule)")
        tcb = Tcb(prio=prio, name=name, fn=fn)
        self.tasks[prio] = tcb
        return tcb

    def create_semaphore(self, name: str) -> Semaphore:
        sem = Semaphore(name=name)
        self.sems.append(sem)
        return sem

    def lifecycle_fresh(self) -> "Ucos":
        """A factory-fresh copy of this OS image for VM resurrection:
        same task set (re-created from their generator factories, so no
        execution state carries over), empty ``persist``.  Semaphores and
        IRQ bindings are re-created by the tasks themselves as they boot."""
        fresh = Ucos(self.name, tick_hz=self.tick_hz)
        for prio in sorted(self.tasks):
            tcb = self.tasks[prio]
            if prio != IDLE_PRIO:
                fresh.create_task(tcb.name, prio, tcb.fn)
        return fresh

    def _create_idle(self) -> None:
        def idle_fn(os: "Ucos") -> Generator:
            while True:
                yield IDLE_CHUNK
        self.create_task("idle", IDLE_PRIO, idle_fn)

    # -- scheduling core ----------------------------------------------------------

    def highest_ready(self) -> Tcb | None:
        for prio in sorted(self.tasks):
            if self.tasks[prio].state is TaskState.READY:
                return self.tasks[prio]
        return None

    def live_task_count(self) -> int:
        return sum(1 for t in self.tasks.values()
                   if t.state is not TaskState.DONE and t.prio != IDLE_PRIO)

    # -- tick & ISR paths (timed via the port's executor) ------------------------

    def handle_pending_irqs(self) -> None:
        """Run the OS-side ISR for every queued vIRQ."""
        ex = self.port.exec
        while self.pending_irqs:
            irq = self.pending_irqs.pop(0)
            self.stats.isr_count += 1
            ex.code(GL.KERNEL_CODE + CODE_ISR, UC.isr_entry)
            if irq == GL.TICK_IRQ:
                self._on_tick()
            else:
                sem = self.irq_bindings.get(irq)
                if sem is not None:
                    self._sem_post_isr(sem)
            ex.code(GL.KERNEL_CODE + CODE_ISR + 0x100, UC.isr_exit)

    def _on_tick(self) -> None:
        ex = self.port.exec
        self.stats.ticks += 1
        ex.code(GL.KERNEL_CODE + CODE_TICK, UC.tick_handler)
        for tcb in self.tasks.values():
            # OSTimeTick walks every TCB (timed via the data touch below).
            ex.cpu.load(ex.addr_base + GL.KERNEL_DATA + 0x100 + tcb.prio * 16)
            if tcb.state is TaskState.DELAYED:
                tcb.delay -= 1
                if tcb.delay <= 0:
                    tcb.state = TaskState.READY
            elif tcb.state is TaskState.PENDING and tcb.delay > 0:
                tcb.delay -= 1
                if tcb.delay <= 0:
                    self._sem_timeout(tcb)

    # -- semaphore internals ------------------------------------------------------

    def _sem_post_isr(self, sem: Semaphore) -> None:
        self.port.exec.code(GL.KERNEL_CODE + CODE_SEM, UC.sem_post)
        if sem.waiters:
            sem.waiters.sort(key=lambda t: t.prio)
            tcb = sem.waiters.pop(0)
            tcb.pending_sem = None
            tcb.state = TaskState.READY
            tcb.inbox = True
            tcb.has_inbox = True
        else:
            sem.count += 1

    def _sem_timeout(self, tcb: Tcb) -> None:
        """A pend's timeout ran out: the task leaves the semaphore's
        waiters and its pend returns False."""
        sem = tcb.pending_sem
        if sem is not None and tcb in sem.waiters:
            sem.waiters.remove(tcb)
        tcb.pending_sem = None
        tcb.state = TaskState.READY
        tcb.inbox = False
        tcb.has_inbox = True

    # -- the dispatcher ------------------------------------------------------------

    def run_one_action(self, spin_until: int | float | None = None
                       ) -> tuple[str, Any]:
        """Dispatch the highest-priority ready task for one action.

        With ``spin_until``, an idle-task dispatch that owes no scheduling
        work runs as a spin of idle chunks (:meth:`_spin_idle`) that may
        last until that cycle.

        Returns one of:
          ("ran", None)            — action fully executed in-guest
          ("ran", chunks)          — idle chunks spun (``spin_until``)
          ("hypercall", (tcb, num, args)) — port wants a VM exit
          ("fault", exc)           — architectural fault escaped to the host
          ("halt", None)           — every application task finished
        """
        ex = self.port.exec
        tcb = self.highest_ready()
        if tcb is None:            # cannot happen: idle is always ready
            return ("halt", None)
        if self.live_task_count() == 0:
            return ("halt", None)
        if (spin_until is not None and tcb is self.current
                and tcb.prio == IDLE_PRIO and tcb.retry_action is None
                and not tcb.has_inbox and not self.pending_irqs):
            return self._spin_idle(tcb, spin_until)

        if tcb is not self.current:
            ex.code(GL.KERNEL_CODE + CODE_SCHED, UC.sched_pick)
            ex.code(GL.KERNEL_CODE + CODE_CTXSW, UC.ctx_switch)
            self.stats.ctx_switches += 1
            self.current = tcb

        if tcb.gen is None:
            tcb.gen = tcb.fn(self)

        # Resume the task: retry a trapped action or advance the generator.
        action = tcb.retry_action
        tcb.retry_action = None
        if action is None:
            try:
                if tcb.has_inbox:
                    inbox, tcb.inbox, tcb.has_inbox = tcb.inbox, None, False
                    action = tcb.gen.send(inbox)
                else:
                    action = next(tcb.gen)
            except StopIteration:
                tcb.state = TaskState.DONE
                return ("ran", None)
        return self._execute(tcb, action)

    def _spin_idle(self, idle: Tcb, until: int | float) -> tuple[str, Any]:
        """Idle chunks back to back through ``GuestExecutor.spin``.

        Each chunk is what dispatching the idle task does today: the idle
        task is current (no pick or context switch is charged), its
        generator yields the same ``IDLE_CHUNK`` every time, and nothing
        the port checks between actions — pending vIRQs, task states —
        can change before the next event, where the spin stops.  A fault
        leaves the chunk to retry, as :meth:`_execute` does.
        """
        c = IDLE_CHUNK
        try:
            return ("ran", self.port.exec.spin(c.instrs, c.mem_accesses,
                                               GL.OS_IDLE_CTR, until))
        except ArchFault as fault:
            idle.retry_action = c
            return ("fault", fault)

    def _execute(self, tcb: Tcb, action: Any) -> tuple[str, Any]:
        try:
            return self._execute_inner(tcb, action)
        except ArchFault as fault:
            tcb.retry_action = action
            return ("fault", fault)

    def _execute_inner(self, tcb: Tcb, action: Any) -> tuple[str, Any]:
        ex = self.port.exec
        port = self.port

        if action is IDLE_CHUNK:
            ex.word(action.instrs, action.mem_accesses, GL.OS_IDLE_CTR)
        elif isinstance(action, Compute):
            ex.bulk(action.instrs, action.mem_accesses, action.regions,
                    action.write_frac)
        elif isinstance(action, VfpCompute):
            port.vfp(action.instrs)     # may raise -> lazy-switch trap
        elif isinstance(action, Delay):
            ex.code(GL.KERNEL_CODE + CODE_SCHED, UC.sched_pick)
            tcb.state = TaskState.DELAYED
            tcb.delay = max(1, action.ticks)
        elif isinstance(action, SemPend):
            ex.code(GL.KERNEL_CODE + CODE_SEM, UC.sem_pend)
            sem = action.sem
            if sem.count > 0:
                sem.count -= 1
                tcb.inbox, tcb.has_inbox = True, True
            else:
                tcb.state = TaskState.PENDING
                tcb.pending_sem = sem
                tcb.delay = action.timeout_ticks
                sem.waiters.append(tcb)
        elif isinstance(action, BindIrqSem):
            ex.code(GL.KERNEL_CODE + CODE_API, UC.api_glue)
            self.irq_bindings[action.irq_id] = action.sem
            tcb.inbox, tcb.has_inbox = True, True
        elif isinstance(action, Hypercall):
            return port.do_hypercall(tcb, action.num, action.args)
        elif isinstance(action, HwRequest):
            return port.do_hw_request(tcb, action)
        elif isinstance(action, HwRelease):
            return port.do_hw_release(tcb, action)
        elif isinstance(action, MmioRead):
            tcb.inbox, tcb.has_inbox = port.mmio_read(action.va), True
        elif isinstance(action, MmioWrite):
            port.mmio_write(action.va, action.value)
        elif isinstance(action, SectionWrite):
            port.section_write(action.offset, action.data)
        elif isinstance(action, SectionRead):
            tcb.inbox, tcb.has_inbox = port.section_read(action.offset,
                                                         action.n), True
        elif isinstance(action, Finish):
            tcb.state = TaskState.DONE
        else:
            raise GuestPanic(f"unknown action {action!r}")
        return ("ran", None)

    # -- host-side fault delivery (paper: guest page-fault service) ---------------

    def absorb_fault(self, fault: ArchFault) -> None:
        """The hypervisor forwarded a fault: run the guest handler and give
        the current task a FAULTED result instead of retrying."""
        ex = self.port.exec
        ex.code(GL.KERNEL_CODE + CODE_FAULT, UC.fault_handler)
        self.stats.faults_handled += 1
        tcb = self.current
        if tcb is not None:
            tcb.retry_action = None
            tcb.inbox, tcb.has_inbox = FAULTED, True
