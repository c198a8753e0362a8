"""Actions a guest task can yield to its OS.

Guest application tasks are Python generators: they ``yield`` one of these
records and receive the action's result at the next resume.  The uC/OS-II
core interprets OS-level actions (delays, semaphores) itself and hands the
rest to its *port* — which is where native and paravirtualized execution
diverge (direct operation vs. hypercall / trap).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Compute:
    """Burn ``instrs`` instructions with ``mem_accesses`` loads/stores over
    the given working-set regions (guest VAs)."""

    instrs: int
    mem_accesses: int = 0
    regions: tuple[tuple[int, int], ...] = ()    # (base, size) pairs
    write_frac: float = 0.3


@dataclass
class VfpCompute:
    """A block using the VFP — triggers the lazy-switch trap when the unit
    is disabled (Table I)."""

    instrs: int


@dataclass
class Delay:
    """OSTimeDly: sleep for N OS ticks."""

    ticks: int


@dataclass
class SemPend:
    sem: "object"
    timeout_ticks: int = 0     # 0 = wait forever


@dataclass
class Hypercall:
    """Paravirt: SVC into Mini-NOVA; native: the port emulates directly."""

    num: int
    args: tuple = ()


@dataclass
class MmioRead:
    """Read a device register through the guest's own mapping (e.g. the
    PRR interface page).  May fault if the page was reclaimed."""

    va: int


@dataclass
class MmioWrite:
    va: int
    value: int


@dataclass
class SectionWrite:
    """Copy bytes into the hardware-task data section at ``offset``."""

    offset: int
    data: bytes


@dataclass
class SectionRead:
    """Read ``n`` bytes from the data section at ``offset``."""

    offset: int
    n: int


@dataclass
class HwRequest:
    """Ask the Hardware Task Manager for a task (Section IV-E hypercall:
    task ID, interface VA, data-section VA — plus the IRQ flag)."""

    task_id: int
    iface_va: int
    data_va: int
    want_irq: bool = False


@dataclass
class HwRelease:
    task_id: int = 0


@dataclass
class BindIrqSem:
    """Associate a vIRQ with a semaphore: the OS ISR posts it (Fig. 6)."""

    irq_id: int
    sem: "object"


@dataclass
class Finish:
    """Task completed its workload (leaves the ready list for good)."""

    code: int = 0


#: Sentinel result a task receives when its action faulted (e.g. MMIO on a
#: reclaimed interface page) and the guest OS fault handler absorbed it.
FAULTED = "faulted"
