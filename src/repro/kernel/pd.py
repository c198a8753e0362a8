"""Protection Domain: the kernel object wrapping one VM (Section III-A).

A PD is the kernel's resource container for one virtual machine: it
holds the vCPU, the vGIC, the address space (page table + ASID), the
scheduling parameters (priority, quantum) and the hardware-task data
section.  The kernel dispatches a PD's traps and hypercalls itself
(``MiniNova._handle_exit``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from ..mem.ptables import PageTable
from .exits import DomainRunner
from .vcpu import Vcpu
from .vgic import VGic


class PdState(Enum):
    RUN = "run"           # in the run queue
    SUSPENDED = "susp"    # in the suspend queue
    DEAD = "dead"


@dataclass
class HwDataSection:
    """The guest-defined hardware-task data section (Section IV-B)."""

    va: int = 0
    pa: int = 0
    size: int = 0
    #: Offset of the reserved consistency record (state flag + saved
    #: register-group content, Section IV-C).
    CONSIST_RECORD_BYTES = 64

    @property
    def configured(self) -> bool:
        return self.size > 0


@dataclass(eq=False)   # identity semantics: PDs live in queues and sets
class ProtectionDomain:
    vm_id: int
    name: str
    priority: int
    vcpu: Vcpu
    vgic: VGic
    page_table: PageTable
    asid: int
    #: Physical chunk [base, base+size) granted to this VM.
    phys_base: int = 0
    phys_size: int = 0
    state: PdState = PdState.SUSPENDED
    runner: DomainRunner | None = None
    #: Remaining quantum in cycles (refilled when a full slice is consumed;
    #: preserved across preemption, Section III-D).
    quantum_remaining: int = 0
    hw_data: HwDataSection = field(default_factory=HwDataSection)
    #: PRR interfaces currently mapped into this PD: prr_id -> guest VA.
    prr_iface: dict[int, int] = field(default_factory=dict)
    #: Kernel-memory address of the PD structure (switch path touches it).
    kobj_addr: int = 0
    #: Incarnation counter: bumped each time the VM is resurrected in
    #: place (docs/RECOVERY.md §9).  State addressed at an older epoch —
    #: e.g. a vIRQ routed at a DEAD predecessor PD — is counted and
    #: dropped, never delivered.
    epoch: int = 0
    #: Fault exits this incarnation took, lazy-VFP traps included.
    faults: int = 0

    def owns_phys(self, lo: int, hi: int) -> bool:
        """True when [lo, hi) falls inside this VM's physical grant."""
        return self.phys_base <= lo and hi <= self.phys_base + self.phys_size and lo < hi

    def va_to_pa(self, va: int) -> int | None:
        """Linear translation for addresses inside the guest's main regions.

        Guest regions are mapped linearly onto the VM's physical chunk
        (va offset == pa offset), so the kernel can validate hypercall
        pointers without a full soft-walk.
        """
        pa = self.phys_base + va
        if self.owns_phys(pa, pa + 1):
            return pa
        return None

    def successor(self, runner: DomainRunner, acct: Any, *,
                  epoch: int) -> "ProtectionDomain":
        """A fresh incarnation of this domain: the same vm_id, name,
        priority, address space, physical chunk and kernel object, with a
        new vCPU and vGIC (on ``acct``), ``runner`` and ``epoch``."""
        return ProtectionDomain(
            vm_id=self.vm_id, name=self.name, priority=self.priority,
            vcpu=Vcpu(vm_id=self.vm_id, save_area=self.kobj_addr + 0x40),
            vgic=VGic(vm_id=self.vm_id, acct=acct),
            page_table=self.page_table, asid=self.asid,
            phys_base=self.phys_base, phys_size=self.phys_size,
            runner=runner, kobj_addr=self.kobj_addr, epoch=epoch)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<PD {self.vm_id}:{self.name} prio={self.priority} {self.state.value}>"
