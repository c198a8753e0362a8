"""Virtual GIC: the per-VM interrupt state of Fig. 2 (Section III-B).

Each VM's vGIC keeps a record list indexed by IRQ source number with the
virtual state of that IRQ (enabled / pending / active), plus the VM's
registered IRQ entry point — the per-VM column of the Fig. 2 block
diagram.  The physical GIC only ever reflects the *running* VM's enabled
set: on every VM switch the kernel masks the predecessor's IRQs and
unmasks the successor's (enabled ones only), the mask/unmask-and-inject
protocol the vm-switch path of :mod:`repro.kernel.core` implements.
IRQs that fire while their VM is inactive stay pending in the vGIC and
are delivered when the VM is next scheduled (Section IV-D).

Observability: injections are traced by the kernel core (the
``plirq_inject_*`` span and the verbose ``virq_inject`` event — see
docs/OBSERVABILITY.md) and counted there in ``kernel.virq_injected{vm}``.
The vGIC itself keeps no tallies: it reports pends, takes and drops to
the kernel's ``acct`` (:class:`~repro.obs.accounting.VmAccounting`),
which counts pends in ``kernel.virq_pended{vm}`` and turns every
pend/take pair into one injection-to-delivery latency sample
(``kernel.virq_delivery_cycles``).  Both counters live in the machine's
registry, so they keep counting across a VM's resurrections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class VIrqState:
    """One entry of the vIRQ record list."""

    irq_id: int
    enabled: bool = True
    pending: bool = False
    #: Virtual state word the guest manages locally (paper: "it is the
    #: guest OS' responsibility to manage its own vIRQ state").
    guest_word: int = 0


@dataclass
class VGic:
    """Per-VM virtual interrupt controller."""

    vm_id: int
    #: Guest virtual address of the VM's IRQ handler entry.
    irq_entry_va: int = 0
    irqs: dict[int, VIrqState] = field(default_factory=dict)
    #: Delivery order for pending vIRQs (FIFO).
    _pending_fifo: list[int] = field(default_factory=list)
    #: Optional per-VM accountant (wired by the kernel); pend/take feed
    #: its pend counter and injection-to-delivery latency samples.
    acct: Any = None
    #: Set when the owning PD dies: a dead-epoch vGIC accepts no new
    #: pends (the kernel's routing sites count such attempts into
    #: ``vm.lifecycle.virqs_dead_epoch`` — docs/RECOVERY.md §9).
    dead: bool = False

    # -- registration ------------------------------------------------------

    def register(self, irq_id: int, *, enabled: bool = True) -> VIrqState:
        """Add ``irq_id`` to the VM's record list (idempotent)."""
        st = self.irqs.get(irq_id)
        if st is None:
            st = VIrqState(irq_id=irq_id, enabled=enabled)
            self.irqs[irq_id] = st
        else:
            st.enabled = enabled
        return st

    def unregister(self, irq_id: int) -> None:
        self.irqs.pop(irq_id, None)
        if irq_id in self._pending_fifo:
            self._pending_fifo.remove(irq_id)
            if self.acct is not None:
                self.acct.note_virq_dropped(self.vm_id, irq_id)

    def set_enabled(self, irq_id: int, on: bool) -> None:
        if irq_id in self.irqs:
            self.irqs[irq_id].enabled = on

    def owns(self, irq_id: int) -> bool:
        return irq_id in self.irqs

    # -- pend / deliver -------------------------------------------------------

    def pend(self, irq_id: int) -> None:
        """Mark a vIRQ pending (IRQ arrived; VM may or may not be running)."""
        if self.dead:
            return
        st = self.irqs.get(irq_id)
        if st is None or not st.enabled:
            return
        if not st.pending:
            st.pending = True
            self._pending_fifo.append(irq_id)
            if self.acct is not None:
                self.acct.note_virq_pended(self.vm_id, irq_id)

    def next_pending(self) -> int | None:
        """Peek the next deliverable vIRQ."""
        for irq_id in self._pending_fifo:
            if self.irqs[irq_id].enabled:
                return irq_id
        return None

    def take(self, irq_id: int) -> None:
        """Consume a pending vIRQ at injection time."""
        st = self.irqs[irq_id]
        st.pending = False
        self._pending_fifo.remove(irq_id)
        if self.acct is not None:
            self.acct.note_virq_injected(self.vm_id, irq_id)

    def has_pending(self) -> bool:
        return self.next_pending() is not None

    def pending_fifo(self) -> list[int]:
        """Pending vIRQ ids in delivery order (checkpoint/inspection)."""
        return list(self._pending_fifo)

    def drop_all_pending(self) -> int:
        """Discard every pending vIRQ (VM death); returns the count.
        Each drop is reported to the accountant so no pend timestamp
        leaks into a later incarnation's latency samples."""
        dropped = 0
        for irq_id in list(self._pending_fifo):
            self.irqs[irq_id].pending = False
            self._pending_fifo.remove(irq_id)
            dropped += 1
            if self.acct is not None:
                self.acct.note_virq_dropped(self.vm_id, irq_id)
        return dropped

    def snapshot(self) -> dict:
        """Checkpointable record list + pending FIFO + entry point."""
        return {
            "irq_entry_va": self.irq_entry_va,
            "records": [(st.irq_id, st.enabled, st.pending, st.guest_word)
                        for _, st in sorted(self.irqs.items())],
            "pending_fifo": list(self._pending_fifo),
        }

    # -- physical-GIC shadowing (VM switch) -----------------------------------

    def enabled_irqs(self) -> list[int]:
        return sorted(i for i, st in self.irqs.items() if st.enabled)

    def all_irqs(self) -> list[int]:
        return sorted(self.irqs)
