"""Hardware-task allocation core — the six-stage routine of Fig. 7.

The algorithm is shared verbatim between the virtualized manager (a
user-level service PD) and the native baseline (a plain uC/OS-II function):
both ports supply the same hook surface, but the native hooks skip the
page-table and vGIC work ("in native uCOS-II the manager does not need to
update the page tables since all tasks execute in a unified memory space",
Section V-B) — that difference *is* the experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from ..fpga.prr import Prr, PrrStatus
from ..kernel.costs import MANAGER_COSTS as MC
from ..kernel.hypercalls import HcStatus
from ..obs.metrics import MetricsRegistry
from .journal import OP_ALLOCATE, OP_RECLAIM, OP_RELEASE, IntentJournal
from .tables import HardwareTaskTable, HwTaskEntry, PrrTable


@dataclass
class AllocRequest:
    client_vm: int            # 0 in the native port
    task_id: int
    iface_va: int             # where the client wants the register group
    data_pa: int              # physical base of the client's data section
    data_size: int
    want_irq: bool = False
    rid: int | None = None    # request ID, carried onto the PCAP transfer


@dataclass
class AllocResult:
    status: HcStatus
    prr_id: int | None = None
    reconfigured: bool = False
    reclaimed_from: int | None = None
    irq_id: int | None = None


class ManagerPort(Protocol):
    """Environment hooks the allocation core runs against."""

    def code(self, off: int, n_instr: int) -> None:
        """Timed execution of manager code at image offset ``off``."""

    def touch(self, paddr: int, *, write: bool = False) -> None:
        """Timed access to a manager table row."""

    def ctl_write(self, prr_id: int, field: int, value: int) -> None:
        """Timed+functional write to the PRR controller's control page."""

    def reg_group_save(self, old_client_vm: int, prr: Prr) -> None:
        """Consistency protocol toward the *old* client (virt only)."""

    def map_iface(self, client_vm: int, prr_id: int, va: int) -> None: ...

    def unmap_iface(self, client_vm: int, prr_id: int) -> None: ...

    def mark_consistent(self, client_vm: int) -> None: ...

    def register_irq(self, client_vm: int, irq_id: int) -> None: ...

    def unregister_irq(self, client_vm: int, irq_id: int) -> None: ...

    def pcap_available(self) -> bool:
        """False while a PCAP transfer is in flight (single channel)."""

    def pcap_launch(self, entry: HwTaskEntry, prr_id: int,
                    client_vm: int, rid: int | None) -> None: ...

    def iface_va_of(self, client_vm: int, prr_id: int) -> int | None:
        """Current mapping of the PRR group in the client (None if unmapped)."""

    def prr_mapped_at(self, client_vm: int, va: int) -> int | None:
        """Which PRR (if any) the client currently has mapped at ``va``."""

    def crashpoint(self, point: str) -> None:
        """Named crash site: raises ServiceCrashed when a ``service.crash``
        fault fires here (no-op otherwise — and always in the native port)."""

    def pcap_cancel(self, prr_id: int) -> int | None:
        """Cancel an in-flight PCAP transfer targeting ``prr_id``."""


# Control-page field offsets (mirrors fpga.controller).
from ..fpga.controller import (  # noqa: E402  (kept close to use)
    CTL_CLEAR,
    CTL_CLIENT,
    CTL_HWMMU_BASE,
    CTL_HWMMU_LIMIT,
    CTL_IRQ_LINE,
    CTL_KILL,
)


#: ``hwmgr.allocations`` outcomes: one per :meth:`Allocator.allocate`.
ALLOC_OUTCOMES = ("success", "reconfig", "busy", "error")
#: ``hwmgr.reclaims`` reasons: a region taken for another client's
#: request (stage 3a), or force-reclaimed (:meth:`Allocator.force_reclaim`).
RECLAIM_REASONS = ("request", "watchdog", "recovery", "client_died")


class Allocator:
    """Stateful allocation engine over the two tables + live PRR objects.

    Its counts live in the machine's registry, so they outlive the
    service instance that made them (a restarted manager builds a fresh
    allocator over the same counters)."""

    def __init__(self, port: ManagerPort, task_table: HardwareTaskTable,
                 prr_table: PrrTable, prrs: list[Prr],
                 metrics: MetricsRegistry,
                 journal: IntentJournal | None = None) -> None:
        self.port = port
        self.tasks = task_table
        self.prr_table = prr_table
        self.prrs = prrs
        self.journal = journal
        #: PL IRQ lines in use: line -> prr_id.
        self.irq_lines: dict[int, int] = {}
        self._m_outcome = {o: metrics.counter("hwmgr.allocations", outcome=o)
                           for o in ALLOC_OUTCOMES}
        self._m_reclaims = {r: metrics.counter("hwmgr.reclaims", reason=r)
                            for r in RECLAIM_REASONS}

    # -- helpers ------------------------------------------------------------

    def _is_busy(self, prr: Prr) -> bool:
        return prr.reconfiguring or prr.status == PrrStatus.BUSY

    def _choose(self, entry: HwTaskEntry, client_vm: int) -> tuple[Prr | None, bool]:
        """Stage 2: pick a PRR; returns (prr, needs_reconfig)."""
        self.port.code(0x400, MC.prr_table_scan_per_prr * len(entry.prr_list))
        hot: list[Prr] = []
        cold: list[Prr] = []
        for prr_id in entry.prr_list:
            prr = self.prrs[prr_id]
            self.port.touch(self.prr_table.row(prr_id).row_addr)
            if self._is_busy(prr):
                continue
            if prr.core is not None and prr.core.name == entry.name:
                hot.append(prr)
            else:
                cold.append(prr)

        def rank(prr: Prr) -> int:
            # Prefer: already ours, then unowned, then someone else's.
            if prr.client_vm == client_vm:
                return 0
            if prr.client_vm is None:
                return 1
            return 2

        if hot:
            return min(hot, key=rank), False
        if cold:
            return min(cold, key=rank), True
        return None, False

    # -- the six stages ----------------------------------------------------------

    def allocate(self, req: AllocRequest) -> AllocResult:
        port = self.port
        port.code(0x000, MC.service_entry)

        # Stage 1-2: task lookup + PRR selection.
        entry = self.tasks.by_id(req.task_id)
        port.code(0x200, MC.task_table_lookup)
        if entry is None:
            self._m_outcome["error"].inc()
            return AllocResult(HcStatus.ERR_NOTASK)
        port.touch(entry.row_addr)
        prr, needs_reconfig = self._choose(entry, req.client_vm)
        if prr is None:
            self._m_outcome["busy"].inc()
            port.code(0xA00, MC.status_return)
            return AllocResult(HcStatus.BUSY)
        if needs_reconfig and not port.pcap_available():
            # Single-channel PCAP is mid-transfer: report BUSY before any
            # state is committed; the client simply retries.
            self._m_outcome["busy"].inc()
            port.code(0xA00, MC.status_return)
            return AllocResult(HcStatus.BUSY)
        row = self.prr_table.row(prr.prr_id)
        reclaimed_from: int | None = None

        # Write-ahead intent: from here on the routine mutates fabric
        # state, so it must be recoverable (docs/RECOVERY.md).  The
        # journal itself is untimed — its modelled cost rides on the
        # alloc_bookkeeping budget below.
        port.crashpoint("alloc.pre_intent")
        jentry = None
        if self.journal is not None:
            jentry = self.journal.begin(
                OP_ALLOCATE, client_vm=req.client_vm, task_id=req.task_id,
                prr_id=prr.prr_id, reconfig=needs_reconfig)
        port.crashpoint("alloc.post_intent")
        if jentry is not None:
            self.journal.note_act(jentry)

        # Stage 3a: reclaim from a previous client (consistency protocol).
        if prr.client_vm is not None and prr.client_vm != req.client_vm:
            reclaimed_from = prr.client_vm
            self._m_reclaims["request"].inc()
            port.code(0x500, MC.reclaim_save_regs)
            port.reg_group_save(reclaimed_from, prr)
            if port.iface_va_of(reclaimed_from, prr.prr_id) is not None:
                port.unmap_iface(reclaimed_from, prr.prr_id)
            port.ctl_write(prr.prr_id, CTL_CLEAR, 1)

        # Stage 3b: map the register group into the requesting client.
        # Hygiene: if the client already has a *different* PRR mapped at the
        # requested VA, demap it first (it stays allocated, just unmapped).
        other = port.prr_mapped_at(req.client_vm, req.iface_va)
        if other is not None and other != prr.prr_id:
            port.unmap_iface(req.client_vm, other)
        current_va = port.iface_va_of(req.client_vm, prr.prr_id)
        if current_va != req.iface_va:
            port.code(0x600, MC.map_iface_page)
            if current_va is not None:
                port.unmap_iface(req.client_vm, prr.prr_id)
            port.map_iface(req.client_vm, prr.prr_id, req.iface_va)
        port.ctl_write(prr.prr_id, CTL_CLIENT, req.client_vm)
        port.crashpoint("alloc.mid_act")

        # Stage 4: load the hwMMU with the client's data section.
        port.code(0x700, MC.hwmmu_load)
        port.ctl_write(prr.prr_id, CTL_HWMMU_BASE, req.data_pa)
        port.ctl_write(prr.prr_id, CTL_HWMMU_LIMIT, req.data_pa + req.data_size)
        port.mark_consistent(req.client_vm)

        # Optional: PL IRQ line allocation + vGIC registration (Fig. 6).
        irq_id: int | None = None
        if req.want_irq:
            irq_id = self._attach_irq(prr, req.client_vm)

        # Stage 5: reconfigure through PCAP if the task is not resident.
        if needs_reconfig:
            port.code(0x800, MC.pcap_launch)
            port.pcap_launch(entry, prr.prr_id, req.client_vm, req.rid)
        # Shared bookkeeping (present natively too).
        port.code(0x900, MC.alloc_bookkeeping)

        row.client_vm = req.client_vm
        row.task_name = entry.name
        port.touch(row.row_addr, write=True)

        # Commit point.  A reconfiguring allocation stays in ACT until the
        # PCAP transfer lands (the service commits on the done IRQ, aborts
        # on give-up/cancel); everything else commits here.
        port.crashpoint("alloc.pre_commit")
        if jentry is not None and not needs_reconfig:
            self.journal.commit(jentry)
        port.crashpoint("alloc.post_commit")

        # Stage 6: status return; reconfiguration completion is *not*
        # awaited (the client polls or takes the PCAP IRQ).
        port.code(0xA00, MC.status_return)
        if needs_reconfig:
            self._m_outcome["reconfig"].inc()
            return AllocResult(HcStatus.RECONFIG, prr.prr_id, True,
                               reclaimed_from, irq_id)
        self._m_outcome["success"].inc()
        return AllocResult(HcStatus.SUCCESS, prr.prr_id, False,
                           reclaimed_from, irq_id)

    def _attach_irq(self, prr: Prr, client_vm: int) -> int | None:
        from ..gic.irqs import N_PL_IRQS, pl_irq
        self.port.code(0xB00, MC.irq_line_setup)
        line = prr.irq_line
        if line is None:
            for candidate in range(N_PL_IRQS):
                if candidate not in self.irq_lines:
                    line = candidate
                    self.irq_lines[line] = prr.prr_id
                    self.port.ctl_write(prr.prr_id, CTL_IRQ_LINE, line)
                    break
            else:
                return None        # all 16 PL lines in use
        irq_id = pl_irq(line)
        self.port.register_irq(client_vm, irq_id)
        return irq_id

    # -- watchdog recovery -------------------------------------------------------

    def force_reclaim(self, prr_id: int, *,
                      reason: str = "watchdog") -> int | None:
        """Take a compromised PRR back to the free pool.

        Runs the same consistency protocol as a normal reclaim (stage 3a
        of Fig. 7): register snapshot + 'inconsistent' state flag into the
        old client's data section, demap its register-group page, then —
        unlike a normal reclaim — kill the wedged core outright
        (CTL_KILL), because its state cannot be trusted.  The region ends
        unowned and empty; the old client discovers the loss through its
        state flag / unmapped interface and re-requests the task.

        ``reason`` is ``"watchdog"`` (hung task), ``"recovery"``
        (crash-recovery rollback/reconcile) or ``"client_died"`` (owning
        VM killed — docs/RECOVERY.md §9); it labels the reclaim's
        ``hwmgr.reclaims`` count.  The routine is **idempotent**: a
        second call on an already-clean region — a watchdog kill racing
        a crash-recovery pass, say — returns early without touching
        hardware or double-counting, so ``hwmgr.reclaims`` moves exactly
        once per actual reclaim.  An in-flight PCAP transfer targeting
        the region is cancelled, and any open journal entry for it is
        aborted (docs/RECOVERY.md).
        Returns the old client's VM id (None if nothing was reclaimed).
        """
        port = self.port
        prr = self.prrs[prr_id]
        row = self.prr_table.row(prr_id)
        old = prr.client_vm
        jentry = (self.journal.entry_for_prr(prr_id)
                  if self.journal is not None else None)
        if (old is None and row.client_vm is None and not prr.reconfiguring
                and jentry is None):
            return None             # already reclaimed — idempotent no-op
        if prr.reconfiguring:
            port.pcap_cancel(prr_id)
            # The cancel's abort hook may already have closed the entry.
            jentry = (self.journal.entry_for_prr(prr_id)
                      if self.journal is not None else None)
        if jentry is not None and jentry.op == OP_ALLOCATE:
            self.journal.abort(jentry)
        rec = None
        if self.journal is not None:
            rec = self.journal.reuse_or_begin(
                OP_RECLAIM, client_vm=old, task_id=0, prr_id=prr_id)
            self.journal.note_act(rec)
        port.code(0x500, MC.reclaim_save_regs)
        if old is not None:
            port.reg_group_save(old, prr)
            if port.iface_va_of(old, prr_id) is not None:
                port.unmap_iface(old, prr_id)
            if prr.irq_line is not None:
                from ..gic.irqs import pl_irq
                port.unregister_irq(old, pl_irq(prr.irq_line))
        port.crashpoint("reclaim.pre_commit")
        port.ctl_write(prr_id, CTL_KILL, 1)
        port.ctl_write(prr_id, CTL_CLIENT, 0xFFFF_FFFF)
        port.ctl_write(prr_id, CTL_HWMMU_BASE, 0)
        port.ctl_write(prr_id, CTL_HWMMU_LIMIT, 0)
        row.client_vm = None
        row.task_name = None
        self._m_reclaims[reason].inc()
        port.touch(row.row_addr, write=True)
        if rec is not None:
            self.journal.commit(rec)
        port.code(0xA00, MC.status_return)
        return old

    # -- release ----------------------------------------------------------------

    def release(self, client_vm: int, task_id: int) -> AllocResult:
        """HC_HWTASK_RELEASE: give up every PRR this client holds for the
        task (or all of them when task_id == 0)."""
        port = self.port
        port.code(0x000, MC.service_entry)
        entry = self.tasks.by_id(task_id) if task_id else None
        jentry = None
        if self.journal is not None:
            jentry = self.journal.reuse_or_begin(
                OP_RELEASE, client_vm=client_vm, task_id=task_id,
                prr_id=None)
        released = None
        for row in self.prr_table.rows_of_client(client_vm):
            if entry is not None and row.task_name != entry.name:
                continue
            if jentry is not None:
                self.journal.note_act(jentry)
            prr = self.prrs[row.prr_id]
            if port.iface_va_of(client_vm, row.prr_id) is not None:
                port.unmap_iface(client_vm, row.prr_id)
            if prr.irq_line is not None:
                from ..gic.irqs import pl_irq
                port.unregister_irq(client_vm, pl_irq(prr.irq_line))
            port.ctl_write(row.prr_id, CTL_CLIENT, 0xFFFF_FFFF)
            port.ctl_write(row.prr_id, CTL_HWMMU_BASE, 0)
            port.ctl_write(row.prr_id, CTL_HWMMU_LIMIT, 0)
            row.client_vm = None
            port.touch(row.row_addr, write=True)
            released = row.prr_id
        port.crashpoint("release.pre_commit")
        if jentry is not None:
            self.journal.commit(jentry)
        port.code(0xA00, MC.status_return)
        return AllocResult(HcStatus.SUCCESS if released is not None
                           else HcStatus.ERR_STATE, released)
