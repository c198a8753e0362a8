"""Crash recovery for the Hardware Task Manager (docs/RECOVERY.md).

Entered by the :class:`~repro.kernel.supervisor.ManagerSupervisor` right
after it respawned the manager PD.  The fresh service instance starts
with empty tables; this module brings it back in sync by

1. **replaying the intent journal** — open ``allocate`` entries are
   rolled back (the allocation may be half-applied; an in-flight
   reconfiguration is cancelled and the region force-reclaimed), open
   ``release``/``reclaim`` entries are replayed through the normal code
   paths (idempotent; :meth:`IntentJournal.reuse_or_begin` reuses the
   predecessor's entry so the journal stays balanced);

2. **reconciling against ground truth** — regions the PRR controller
   says are mid-reconfiguration with nobody driving them are aborted
   into ERR_RECONFIG, wedged-BUSY regions with no live completion or
   watchdog event are force-reclaimed, and register-group pages mapped
   into a VM that the controller does not list as the owner are demapped;

3. **rebuilding the manager tables** — PRR-table rows and the PL-IRQ
   line map are regenerated from the live :class:`~repro.fpga.prr.Prr`
   objects (the hardware's registers are the only trusted record).

Every step is idempotent, so a crash *during* recovery (not modelled —
crashpoints are suppressed while the supervisor runs) or a watchdog
racing the recovery pass converges to the same state.
"""

from __future__ import annotations

from ..fpga.prr import PrrStatus
from .journal import ACT, OP_ALLOCATE, OP_RECLAIM, OP_RELEASE

__all__ = ["recover"]


def recover(kernel, service) -> None:
    """Drive the freshly respawned ``service`` back to a consistent state.

    Each rollback, replay and reconcile reclaim is counted in the
    ``recovery.*`` metrics.
    """
    alloc = service.allocator
    journal = kernel.manager_journal
    machine = kernel.machine
    metrics = kernel.metrics
    tracer = kernel.tracer

    # -- 1. journal pass ---------------------------------------------------
    for e in journal.open_entries():
        if e.op == OP_ALLOCATE:
            # Roll back: an allocation that never committed may be
            # half-applied (mapped but no hwMMU, reconfiguration in
            # flight, ...) — force the region back to the free pool.
            # A still-INTENT entry means nothing was acted on yet.
            if e.state == ACT and e.prr_id is not None:
                alloc.force_reclaim(e.prr_id, reason="recovery")
            journal.abort(e)
            metrics.counter("recovery.journal_rollbacks").inc()
            tracer.mark("journal_rollback", cat="fault", op=e.op, seq=e.seq,
                        prr=e.prr_id if e.prr_id is not None else -1)
        elif e.op == OP_RELEASE:
            # Replay through the normal path; reuse_or_begin picks this
            # very entry back up and commits it.
            alloc.release(e.client_vm, e.task_id)
            metrics.counter("recovery.journal_replays").inc()
            tracer.mark("journal_replay", cat="fault", op=e.op, seq=e.seq,
                        prr=-1)
        elif e.op == OP_RECLAIM and e.prr_id is not None:
            alloc.force_reclaim(e.prr_id, reason="recovery")
            metrics.counter("recovery.journal_replays").inc()
            tracer.mark("journal_replay", cat="fault", op=e.op, seq=e.seq,
                        prr=e.prr_id)

    # -- 2. reconcile against hardware ground truth ------------------------
    ctl = machine.prr_controller
    for prr in machine.prrs:
        if prr.reconfiguring and not machine.pcap.busy:
            # The controller thinks a reconfiguration is running but the
            # PCAP port is idle: the driving context died between the
            # begin and the launch.  Abort it into ERR_RECONFIG.
            ctl.abort_reconfig(prr.prr_id)
            metrics.counter("recovery.reconcile_reclaims").inc()
            tracer.mark("reconcile_reclaim", cat="fault", prr=prr.prr_id,
                        why="orphan_reconfig")
        if (prr.status == PrrStatus.BUSY
                and prr.prr_id not in ctl._pending
                and prr.prr_id not in ctl._watchdogs):
            # BUSY with neither a completion nor a watchdog event alive:
            # nothing will ever finish this region — reclaim it.
            alloc.force_reclaim(prr.prr_id, reason="recovery")
            metrics.counter("recovery.reconcile_reclaims").inc()
            tracer.mark("reconcile_reclaim", cat="fault", prr=prr.prr_id,
                        why="wedged_busy")
    # Mapping exclusivity: a register-group page mapped into a VM the
    # controller does not list as the region's owner is stale — demap it.
    for vm_id, pd in kernel.domains.items():
        if pd is kernel.manager_pd:
            continue
        for prr_id in list(pd.prr_iface):
            if machine.prrs[prr_id].client_vm != vm_id:
                kernel.service_unmap_iface(pd, prr_id)
                metrics.counter("recovery.reconcile_reclaims").inc()
                tracer.mark("reconcile_reclaim", cat="fault", prr=prr_id,
                            why="stale_mapping")

    # -- 3. rebuild the manager tables from the live PRRs ------------------
    for prr in machine.prrs:
        row = alloc.prr_table.row(prr.prr_id)
        row.client_vm = prr.client_vm
        row.task_name = prr.core.name if prr.core is not None else None
        row.busy = prr.status == PrrStatus.BUSY
    alloc.irq_lines = {prr.irq_line: prr.prr_id
                       for prr in machine.prrs if prr.irq_line is not None}
