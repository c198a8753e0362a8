"""Runtime invariant checker for the hardware-task subsystem.

Called by the supervisor after every manager restart (and freely from
tests / the fault-schedule runner): walks the PRR controller, the manager's
tables, the intent journal, guest page-table mappings and the kernel
mailbox, and returns a list of human-readable violation strings — empty
when the world is consistent.  docs/RECOVERY.md lists the invariants.
"""

from __future__ import annotations

from ..fpga.prr import PrrStatus
from .journal import OP_ALLOCATE

__all__ = ["assert_no_vm_leaks", "check_invariants",
           "check_lifecycle_invariants", "report_violations"]


def report_violations(kernel, violations, where: str) -> None:
    """Route invariant violations to the armed flight recorder, if any.

    Every checker caller (supervisor restart, the fault-schedule
    runner) funnels violations through here so an armed recorder dumps
    its post-mortem bundle at the first sign of inconsistency.  The
    caller keeps its own counting/tracing — this is the incident hook
    only, and a no-op when nothing is armed or nothing is wrong.
    """
    if not violations:
        return
    flight = getattr(kernel, "flight", None)
    if flight is not None:
        flight.dump("invariant_violation", where=where,
                    violations=list(violations))


def check_invariants(kernel) -> list[str]:
    """Cross-check manager state against hardware ground truth."""
    v: list[str] = []
    machine = kernel.machine
    mgr = kernel.manager_pd
    service = mgr.runner if mgr is not None else None
    alloc = getattr(service, "allocator", None)
    journal = kernel.manager_journal
    if alloc is None or journal is None:
        return v

    # I1: PRR-table ownership agrees with the controller's registers.
    for prr in machine.prrs:
        row = alloc.prr_table.row(prr.prr_id)
        if row.client_vm != prr.client_vm:
            v.append(f"prr{prr.prr_id}: table client {row.client_vm} != "
                     f"controller client {prr.client_vm}")
        # I2: the implemented-task column matches the resident core —
        # except mid-operation (open journal entry) or mid-transfer.
        if not prr.reconfiguring and journal.entry_for_prr(prr.prr_id) is None:
            core_name = prr.core.name if prr.core is not None else None
            if row.task_name != core_name:
                v.append(f"prr{prr.prr_id}: table task {row.task_name!r} != "
                         f"resident core {core_name!r}")

    # I3: register-group exclusivity — each PRR interface page is mapped
    # in at most one VM, and only in the VM that owns the region.
    for prr in machine.prrs:
        mappers = [vm_id for vm_id, pd in kernel.domains.items()
                   if pd is not mgr and prr.prr_id in pd.prr_iface]
        if len(mappers) > 1:
            v.append(f"prr{prr.prr_id}: iface mapped in {len(mappers)} VMs "
                     f"({sorted(mappers)})")
        for vm_id in mappers:
            if vm_id != prr.client_vm:
                v.append(f"prr{prr.prr_id}: iface mapped in vm{vm_id} but "
                         f"owned by {prr.client_vm}")

    # I4: the PL-IRQ line map is a bijection with the controllers' lines.
    for line, prr_id in alloc.irq_lines.items():
        if machine.prrs[prr_id].irq_line != line:
            v.append(f"irq line {line}: allocator says prr{prr_id}, "
                     f"controller says {machine.prrs[prr_id].irq_line}")
    for prr in machine.prrs:
        if (prr.irq_line is not None
                and alloc.irq_lines.get(prr.irq_line) != prr.prr_id):
            v.append(f"prr{prr.prr_id}: line {prr.irq_line} missing from "
                     f"allocator irq map")

    # I5: open journal entries exist only for in-flight reconfigurations
    # (an allocate stays ACT until its PCAP transfer lands or aborts).
    for e in journal.open_entries():
        in_flight = (e.op == OP_ALLOCATE and e.reconfig
                     and e.prr_id is not None
                     and machine.prrs[e.prr_id].reconfiguring)
        if not in_flight:
            v.append(f"journal seq {e.seq}: open {e.op} entry "
                     f"(state {e.state}) with no in-flight reconfig")

    # I6: journal accounting balances (nothing lost or double-closed).
    if not journal.balanced():
        v.append(f"journal unbalanced: {journal.stats} with "
                 f"{len(journal.open_entries())} open")

    # I7: no lost requests — every guest parked in a HC_HWTASK_* hypercall
    # is queued, in flight, or already has its resume staged.
    for vm_id, pd in kernel.domains.items():
        if not pd.vcpu.vregs.get("_hwreq_wait"):
            continue
        queued = any(r.pd is pd for r in kernel.manager_queue)
        cur = getattr(service, "current_request", None)
        in_flight = cur is not None and cur.pd is pd
        staged = "_deferred_req" in pd.vcpu.vregs
        if not (queued or in_flight or staged):
            v.append(f"vm{vm_id}: parked in hwreq but request is neither "
                     f"queued, in flight, nor completed")

    # I8: a BUSY region always has someone to finish it (completion or
    # watchdog event alive in the controller).
    ctl = machine.prr_controller
    for prr in machine.prrs:
        if (prr.status == PrrStatus.BUSY
                and prr.prr_id not in ctl._pending
                and prr.prr_id not in ctl._watchdogs):
            v.append(f"prr{prr.prr_id}: BUSY with no completion/watchdog "
                     f"event pending")
    return v


def check_lifecycle_invariants(kernel) -> list[str]:
    """VM-lifecycle invariants (docs/RECOVERY.md §9) — the no-leak side
    of kill/resurrect.  Robust to systems without a manager or without
    any lifecycle activity (native builds return no violations)."""
    from ..kernel.pd import PdState

    v: list[str] = []
    mgr = kernel.manager_pd
    service = mgr.runner if mgr is not None else None
    lc = getattr(kernel, "lifecycle", None)

    # Scope to *killed* epochs (kill_vm marks the vGIC dead).  A guest
    # that finishes voluntarily also ends DEAD but keeps its last state
    # — it was never torn down, so the no-leak rules don't apply to it.
    dead = {vm_id: pd for vm_id, pd in kernel.domains.items()
            if pd.state is PdState.DEAD and pd.vgic.dead and pd is not mgr}

    # L1: no PRR is still owned by a dead client unless its force-reclaim
    # is already queued/in flight (the kill path enqueues it).
    for prr in kernel.machine.prrs:
        if prr.client_vm not in dead:
            continue
        queued = any(r.kind in ("client_died", "watchdog")
                     and r.task_id == prr.prr_id
                     for r in kernel.manager_queue)
        cur = getattr(service, "current_request", None)
        in_flight = (cur is not None and cur.kind in ("client_died",
                                                      "watchdog")
                     and cur.task_id == prr.prr_id)
        if not (queued or in_flight):
            v.append(f"prr{prr.prr_id}: owned by dead vm{prr.client_vm} "
                     f"with no reclaim queued")

    for vm_id, pd in dead.items():
        # L2: a dead epoch holds no pending vIRQs (all dropped at kill).
        fifo = pd.vgic.pending_fifo()
        if fifo:
            v.append(f"vm{vm_id}: dead epoch has pending vIRQs {fifo}")
        # L3: a dead epoch maps no register-group pages.
        if pd.prr_iface:
            v.append(f"vm{vm_id}: dead epoch still maps PRR ifaces "
                     f"{sorted(pd.prr_iface)}")
        # L4: no guest-originated request from a dead epoch stays queued
        # (kernel-originated reclaims carry exit_=None and are fine).
        for r in kernel.manager_queue:
            if r.pd is pd and r.exit_ is not None:
                v.append(f"vm{vm_id}: dead epoch has a {r.kind!r} request "
                         f"still queued")

    # L5: lifecycle bookkeeping balances — every kill was resolved into a
    # halt, a completed restart, or a still-scheduled resurrection.
    if lc is not None:
        resolved = lc.halt_count + lc.restart_count + len(lc.pending)
        if lc.kills != resolved:
            v.append(f"lifecycle: {lc.kills} kills != {lc.halt_count} halts"
                     f" + {lc.restart_count} restarts + {len(lc.pending)}"
                     f" pending")

    # L6: every live domain is registered with the accountant (ledger
    # continuity across resurrection).
    acct = getattr(kernel, "acct", None)
    if acct is not None:
        for vm_id, pd in kernel.domains.items():
            if pd.state is not PdState.DEAD and vm_id not in acct.vms:
                v.append(f"vm{vm_id}: live domain missing from accounting")
    return v


def assert_no_vm_leaks(kernel) -> None:
    """Raise AssertionError listing every lifecycle-invariant violation;
    the tools-style leak check tests call after killing VMs."""
    v = check_lifecycle_invariants(kernel)
    if v:
        raise AssertionError("VM resource leaks: " + "; ".join(v))
