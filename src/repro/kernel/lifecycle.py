"""VM lifecycle resilience: checkpoint, restore and supervised resurrection.

A killed guest used to be gone for good: ``kill_vm`` tore the PD out of
the scheduler and everything it owned — PRRs, mapped register groups,
pending vIRQs — leaked or went stale.  This module closes the loop
(docs/RECOVERY.md §9):

* :class:`VmCheckpoint` — a deterministic snapshot of one VM's full
  software-visible state: vCPU registers (incl. the lazy VFP ownership
  bit), the virtual-timer programming, the vGIC record list with its
  pending FIFO, the scheduler's view (queue position, remaining
  quantum), the hardware-task data section and the guest memory image
  (a :class:`PageImage` that shares every page not written since the
  VM's previous snapshot).
  Snapshots are versioned per VM and kept in a bounded in-memory store;
  they are taken through ``HC_VM_CHECKPOINT``, a fleet pull
  (``BoardServer.checkpoint``) or fault injection.
* :class:`VmPolicy` — what to do when the VM dies: ``halt`` (the old
  behaviour, and the default when no policy is set), ``restart`` (fresh
  boot in the same address space) or ``restart_from_checkpoint``
  (rebuild from the latest snapshot).  Restarts are budgeted
  (``max_restarts``) and backed off exponentially (``backoff_cycles``).
* :class:`VmLifecycle` — the kernel-side driver.  ``kill_vm`` reports
  every death here; the lifecycle either books a halt or schedules a
  resurrection event.  Resurrection mirrors the manager supervisor's
  restart protocol: it runs under a saved/restored privileged context,
  respawns the PD in place (same vm_id, page table, ASID, physical
  chunk, kernel object) with a bumped **epoch**, replays or drops the
  checkpointed pending vIRQs by class, and re-enters the scheduler.

Epoch rule: a vIRQ routed at a PD whose state is DEAD belongs to a dead
epoch — it is counted (``vm.lifecycle.virqs_dead_epoch``) and dropped,
never delivered.  Of the checkpointed pending vIRQs only the IVC
notification is replayed on restore; timer ticks regenerate from the
restored virtual timer and PL/PCAP completions refer to hardware state
that was force-reclaimed at kill time, so replaying them would signal
work the fabric no longer holds.

Timing neutrality: constructing the lifecycle or setting a policy
schedules nothing.  Events only enter the simulation when a VM actually
dies, so fault-free runs — including every benchmark profile — are
cycle-identical to a kernel without this module.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..cpu.modes import Mode
from ..mem.descriptors import PAGE_SIZE
from . import layout as L
from .costs import KERNEL_COSTS as C
from .ivc import IVC_IRQ
from .pd import PdState, ProtectionDomain
from .vcpu import Vcpu
from .vgic import VGic

#: Snapshots retained per VM (oldest dropped beyond this).
MAX_CHECKPOINTS_PER_VM = 2

#: Pending-vIRQ classes replayed on a restore-from-checkpoint; everything
#: else (virtual timer, PL completions, PCAP done) is dropped + counted.
REPLAY_IRQS = frozenset({IVC_IRQ})

#: Allowed policy actions.
POLICY_ACTIONS = ("halt", "restart", "restart_from_checkpoint")

#: The one page object every never-written page of an image shares.
ZERO_PAGE = bytes(PAGE_SIZE)


@contextmanager
def privileged_context(cpu):
    """Run a kernel-initiated block at SVC with IRQs masked.

    Restarts, resurrections and adoptions fire from the event loop under
    whichever context is live (possibly guest user mode) and may install
    another address space, so the mode, the IRQ mask and TTBR0,
    CONTEXTIDR and DACR are saved first and put back afterwards."""
    sysregs = cpu.sysregs
    mode, masked = cpu.mode, cpu.irq_masked
    saved = {name: sysregs.read(name, privileged=True)
             for name in ("TTBR0", "CONTEXTIDR", "DACR")}
    cpu.set_mode(Mode.SVC)
    cpu.irq_masked = True
    try:
        yield
    finally:
        for name, value in saved.items():
            sysregs.write(name, value, privileged=True)
        cpu.set_mode(mode)
        cpu.irq_masked = masked


@dataclass(frozen=True)
class VmPolicy:
    """Per-VM death policy (docs/RECOVERY.md §9)."""

    action: str = "restart"
    #: Resurrections granted before the VM is halted for good.
    max_restarts: int = 3
    #: Base delay before the first resurrection; doubles per attempt.
    backoff_cycles: int = 50_000

    def __post_init__(self) -> None:
        if self.action not in POLICY_ACTIONS:
            raise ValueError(f"unknown lifecycle action {self.action!r}")
        if self.max_restarts < 0 or self.backoff_cycles < 0:
            raise ValueError("restart budget/backoff must be >= 0")


class PageImage:
    """Immutable image of a guest chunk: one ``bytes`` per 4 KB page.

    Consecutive snapshots of a VM share every page not written between
    them, and never-written pages share :data:`ZERO_PAGE`, so a snapshot
    costs the pages written since the previous one, not a full chunk
    copy.  Being immutable, it is its own deep copy (``dataclasses.
    asdict`` deep-copies a checkpoint's fields), compares by value, and
    pickles each shared page object once."""

    __slots__ = ("pages",)

    def __init__(self, pages: tuple[bytes, ...]) -> None:
        self.pages = pages

    def __len__(self) -> int:
        return len(self.pages) * PAGE_SIZE

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PageImage):
            return NotImplemented
        return self.pages == other.pages

    def __deepcopy__(self, memo) -> PageImage:
        return self

    def tobytes(self) -> bytes:
        return b"".join(self.pages)


@dataclass
class VmCheckpoint:
    """One versioned snapshot of a VM's software-visible state."""

    vm_id: int
    seq: int
    taken_at: int
    epoch: int
    reason: str
    #: vCPU state: user registers, virtual privileged registers (minus
    #: the kernel's transient ``_``-prefixed markers), timer, mode view.
    vcpu: dict[str, Any]
    #: vGIC state: record list + pending FIFO + guest IRQ entry.
    vgic: dict[str, Any]
    #: Scheduler view at snapshot time.
    quantum_remaining: int
    runnable: bool
    queue_position: int
    #: The whole guest physical chunk, page by page (what makes the
    #: restore bit-exact).
    memory_image: PageImage
    #: Hardware-task data section geometry (va, pa, size).
    hw_data: tuple[int, int, int]
    #: Opaque runner-side persistent state (``lifecycle_state()``).
    runner_state: Any = None
    #: Physical base of the chunk the image was captured from.  A restore
    #: onto a PD with a different base (cross-board adoption,
    #: docs/FLEET.md) rebases the absolute addresses recorded above.
    phys_base: int = 0


class VmLifecycle:
    """Checkpoint store + death-policy driver, owned by the kernel."""

    def __init__(self, kernel) -> None:
        self.k = kernel
        self.policies: dict[int, VmPolicy] = {}
        #: vm_id -> snapshots, newest last (bounded).
        self._store: dict[int, list[VmCheckpoint]] = {}
        #: vm_id -> ``Dram.write_epoch`` when its newest snapshot was taken.
        self._store_epoch: dict[int, int] = {}
        self._seq: dict[int, int] = {}
        #: vm_ids with a resurrection event scheduled but not yet run.
        self.pending: set[int] = set()
        #: vm_ids halted for good (no policy / budget exhausted).
        self.halted: set[int] = set()
        #: Resurrections granted so far, per vm_id.
        self.attempts: dict[int, int] = {}
        #: Reentrancy guard: a checkpoint hypercall arriving while one is
        #: already being taken answers BUSY instead of nesting.
        self._checkpointing = False

    # -- policy -----------------------------------------------------------

    def set_policy(self, vm_id: int, policy: VmPolicy) -> None:
        """Install ``policy`` for ``vm_id``."""
        self.policies[vm_id] = policy
        self.halted.discard(vm_id)

    # -- checkpoint -------------------------------------------------------

    @property
    def checkpoint_in_progress(self) -> bool:
        return self._checkpointing

    def latest(self, vm_id: int) -> VmCheckpoint | None:
        snaps = self._store.get(vm_id)
        return snaps[-1] if snaps else None

    def latest_seq(self, vm_id: int) -> int:
        snap = self.latest(vm_id)
        return snap.seq if snap is not None else 0

    def checkpoint(self, pd: ProtectionDomain, *, reason: str) -> VmCheckpoint:
        """Snapshot ``pd``'s software-visible state (cost-charged through
        the ordinary context-save paths).

        Like a kill, a fleet pull or an injected fault can take a
        snapshot while guest user code is live, so the timed work runs
        under a saved/restored privileged context."""
        k = self.k
        cpu = k.cpu
        mode, masked = cpu.mode, cpu.irq_masked
        cpu.set_mode(Mode.SVC)
        cpu.irq_masked = True
        self._checkpointing = True
        try:
            t0 = k.sim.now
            # Modelled cost: an active context save into the kernel save
            # area, one record-list store per vIRQ entry, then a
            # descriptor-driven copy of the guest chunk (per-page setup).
            cpu.code(k.syms.vm_switch, C.vm_switch_fixed)
            cpu.store_words(L.kva(pd.vcpu.save_area),
                            Vcpu.ACTIVE_CONTEXT_WORDS)
            for irq_id in pd.vgic.all_irqs():
                cpu.store(L.kva(pd.kobj_addr + 0x100 + 4 * irq_id))
            cpu.instr(max(1, pd.phys_size // 4096))
            seq = self._seq.get(pd.vm_id, 0) + 1
            self._seq[pd.vm_id] = seq
            snap = VmCheckpoint(
                vm_id=pd.vm_id, seq=seq, taken_at=k.sim.now,
                epoch=pd.epoch, reason=reason,
                vcpu=pd.vcpu.snapshot(),
                vgic=pd.vgic.snapshot(),
                quantum_remaining=pd.quantum_remaining,
                runnable=pd.state is PdState.RUN,
                queue_position=k.sched.position(pd),
                memory_image=self._capture(pd),
                hw_data=(pd.hw_data.va, pd.hw_data.pa, pd.hw_data.size),
                runner_state=self._runner_state(pd),
                phys_base=pd.phys_base)
            snaps = self._store.setdefault(pd.vm_id, [])
            snaps.append(snap)
            del snaps[:-MAX_CHECKPOINTS_PER_VM]
            k.metrics.counter("vm.lifecycle.checkpoints").inc()
            k.metrics.histogram("vm.lifecycle.checkpoint_cycles").observe(
                k.sim.now - t0)
            k.tracer.mark("vm_checkpoint", cat="lifecycle", vm=pd.vm_id,
                          seq=seq, reason=reason)
            return snap
        finally:
            self._checkpointing = False
            cpu.set_mode(mode)
            cpu.irq_masked = masked

    def _capture(self, pd: ProtectionDomain) -> PageImage:
        """``pd``'s chunk as a page image: the pages stamped after the
        VM's previous stored snapshot are copied out of DRAM, the rest
        are shared with that snapshot (or are :data:`ZERO_PAGE`)."""
        dram = self.k.mem.bus.dram
        prev = self.latest(pd.vm_id)
        if prev is None:
            pages = [ZERO_PAGE] * (pd.phys_size // PAGE_SIZE)
            since = 0
        else:
            pages = list(prev.memory_image.pages)
            since = self._store_epoch[pd.vm_id]
        dirty = np.flatnonzero(
            dram.page_epochs(pd.phys_base, pd.phys_size) > since).tolist()
        for i in dirty:
            pages[i] = dram.read_bytes(pd.phys_base + i * PAGE_SIZE,
                                       PAGE_SIZE)
        self._store_epoch[pd.vm_id] = dram.write_epoch
        self.k.metrics.counter("vm.lifecycle.checkpoint_bytes").inc(
            len(dirty) * PAGE_SIZE)
        return PageImage(tuple(pages))

    def _runner_state(self, pd: ProtectionDomain):
        hook = getattr(pd.runner, "lifecycle_state", None)
        return hook() if hook is not None else None

    # -- death ------------------------------------------------------------

    def marked_for_restart(self, vm_id: int) -> bool:
        return vm_id in self.pending

    def note_kill(self, pd: ProtectionDomain, reason: str) -> None:
        """``kill_vm`` reports every death here; apply the VM's policy."""
        policy = self.policies.get(pd.vm_id)
        if policy is None or policy.action == "halt":
            self._halt(pd, reason)
            return
        attempts = self.attempts.get(pd.vm_id, 0)
        if attempts >= policy.max_restarts:
            self._halt(pd, "restart_budget")
            return
        self.attempts[pd.vm_id] = attempts + 1
        delay = max(1, policy.backoff_cycles * (1 << attempts))
        self.pending.add(pd.vm_id)
        vm_id = pd.vm_id
        self.k.sim.schedule(delay, lambda: self._resurrect_fire(vm_id),
                            label=f"vm-resurrect-{vm_id}")

    def _halt(self, pd: ProtectionDomain, reason: str) -> None:
        self.halted.add(pd.vm_id)
        self.k.metrics.counter("vm.lifecycle.halts").inc()
        self.k.tracer.mark("vm_halted", cat="lifecycle", vm=pd.vm_id,
                           reason=reason)
        if reason == "restart_budget" and self.k.flight is not None:
            # An exhausted restart budget is a terminal, incident-worthy
            # outcome (the VM is gone for good despite a restart policy):
            # capture the post-mortem while the corpse is still warm.
            from ..obs.flight import maybe_dump
            maybe_dump(self.k, "restart_budget_exhausted",
                       vm=pd.vm_id, name=pd.name)

    # -- resurrection -----------------------------------------------------

    def _resurrect_fire(self, vm_id: int) -> None:
        self.pending.discard(vm_id)
        old = self.k.domains.get(vm_id)
        if old is None or old.state is not PdState.DEAD \
                or vm_id in self.halted:
            return
        self.resurrect(vm_id)

    def resurrect(self, vm_id: int) -> ProtectionDomain | None:
        """Respawn a dead VM in place, per its policy.

        Mirrors the manager supervisor's restart protocol: the event can
        fire under any interrupted context, so privileged state is saved,
        the work runs at SVC with IRQs masked, and everything is restored
        afterwards (docs/RECOVERY.md §4 step 1).
        """
        k = self.k
        old = k.domains[vm_id]
        policy = self.policies.get(vm_id)
        cpu = k.cpu
        t0 = k.sim.now
        with privileged_context(cpu):
            respawn = getattr(old.runner, "lifecycle_respawn", None)
            if respawn is None:
                # The runner cannot be rebuilt (e.g. a rogue WildRunner):
                # policy degrades to a halt.
                self._halt(old, "runner_unsupported")
                return None
            new_runner = respawn()
            pd = ProtectionDomain(
                vm_id=vm_id, name=old.name, priority=old.priority,
                vcpu=Vcpu(vm_id=vm_id, save_area=old.kobj_addr + 0x40),
                vgic=VGic(vm_id=vm_id, acct=k.acct),
                page_table=old.page_table, asid=old.asid,
                phys_base=old.phys_base, phys_size=old.phys_size,
                runner=new_runner, kobj_addr=old.kobj_addr,
                epoch=old.epoch + 1)
            k.domains[vm_id] = pd
            # Ledger continuity: same vm_id re-registers onto the same
            # accounting row, and the fresh epoch gets a fresh mailbox.
            k.acct.register_vm(vm_id, pd.name)
            k.ivc.register(vm_id)
            # Modelled respawn cost through the ordinary dispatch paths
            # (resurrections only happen in fault runs, so this cannot
            # perturb the benchmarks).
            cpu.code(k.syms.scheduler, C.scheduler_pick)
            cpu.code(k.syms.vm_switch, C.vm_switch_fixed)
            ckpt = None
            if policy is not None and policy.action == "restart_from_checkpoint":
                ckpt = self.latest(vm_id)
            new_runner.bind(k, pd)
            if ckpt is not None:
                self._apply_checkpoint(pd, ckpt)
            k.sched.add(pd, runnable=True)
            if ckpt is not None and ckpt.quantum_remaining > 0:
                pd.quantum_remaining = ckpt.quantum_remaining
            k.metrics.counter("vm.lifecycle.restarts").inc()
            if ckpt is not None:
                k.metrics.counter("vm.lifecycle.restores").inc()
            k.metrics.histogram("vm.lifecycle.restore_cycles").observe(
                k.sim.now - t0)
            k.tracer.mark("vm_restore", cat="lifecycle", vm=vm_id,
                          epoch=pd.epoch, seq=ckpt.seq if ckpt else 0,
                          source="checkpoint" if ckpt else "fresh")
            return pd

    # -- cross-board adoption (docs/FLEET.md) -----------------------------

    def adopt(self, pd: ProtectionDomain, ckpt: VmCheckpoint) -> None:
        """Restore a checkpoint taken on *another* kernel into ``pd``.

        The fleet dispatcher's live-migration path: the target board
        creates a fresh VM from the tenant's factory (same guest image,
        same task structure), then adopts the source board's snapshot —
        guest memory, vCPU, vGIC and runner persistence.  Absolute
        physical addresses in the snapshot are rebased from the source
        chunk onto ``pd``'s own, so the resume is bit-exact even though
        the two boards allocated different frames.
        """
        if len(ckpt.memory_image) != pd.phys_size:
            raise ValueError(
                f"checkpoint image is {len(ckpt.memory_image)} bytes but "
                f"target PD {pd.vm_id} owns {pd.phys_size}")
        # The restore walks kernel save areas, so it must run at SVC
        # with IRQs masked, leaving the interrupted context untouched.
        with privileged_context(self.k.cpu):
            self._apply_checkpoint(pd, ckpt)
        if ckpt.quantum_remaining > 0:
            pd.quantum_remaining = ckpt.quantum_remaining
        self.k.metrics.counter("vm.lifecycle.adoptions").inc()
        self.k.tracer.mark("vm_adopted", cat="lifecycle", vm=pd.vm_id,
                           seq=ckpt.seq, source_vm=ckpt.vm_id)

    def _apply_checkpoint(self, pd: ProtectionDomain,
                          ckpt: VmCheckpoint) -> None:
        """Rebuild ``pd``'s software-visible state from ``ckpt``."""
        k = self.k
        cpu = k.cpu
        # Guest memory image first: it also rolls back the pages the dying
        # epoch wrote after the snapshot (bit-exact resume).  A page that
        # is zero in the image and was never written here already holds
        # zeros; every other page is written back.
        dram = k.mem.bus.dram
        written = (dram.page_epochs(pd.phys_base, pd.phys_size) != 0).tolist()
        restored = 0
        for i, page in enumerate(ckpt.memory_image.pages):
            if written[i] or page != ZERO_PAGE:
                dram.write_bytes(pd.phys_base + i * PAGE_SIZE, page)
                restored += PAGE_SIZE
        k.metrics.counter("vm.lifecycle.restore_bytes").inc(restored)
        cpu.instr(max(1, len(ckpt.memory_image) // PAGE_SIZE))
        # Active context: registers, vregs, timer, privilege view.
        pd.vcpu.restore(ckpt.vcpu)
        cpu.load_words(L.kva(pd.vcpu.save_area), Vcpu.ACTIVE_CONTEXT_WORDS)
        # vGIC record list; pending vIRQs replay or drop by class.
        pd.vgic.irq_entry_va = ckpt.vgic["irq_entry_va"]
        for irq_id, enabled, _pending, guest_word in ckpt.vgic["records"]:
            st = pd.vgic.register(irq_id, enabled=enabled)
            st.guest_word = guest_word
            cpu.store(L.kva(pd.kobj_addr + 0x100 + 4 * irq_id))
        for irq_id in ckpt.vgic["pending_fifo"]:
            if irq_id in REPLAY_IRQS:
                pd.vgic.pend(irq_id)
                k.metrics.counter("vm.lifecycle.virqs_replayed").inc()
            else:
                k.metrics.counter("vm.lifecycle.virqs_dropped").inc()
        # Hardware-task data section geometry (the guest's boot replay of
        # HWDATA_DEFINE re-derives the same values).  The physical address
        # is recorded absolute; rebase it onto this PD's chunk so a
        # cross-board adoption (different phys_base) lands correctly —
        # for the in-place restore the rebase is the identity.
        va, pa, size = ckpt.hw_data
        if size > 0:
            pa = pd.phys_base + (pa - ckpt.phys_base)
        pd.hw_data.va, pd.hw_data.pa, pd.hw_data.size = va, pa, size
        restore = getattr(pd.runner, "lifecycle_restore", None)
        if restore is not None and ckpt.runner_state is not None:
            restore(ckpt.runner_state)
