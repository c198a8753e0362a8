"""vCPU: the in-kernel container of one VM's hardware state (Table I).

Resources are split by switch policy exactly as in the paper:

* **active switch** — saved/restored on *every* VM switch: the user-mode
  general-purpose registers, the guest's virtual timer state, and the
  privileged state the kernel reloads on its behalf (TTBR/ASID/DACR view,
  vGIC shadow);
* **lazy switch** — VFP (and L2-control in the paper): the kernel merely
  *disables* the unit on switch; the first use by the next VM traps and
  pays for the save/restore then (see :mod:`repro.cpu.vfp`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cpu.registers import RegisterFile


@dataclass
class VTimerState:
    """Guest virtual timer (programmed via HC_TIMER_SET).

    ``remaining`` counts *guest-visible* cycles: it only decreases while
    the VM is running, matching the paper's model where an inactive VM's
    interrupts wait for it to be scheduled.
    """

    period: int = 0             # 0 = disarmed
    remaining: int = 0
    irq_id: int = 29            # virtual timer IRQ number seen by the guest

    @property
    def armed(self) -> bool:
        return self.period > 0 or self.remaining > 0


@dataclass
class Vcpu:
    """Saved state of one virtual machine."""

    vm_id: int
    #: Kernel-memory address of this save area (the switch path touches it).
    save_area: int = 0
    regs: dict = field(default_factory=dict)        # user register snapshot
    #: Guest's virtual copies of privileged registers (read via HC_REG_*).
    vregs: dict[str, int] = field(default_factory=dict)
    vtimer: VTimerState = field(default_factory=VTimerState)
    #: Guest privilege level within PL0: True while the guest *kernel* runs
    #: (selects the DACR view, Table II).
    guest_kernel_mode: bool = True
    #: Set once the VM has ever touched the VFP (lazy-switch candidate).
    used_vfp: bool = False

    #: Words moved by an active save or restore (registers + timer + vregs);
    #: Table I's "active switch" resources.
    ACTIVE_CONTEXT_WORDS = RegisterFile.USER_CONTEXT_WORDS + 4 + 6

    def save_user_regs(self, regfile: RegisterFile) -> None:
        """Active switch-out: snapshot the user register bank (Table I)."""
        self.regs = regfile.snapshot_user()

    def restore_user_regs(self, regfile: RegisterFile) -> None:
        """Active switch-in: reload the user register bank (Table I)."""
        if self.regs:
            regfile.restore_user(self.regs)

    # -- checkpoint/restore (docs/RECOVERY.md §9) ---------------------------

    def snapshot(self) -> dict:
        """Checkpointable vCPU state.  Transient ``_``-prefixed vregs
        (deferred-exit staging, pending-PL markers) are kernel bookkeeping
        tied to the current incarnation and are excluded."""
        return {
            "regs": dict(self.regs),
            "vregs": {k: v for k, v in self.vregs.items()
                      if not k.startswith("_")},
            "vtimer": (self.vtimer.period, self.vtimer.remaining,
                       self.vtimer.irq_id),
            "guest_kernel_mode": self.guest_kernel_mode,
            "used_vfp": self.used_vfp,
        }

    def restore(self, snap: dict) -> None:
        """Reload state captured by :meth:`snapshot`."""
        self.regs = dict(snap["regs"])
        self.vregs = dict(snap["vregs"])
        self.vtimer.period, self.vtimer.remaining, self.vtimer.irq_id = \
            snap["vtimer"]
        self.guest_kernel_mode = snap["guest_kernel_mode"]
        self.used_vfp = snap["used_vfp"]
