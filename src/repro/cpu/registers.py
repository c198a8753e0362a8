"""Banked general-purpose register file.

We do not interpret an ISA, so no run writes a general register (a
hypercall's arguments travel in ``ExitHypercall.args``), but register
*state* matters: vCPU switches save/restore this file, exception entry
banks the CPSR into the SPSR, and the FIQ mode banks r8-r12 exactly as
the architecture does.  Keeping the banking faithful lets the vCPU
switch-cost model count the real number of words moved (Table I).
"""

from __future__ import annotations

from .modes import Mode

#: Modes with private SP/LR banks (USR and SYS share one bank).
_BANKED_SP_LR = (Mode.SVC, Mode.IRQ, Mode.FIQ, Mode.UND, Mode.ABT)


class RegisterFile:
    """r0-r15 + CPSR with per-mode banking of sp/lr (and r8-r12 for FIQ)."""

    def __init__(self) -> None:
        self._low = [0] * 8                      # r0-r7, shared
        self._mid_usr = [0] * 5                  # r8-r12, all modes but FIQ
        self._mid_fiq = [0] * 5                  # r8-r12, FIQ bank
        self._sp = {m: 0 for m in _BANKED_SP_LR}
        self._lr = {m: 0 for m in _BANKED_SP_LR}
        self._sp_usr = 0
        self._lr_usr = 0
        self.pc = 0
        self.cpsr = 0
        self._spsr = {m: 0 for m in _BANKED_SP_LR}
        self.mode = Mode.SVC

    # -- numbered access in the current mode -----------------------------

    def get(self, n: int) -> int:
        if n < 8:
            return self._low[n]
        if n < 13:
            bank = self._mid_fiq if self.mode is Mode.FIQ else self._mid_usr
            return bank[n - 8]
        if n == 13:
            return self._sp.get(self.mode, self._sp_usr) if self.mode in self._sp else self._sp_usr
        if n == 14:
            return self._lr[self.mode] if self.mode in self._lr else self._lr_usr
        if n == 15:
            return self.pc
        raise IndexError(f"register r{n}")

    def set(self, n: int, value: int) -> None:
        value &= 0xFFFF_FFFF
        if n < 8:
            self._low[n] = value
        elif n < 13:
            bank = self._mid_fiq if self.mode is Mode.FIQ else self._mid_usr
            bank[n - 8] = value
        elif n == 13:
            if self.mode in self._sp:
                self._sp[self.mode] = value
            else:
                self._sp_usr = value
        elif n == 14:
            if self.mode in self._lr:
                self._lr[self.mode] = value
            else:
                self._lr_usr = value
        elif n == 15:
            self.pc = value
        else:
            raise IndexError(f"register r{n}")

    # -- SPSR --------------------------------------------------------------

    def spsr(self) -> int:
        """The current mode's saved PSR."""
        m = self.mode
        if m not in self._spsr:
            raise KeyError(f"mode {m} has no SPSR")
        return self._spsr[m]

    def set_spsr(self, value: int, mode: Mode | None = None) -> None:
        m = mode or self.mode
        if m not in self._spsr:
            raise KeyError(f"mode {m} has no SPSR")
        self._spsr[m] = value & 0xFFFF_FFFF

    # -- context save/restore (used by the vCPU switch) --------------------

    def snapshot_user(self) -> dict:
        """Capture everything a vCPU must hold for a de-privileged guest."""
        return {
            "low": list(self._low),
            "mid": list(self._mid_usr),
            "sp_usr": self._sp_usr,
            "lr_usr": self._lr_usr,
            "pc": self.pc,
            "cpsr": self.cpsr,
        }

    def restore_user(self, snap: dict) -> None:
        self._low[:] = snap["low"]
        self._mid_usr[:] = snap["mid"]
        self._sp_usr = snap["sp_usr"]
        self._lr_usr = snap["lr_usr"]
        self.pc = snap["pc"]
        self.cpsr = snap["cpsr"]

    #: Number of 32-bit words a user-context save/restore moves (r0-r12,
    #: sp, lr, pc, cpsr) — drives the active-switch cost in the vCPU model.
    USER_CONTEXT_WORDS = 17
