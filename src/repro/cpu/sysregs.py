"""CP15-style system coprocessor: the privileged-register surface.

Any access from PL0 raises :class:`UndefinedInstruction`, which is the trap
Mini-NOVA relies on to catch a non-paravirtualized sensitive operation
(Section II-A).  Paravirtualized guests never touch these directly — they
issue hypercalls — so in steady state the traps seen here are bugs or
attacks, and the tests assert both directions.
"""

from __future__ import annotations

from ..common.errors import UndefinedInstruction
from ..mem.mmu import Mmu


class SystemRegisters:
    """The subset of CP15 state Mini-NOVA virtualizes (Table I)."""

    #: Registers reachable through :meth:`read` / :meth:`write`.
    NAMES = ("SCTLR", "TTBR0", "DACR", "CONTEXTIDR", "VBAR", "TPIDRPRW")

    def __init__(self, mmu: Mmu) -> None:
        self._mmu = mmu
        self._regs = {n: 0 for n in self.NAMES}

    def read(self, name: str, *, privileged: bool) -> int:
        if not privileged:
            raise UndefinedInstruction(f"CP15 read {name} from PL0")
        if name not in self._regs:
            raise UndefinedInstruction(f"CP15 read of unknown register {name}")
        return self._regs[name]

    def write(self, name: str, value: int, *, privileged: bool) -> None:
        if not privileged:
            raise UndefinedInstruction(f"CP15 write {name} from PL0")
        if name not in self._regs:
            raise UndefinedInstruction(f"CP15 write of unknown register {name}")
        value &= 0xFFFF_FFFF
        self._regs[name] = value
        # Side effects on the MMU model.
        if name == "SCTLR":
            self._mmu.enabled = bool(value & 1)
        elif name == "TTBR0":
            self._mmu.set_ttbr(value)
        elif name == "DACR":
            self._mmu.set_dacr(value)
        elif name == "CONTEXTIDR":
            self._mmu.set_asid(value & 0xFF)
