"""Behavioural CPU core: modes, exception machinery, timed access helpers.

The core does not interpret an ISA.  Kernel and guest routines are Python
code that *narrates* its execution to the core — ``code()`` for instruction
blocks, ``load``/``store``/``read32``/``write32`` for data traffic — and the
core charges cycles onto the simulation clock through the real MMU/cache
models.  Mode and privilege state is fully functional: a USR-mode access to
a privileged page or register faults exactly like hardware would.
"""

from __future__ import annotations

from typing import Sequence

from ..common.errors import SimulationError
from ..common.params import PlatformParams
from ..mem.system import MemorySystem
from ..sim.engine import Simulator
from .modes import EXCEPTION_MODE, VECTOR_OFFSETS, Mode
from .registers import RegisterFile
from .sysregs import SystemRegisters
from .vfp import Vfp

#: ARM instructions per 32-byte I-cache line.
_INSTR_PER_LINE = 8

#: Exception kind -> (the mode it is taken in, its vector offset).  An FIQ
#: enters through the IRQ vector: the model has no separate FIQ handler.
_EXCEPTIONS = {kind: (mode, VECTOR_OFFSETS["irq" if kind == "fiq" else kind])
               for kind, mode in EXCEPTION_MODE.items()}


class Cpu:
    """Single modelled Cortex-A9 core (the paper uses one core of the dual-A9)."""

    def __init__(self, sim: Simulator, mem: MemorySystem,
                 params: PlatformParams) -> None:
        self.sim = sim
        self.mem = mem
        self.params = params
        self.timing = params.cpu
        self.regs = RegisterFile()
        self.sysregs = SystemRegisters(mem.mmu)
        self.vfp = Vfp()
        self.mode = Mode.SVC
        #: ``mode.privileged``, kept by :meth:`set_mode`, through which
        #: every mode change goes: every timed access reads it.
        self.privileged = True
        #: CPSR.I equivalent: True while IRQs must not be taken.
        self.irq_masked = True
        #: Asserted by the GIC CPU interface when an enabled IRQ is pending.
        self.irq_line = False
        #: Vector table base (VBAR); kernel installs it at boot.
        self.vbar = 0
        self._mode_stack: list[tuple[Mode, bool]] = []
        #: Advance the clock; the kernel's accountant attributes the
        #: cycles to a context (:mod:`repro.obs.accounting`).
        self._charge = sim.clock.advance
        #: Block size -> (I-lines, issue cycles), for :meth:`code`, and
        #: instruction count -> issue cycles, for :meth:`instr`.
        self._code_costs: dict[int, tuple[int, int]] = {}
        self._issue_costs: dict[int, int] = {}

    # -- privilege ----------------------------------------------------------

    def set_mode(self, mode: Mode) -> None:
        self.mode = mode
        self.privileged = mode.privileged
        self.regs.mode = mode

    # -- timed execution helpers ---------------------------------------------

    def instr(self, n: int) -> None:
        """Charge issue cost for ``n`` straight-line instructions (no fetch)."""
        cost = self._issue_costs.get(n)
        if cost is None:
            cost = self._issue_costs[n] = self.timing.instr_cycles(n)
        self._charge(cost)

    #: Residual cost of a prefetch-covered line miss (the A9's sequential
    #: prefetcher hides most of the latency of straight-line code runs).
    _PREFETCH_COVERED = 10

    def code(self, va: int, n_instr: int) -> None:
        """Execute a code block at ``va``: I-fetches + issue cycles.

        The first line of a block pays its true miss latency; subsequent
        *sequential* lines are prefetch-covered, so long straight-line
        routines don't pay a full miss per 8 instructions.
        """
        cost = self._code_costs.get(n_instr)
        if cost is None:
            cost = self._code_costs[n_instr] = (
                max(1, (n_instr + _INSTR_PER_LINE - 1) // _INSTR_PER_LINE),
                self.timing.instr_cycles(n_instr))
        lines, issue = cost
        self._charge(self.mem.fetch_run(va, lines, privileged=self.privileged,
                                        covered=self._PREFETCH_COVERED)
                     + issue)

    def load(self, va: int) -> None:
        """Timed load (timing only)."""
        self._charge(self.mem.touch(va, write=False, privileged=self.privileged))

    def store(self, va: int) -> None:
        """Timed store (timing only)."""
        self._charge(self.mem.touch(va, write=True, privileged=self.privileged))

    def load_words(self, va: int, n: int) -> None:
        """Timed loads of the ``n`` consecutive words from ``va``: the
        same as ``n`` calls of :meth:`load`."""
        self.mem.touch_words(va, n, write=False, privileged=self.privileged,
                             charge=self._charge)

    def store_words(self, va: int, n: int) -> None:
        """Timed stores to the ``n`` consecutive words from ``va``: the
        same as ``n`` calls of :meth:`store`."""
        self.mem.touch_words(va, n, write=True, privileged=self.privileged,
                             charge=self._charge)

    def load_run(self, vas: Sequence[int]) -> None:
        """Timed loads of ``vas`` in order (a record walk): the same as
        one :meth:`load` per address."""
        self.mem.touch_run(vas, write=False, privileged=self.privileged,
                           charge=self._charge)

    def stream_range(self, base: int, size: int, *, write: bool = False) -> None:
        """Streaming access to an *uncached* buffer (e.g. a DMA staging
        section on the non-coherent AXI_HP path): translation is paid per
        page, data moves at line granularity straight to/from DRAM without
        polluting the caches."""
        line = self.params.l1d.line
        lines = max(1, size // line)
        cyc = 0
        # One TLB-visible access per 4 KB page for translation cost.
        va = base
        end = base + size
        while va < end:
            _, c = self.mem.mmu.translate(va, privileged=self.privileged,
                                          write=write)
            cyc += c
            va += 4096
        # Burst transfers: roughly a quarter of the DRAM latency per line.
        cyc += lines * (self.timing.dram // 4)
        self._charge(cyc)

    def read32(self, va: int) -> int:
        """Functional timed 32-bit read."""
        value, cyc = self.mem.read32(va, privileged=self.privileged)
        self._charge(cyc)
        return value

    def write32(self, va: int, value: int) -> None:
        """Functional timed 32-bit write."""
        self._charge(self.mem.write32(va, value, privileged=self.privileged))

    # -- exceptions ------------------------------------------------------------

    def take_exception(self, kind: str) -> None:
        """Architectural exception entry: bank switch, SPSR, vector fetch."""
        entry = _EXCEPTIONS.get(kind)
        if entry is None:
            raise SimulationError(f"unknown exception kind {kind!r}")
        target, vector = entry
        self._mode_stack.append((self.mode, self.irq_masked))
        self.regs.set_spsr(self.regs.cpsr, target)
        self.set_mode(target)
        self.irq_masked = True
        # Charged before the vector fetch, which may raise.
        self._charge(self.timing.exception_entry)
        # Vector + first handler line fetch through the I-cache.
        self._charge(self.mem.touch(self.vbar + vector, privileged=True,
                                    fetch=True))

    def return_from_exception(self) -> None:
        """Exception return (movs pc, lr style): restore mode + IRQ mask."""
        if not self._mode_stack:
            raise SimulationError("exception return with empty mode stack")
        mode, masked = self._mode_stack.pop()
        self.set_mode(mode)
        self.irq_masked = masked
        self._charge(self.timing.exception_return)

    @property
    def exception_depth(self) -> int:
        return len(self._mode_stack)

    # -- interrupts --------------------------------------------------------------

    def irq_pending(self) -> bool:
        """True when the GIC asserts IRQ and the CPSR.I mask allows it."""
        return self.irq_line and not self.irq_masked
