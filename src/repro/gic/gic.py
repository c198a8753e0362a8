"""Generic Interrupt Controller model (PL390-style distributor + CPU interface).

Functionally faithful where the paper depends on it: per-ID enable bits
(the kernel masks/unmasks whole VM IRQ sets on every switch, Section
III-B), pending/active state, priority-ordered ACK, EOI, and a spurious
ID.  Exposed both as a Python API (for devices raising lines) and as an
MMIO register file (the kernel reads ICCIAR / writes ICCEOIR through the
timed bus like real driver code would).
"""

from __future__ import annotations

from typing import Callable

from ..common.errors import DeviceError
from .irqs import N_IRQS, SPURIOUS_IRQ

# Register offsets (relative to the GIC window base).
# CPU interface:
ICCICR = 0x000    # CPU interface control
ICCPMR = 0x004    # priority mask
ICCIAR = 0x00C    # interrupt acknowledge (read)
ICCEOIR = 0x010   # end of interrupt (write)
# Distributor (0x1000..):
DIST = 0x1000
ICDDCR = DIST + 0x000          # distributor control
ICDISER = DIST + 0x100         # set-enable, 3 words
ICDICER = DIST + 0x180         # clear-enable, 3 words
ICDISPR = DIST + 0x200         # set-pending, 3 words
ICDICPR = DIST + 0x280         # clear-pending, 3 words
ICDIPR = DIST + 0x400          # priority, byte per ID (word access)

GIC_WINDOW_SIZE = 0x2000


class Gic:
    """Single-CPU-target GIC with ``N_IRQS`` interrupt IDs."""

    n_irqs = N_IRQS

    def __init__(self) -> None:
        self.enabled = [False] * N_IRQS
        self.pending = [False] * N_IRQS
        #: ``pending`` as a bit mask (bit i set iff ``pending[i]``), so the
        #: search for the best pending ID visits only pending IDs.
        self._pending_bits = 0
        self.active = [False] * N_IRQS
        self.priority = [0x80] * N_IRQS       # lower value = higher priority
        self.dist_on = True
        self.cpu_iface_on = True
        self.priority_mask = 0xFF
        #: Callback into the CPU model: called with the new line level.
        self.irq_line_cb: Callable[[bool], None] | None = None
        #: Statistics.
        self.asserted = 0
        self.eois = 0

    # -- device-side API -----------------------------------------------------

    def assert_irq(self, irq_id: int) -> None:
        """A device raises its line (edge-triggered model)."""
        self._check_id(irq_id)
        self.pending[irq_id] = True
        self._pending_bits |= 1 << irq_id
        self.asserted += 1
        self._update_line()

    # -- kernel-side API (also reachable via MMIO) ----------------------------

    def set_enable(self, irq_id: int, on: bool) -> None:
        self._check_id(irq_id)
        self.enabled[irq_id] = on
        self._update_line()

    def set_priority(self, irq_id: int, prio: int) -> None:
        self._check_id(irq_id)
        self.priority[irq_id] = prio & 0xFF

    def ack(self) -> int:
        """ICCIAR read: highest-priority pending+enabled ID becomes active."""
        irq = self._best_pending()
        if irq is None:
            return SPURIOUS_IRQ
        self.pending[irq] = False
        self._pending_bits &= ~(1 << irq)
        self.active[irq] = True
        self._update_line()
        return irq

    def eoi(self, irq_id: int) -> None:
        """ICCEOIR write: drop the active state of ``irq_id``."""
        self._check_id(irq_id)
        self.active[irq_id] = False
        self.eois += 1
        self._update_line()

    def is_pending(self, irq_id: int) -> bool:
        self._check_id(irq_id)
        return self.pending[irq_id]

    # -- internals --------------------------------------------------------------

    def _check_id(self, irq_id: int) -> None:
        if not 0 <= irq_id < self.n_irqs:
            raise DeviceError(f"IRQ id {irq_id} out of range")

    def _best_pending(self) -> int | None:
        """The highest-priority pending, enabled and unmasked ID; the
        lowest such ID on a tie."""
        bits = self._pending_bits
        if not (bits and self.dist_on and self.cpu_iface_on):
            return None
        enabled, priority = self.enabled, self.priority
        best: int | None = None
        while bits:                    # the pending IDs, in ascending order
            low = bits & -bits
            bits ^= low
            i = low.bit_length() - 1
            if enabled[i] and priority[i] < self.priority_mask:
                if best is None or priority[i] < priority[best]:
                    best = i
        return best

    def _update_line(self) -> None:
        level = self._best_pending() is not None
        if self.irq_line_cb is not None:
            self.irq_line_cb(level)

    # -- MMIO register file --------------------------------------------------------

    def mmio_read(self, offset: int) -> int:
        if offset == ICCIAR:
            return self.ack()
        if offset == ICCICR:
            return int(self.cpu_iface_on)
        if offset == ICCPMR:
            return self.priority_mask
        if offset == ICDDCR:
            return int(self.dist_on)
        if ICDISER <= offset < ICDISER + self.n_irqs // 8:
            return self._bits_word(self.enabled, (offset - ICDISER) // 4)
        if ICDISPR <= offset < ICDISPR + self.n_irqs // 8:
            return self._bits_word(self.pending, (offset - ICDISPR) // 4)
        if ICDIPR <= offset < ICDIPR + self.n_irqs:
            word = (offset - ICDIPR) // 4
            val = 0
            for b in range(4):
                val |= self.priority[word * 4 + b] << (8 * b)
            return val
        return 0

    def mmio_write(self, offset: int, value: int) -> None:
        if offset == ICCEOIR:
            self.eoi(value & 0x3FF)
        elif offset == ICCICR:
            self.cpu_iface_on = bool(value & 1)
            self._update_line()
        elif offset == ICCPMR:
            self.priority_mask = value & 0xFF
            self._update_line()
        elif offset == ICDDCR:
            self.dist_on = bool(value & 1)
            self._update_line()
        elif ICDISER <= offset < ICDISER + self.n_irqs // 8:
            self._apply_bits(self.enabled, (offset - ICDISER) // 4, value, True)
        elif ICDICER <= offset < ICDICER + self.n_irqs // 8:
            self._apply_bits(self.enabled, (offset - ICDICER) // 4, value, False)
        elif ICDISPR <= offset < ICDISPR + self.n_irqs // 8:
            self._apply_bits(self.pending, (offset - ICDISPR) // 4, value, True)
        elif ICDICPR <= offset < ICDICPR + self.n_irqs // 8:
            self._apply_bits(self.pending, (offset - ICDICPR) // 4, value, False)
        elif ICDIPR <= offset < ICDIPR + self.n_irqs:
            word = (offset - ICDIPR) // 4
            for b in range(4):
                self.priority[word * 4 + b] = (value >> (8 * b)) & 0xFF

    def _bits_word(self, bits: list[bool], word: int) -> int:
        val = 0
        for b in range(32):
            if bits[word * 32 + b]:
                val |= 1 << b
        return val

    def _apply_bits(self, bits: list[bool], word: int, value: int, on: bool) -> None:
        value &= 0xFFFF_FFFF
        if bits is self.pending:
            mask = value << (word * 32)
            self._pending_bits = (self._pending_bits | mask if on
                                  else self._pending_bits & ~mask)
        while value:                   # the set bits only
            low = value & -value
            value ^= low
            bits[word * 32 + low.bit_length() - 1] = on
        self._update_line()
