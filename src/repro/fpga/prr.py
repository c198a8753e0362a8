"""Partial Reconfiguration Region state.

A PRR is a predefined container in the fabric (Section IV-A): it has a
fixed resource capacity (which decides which tasks *can* be implemented in
it — only the two big regions fit FFTs in the paper's evaluation), a
register group on its own 4 KB page, an optional PL IRQ line, and an
hwMMU window confining its DMA to the current client's data section.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

from .ip import IpCore, PlResources


class PrrStatus(IntEnum):
    IDLE = 0
    BUSY = 1
    DONE = 2
    ERR_BOUNDS = 3      # hwMMU blocked the transfer
    ERR_NOTASK = 4      # start with no / reconfiguring task
    ERR_RECONFIG = 5    # reconfiguration aborted (PCAP gave up)

#: Register offsets within a PRR's 4 KB register-group page.
REG_CTRL = 0x00
REG_STATUS = 0x04
REG_SRC = 0x08
REG_LEN = 0x0C
REG_DST = 0x10
REG_OUTLEN = 0x14
REG_IRQ_EN = 0x18
REG_TASKID = 0x1C
REG_CYCLES = 0x20

CTRL_START = 1
CTRL_RESET = 2

#: Value meaning "no IRQ line assigned".
NO_IRQ_LINE = 0xFFFF_FFFF


@dataclass
class HwMmuWindow:
    """The one allowed [base, limit) physical range for a PRR's DMA."""

    base: int = 0
    limit: int = 0

    def allows(self, lo: int, hi: int) -> bool:
        """True when [lo, hi) fits inside the window (empty window: deny)."""
        return self.base <= lo and hi <= self.limit and lo < hi


@dataclass
class Prr:
    """One region; owned and multiplexed by the PRR controller."""

    prr_id: int
    capacity: PlResources
    core: IpCore | None = None
    status: PrrStatus = PrrStatus.IDLE
    src: int = 0
    length: int = 0
    dst: int = 0
    outlen: int = 0
    irq_en: bool = False
    last_exec_fpga_cycles: int = 0
    irq_line: int | None = None
    hwmmu: HwMmuWindow = field(default_factory=HwMmuWindow)
    client_vm: int | None = None
    reconfiguring: bool = False
    #: Cycle the current computation started (for watchdog latency math).
    busy_since: int = 0

    def can_host(self, core: IpCore) -> bool:
        return core.resources.fits_in(self.capacity)

    def reset_regs(self) -> None:
        """CTRL_RESET / reclaim: clear the data-path register state."""
        self.status = PrrStatus.IDLE
        self.src = self.length = self.dst = self.outlen = 0
        self.irq_en = False
        self.last_exec_fpga_cycles = 0

    def reg_snapshot(self) -> dict[str, int]:
        """Register-group content the manager saves into the old client's
        hardware-task data section on reclaim (Section IV-C)."""
        return {
            "status": int(self.status),
            "src": self.src,
            "len": self.length,
            "dst": self.dst,
            "outlen": self.outlen,
            "irq_en": int(self.irq_en),
        }
