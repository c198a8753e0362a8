"""PRR controller: static logic governing every reconfigurable region.

Per Section IV (Figs. 4-6), the controller
- exposes one register group per PRR, each on its *own 4 KB page* so the
  kernel can map exactly one region into exactly one client VM;
- runs the **hwMMU**: every DMA the hosted task issues is bounds-checked
  against the client VM's hardware-task data section, because the FPGA
  bypasses the CPU's MMU entirely;
- owns the 16 PL IRQ lines and raises the one assigned to a PRR when its
  task completes;
- executes tasks: DMA in over AXI_HP, IP-core latency, DMA out, with the
  corresponding PL-cycle cost converted onto the CPU timebase.

A control page *after* the per-PRR pages (page index = n_prrs) carries the
hwMMU windows and IRQ routing; only the Hardware Task Manager maps it.
"""

from __future__ import annotations

from typing import Callable

from ..common.errors import DeviceError
from ..common.params import FpgaParams
from ..common.units import fpga_cycles_to_cpu_cycles
from ..gic.gic import Gic
from ..gic.irqs import pl_irq
from ..mem.phys import Bus
from ..obs.metrics import MetricsRegistry
from ..sim.engine import EventHandle, Simulator
from .ip import IpCore
from .prr import (
    CTRL_RESET,
    CTRL_START,
    NO_IRQ_LINE,
    Prr,
    PrrStatus,
    REG_CTRL,
    REG_CYCLES,
    REG_DST,
    REG_IRQ_EN,
    REG_LEN,
    REG_OUTLEN,
    REG_SRC,
    REG_STATUS,
    REG_TASKID,
)

PAGE = 4096

# Control-page per-PRR record layout (stride 0x20).
CTL_STRIDE = 0x20
CTL_HWMMU_BASE = 0x00
CTL_HWMMU_LIMIT = 0x04
CTL_IRQ_LINE = 0x08
CTL_CLIENT = 0x0C
CTL_CLEAR = 0x10
CTL_KILL = 0x14

#: REG_TASKID value a client reads after its reconfiguration was aborted.
TASKID_RECONFIG_FAILED = 0xFFFF_FFFF


def task_id_of(name: str) -> int:
    """Stable non-zero 16-bit ID exposed in REG_TASKID."""
    h = 0
    for ch in name.encode():
        h = (h * 131 + ch) & 0xFFFF
    return h or 1


class PrrController:
    """MMIO device covering ``n_prrs + 1`` pages at the AXI_GP window."""

    def __init__(self, sim: Simulator, gic: Gic, bus: Bus,
                 prrs: list[Prr], params: FpgaParams,
                 cpu_hz: int, metrics: MetricsRegistry) -> None:
        self.sim = sim
        self.gic = gic
        self.bus = bus
        self.prrs = prrs
        self.params = params
        self.cpu_hz = cpu_hz
        # Per-region counts, indexed by prr_id (docs/OBSERVABILITY.md §6).
        self._m_runs = [metrics.counter("prr.runs", prr=p.prr_id)
                        for p in prrs]
        self._m_violations = [metrics.counter("prr.violations",
                                              prr=p.prr_id) for p in prrs]
        self._m_reconfigs = [metrics.counter("prr.reconfigs", prr=p.prr_id)
                             for p in prrs]
        self._m_hangs = [metrics.counter("prr.hangs", prr=p.prr_id)
                         for p in prrs]
        self._pending: dict[int, EventHandle] = {}
        self._watchdogs: dict[int, EventHandle] = {}
        #: Hook for tests/probes: called (prr_id, status) at completion.
        self.on_complete: Callable[[int, PrrStatus], None] | None = None
        #: Hook wired by the kernel: called (prr_id) when the watchdog
        #: detects a hung task.  Without it the controller recovers
        #: locally (status -> ERR_NOTASK) but nobody reclaims the region.
        self.on_hang: Callable[[int], None] | None = None
        #: Fault injector attachment point (docs/FAULTS.md).  When None
        #: (the default) every fault site is dead code: no extra events
        #: are scheduled and timing is identical to the unhardened model.
        self.faults = None
        #: Watchdog deadline = expected latency x factor + slack cycles.
        self.watchdog_factor = 4
        self.watchdog_slack = 10_000

    @property
    def window_size(self) -> int:
        return (len(self.prrs) + 1) * PAGE

    # -- MMIO ------------------------------------------------------------

    def mmio_read(self, offset: int) -> int:
        page, off = divmod(offset, PAGE)
        if page < len(self.prrs):
            return self._reg_read(self.prrs[page], off)
        return self._ctl_read(off)

    def mmio_write(self, offset: int, value: int) -> None:
        page, off = divmod(offset, PAGE)
        if page < len(self.prrs):
            self._reg_write(self.prrs[page], off, value)
        else:
            self._ctl_write(off, value)

    # -- per-PRR register group ---------------------------------------------

    def _reg_read(self, prr: Prr, off: int) -> int:
        if off == REG_STATUS:
            return int(prr.status)
        if off == REG_SRC:
            return prr.src
        if off == REG_LEN:
            return prr.length
        if off == REG_DST:
            return prr.dst
        if off == REG_OUTLEN:
            return prr.outlen
        if off == REG_IRQ_EN:
            return int(prr.irq_en)
        if off == REG_TASKID:
            if prr.status == PrrStatus.ERR_RECONFIG:
                return TASKID_RECONFIG_FAILED
            return 0 if prr.core is None or prr.reconfiguring \
                else task_id_of(prr.core.name)
        if off == REG_CYCLES:
            return prr.last_exec_fpga_cycles
        return 0

    def _reg_write(self, prr: Prr, off: int, value: int) -> None:
        if off == REG_CTRL:
            if value & CTRL_RESET:
                self._cancel(prr)
                prr.reset_regs()
            if value & CTRL_START:
                self._start(prr)
        elif off == REG_SRC:
            prr.src = value
        elif off == REG_LEN:
            prr.length = value
        elif off == REG_DST:
            prr.dst = value
        elif off == REG_IRQ_EN:
            prr.irq_en = bool(value & 1)

    # -- control page (manager-only) -------------------------------------------

    def _ctl_prr(self, off: int) -> tuple[Prr, int]:
        idx, field = divmod(off, CTL_STRIDE)
        if idx >= len(self.prrs):
            raise DeviceError(f"control page offset {off:#x} beyond PRR count")
        return self.prrs[idx], field

    def _ctl_read(self, off: int) -> int:
        prr, field = self._ctl_prr(off)
        if field == CTL_HWMMU_BASE:
            return prr.hwmmu.base
        if field == CTL_HWMMU_LIMIT:
            return prr.hwmmu.limit
        if field == CTL_IRQ_LINE:
            return NO_IRQ_LINE if prr.irq_line is None else prr.irq_line
        if field == CTL_CLIENT:
            return 0xFFFF_FFFF if prr.client_vm is None else prr.client_vm
        return 0

    def _ctl_write(self, off: int, value: int) -> None:
        prr, field = self._ctl_prr(off)
        if field == CTL_HWMMU_BASE:
            prr.hwmmu.base = value
        elif field == CTL_HWMMU_LIMIT:
            prr.hwmmu.limit = value
        elif field == CTL_IRQ_LINE:
            prr.irq_line = None if value == NO_IRQ_LINE else value & 0xF
        elif field == CTL_CLIENT:
            prr.client_vm = None if value == 0xFFFF_FFFF else value
        elif field == CTL_CLEAR:
            self._cancel(prr)
            prr.reset_regs()
        elif field == CTL_KILL:
            # Watchdog reclaim: the hosted core is presumed wedged — tear
            # it down entirely; the PRR needs a fresh reconfiguration.
            self._cancel(prr)
            prr.reset_regs()
            prr.core = None

    # -- task execution -------------------------------------------------------

    def _start(self, prr: Prr) -> None:
        if prr.core is None or prr.reconfiguring or prr.status == PrrStatus.BUSY:
            prr.status = PrrStatus.ERR_NOTASK
            self._maybe_irq(prr)
            return
        core = prr.core
        outlen = core.out_len(prr.length)
        # hwMMU: both the read burst and the write burst must fall inside
        # the client's window.  The FPGA sees physical addresses only.
        if not (prr.hwmmu.allows(prr.src, prr.src + prr.length)
                and prr.hwmmu.allows(prr.dst, prr.dst + max(outlen, 1))):
            self._m_violations[prr.prr_id].inc()
            prr.status = PrrStatus.ERR_BOUNDS
            self._maybe_irq(prr)
            return
        prr.status = PrrStatus.BUSY
        prr.busy_since = self.sim.now
        exec_cycles = core.exec_fpga_cycles(prr.length)
        prr.last_exec_fpga_cycles = exec_cycles
        axi = self.params.axi_hp_bytes_per_cycle
        fpga_total = (self.params.dma_setup_cycles
                      + self.params.hwmmu_check_cycles
                      + -(-prr.length // axi)
                      + exec_cycles
                      + -(-outlen // axi))
        delay = fpga_cycles_to_cpu_cycles(fpga_total, self.cpu_hz, self.params.hz)
        if self.faults is not None:
            if self.faults.fire("prr.hang", prr=prr.prr_id, task=core.name):
                # The core wedges: no completion event.  Only the watchdog
                # (armed below) can get the region back.
                self._arm_watchdog(prr, delay)
                return
            if self.faults.fire("prr.spurious_done", prr=prr.prr_id,
                                task=core.name):
                # An unsolicited DONE IRQ mid-computation; status stays
                # BUSY, so a correct client re-waits.
                self.sim.schedule(max(1, delay // 2), self._maybe_irq, prr,
                                  label=f"prr{prr.prr_id}-spurious")
            self._arm_watchdog(prr, delay)
        self._pending[prr.prr_id] = self.sim.schedule(
            delay, self._complete, prr, core, outlen,
            label=f"prr{prr.prr_id}-{core.name}")

    def _arm_watchdog(self, prr: Prr, expected_delay: int) -> None:
        deadline = expected_delay * self.watchdog_factor + self.watchdog_slack
        self._watchdogs[prr.prr_id] = self.sim.schedule(
            deadline, self._watchdog_fire, prr,
            label=f"prr{prr.prr_id}-watchdog")

    def _watchdog_fire(self, prr: Prr) -> None:
        self._watchdogs.pop(prr.prr_id, None)
        if prr.status != PrrStatus.BUSY:
            return                      # completed after all; stale timer
        self._m_hangs[prr.prr_id].inc()
        self._cancel(prr)
        if self.on_hang is not None:
            self.on_hang(prr.prr_id)
        else:
            # No manager wired (bare-device tests): recover locally so the
            # region is at least not stuck BUSY forever.
            prr.status = PrrStatus.ERR_NOTASK
            self._maybe_irq(prr)

    def _complete(self, prr: Prr, core: IpCore, outlen: int) -> None:
        self._pending.pop(prr.prr_id, None)
        wd = self._watchdogs.pop(prr.prr_id, None)
        if wd is not None:
            wd.cancel()
        data = self.bus.dram.read_bytes(prr.src, prr.length)
        result = core.run(data)
        if len(result) != outlen:
            raise DeviceError(
                f"{core.name}: out_len() promised {outlen}, run() produced {len(result)}")
        self.bus.dram.write_bytes(prr.dst, result)
        prr.outlen = outlen
        prr.status = PrrStatus.DONE
        self._m_runs[prr.prr_id].inc()
        self._maybe_irq(prr)
        if self.on_complete is not None:
            self.on_complete(prr.prr_id, prr.status)

    def _maybe_irq(self, prr: Prr) -> None:
        if prr.irq_en and prr.irq_line is not None:
            self.gic.assert_irq(pl_irq(prr.irq_line))

    def _cancel(self, prr: Prr) -> None:
        ev = self._pending.pop(prr.prr_id, None)
        if ev is not None:
            ev.cancel()
        wd = self._watchdogs.pop(prr.prr_id, None)
        if wd is not None:
            wd.cancel()

    # -- reconfiguration interface (PCAP side) -------------------------------

    def begin_reconfig(self, prr_id: int) -> None:
        prr = self.prrs[prr_id]
        self._cancel(prr)
        prr.reconfiguring = True
        prr.core = None
        prr.status = PrrStatus.IDLE

    def finish_reconfig(self, prr_id: int, core: IpCore) -> None:
        prr = self.prrs[prr_id]
        if not prr.reconfiguring and prr.status == PrrStatus.ERR_RECONFIG:
            # The reconfiguration was aborted (force reclaim, crash
            # recovery) while the stream was in flight: drop the late
            # completion so the region stays in the state the abort left.
            return
        if not prr.can_host(core):
            raise DeviceError(
                f"PRR{prr_id} cannot host {core.name} (resource overflow)")
        prr.core = core
        prr.reconfiguring = False
        self._m_reconfigs[prr_id].inc()

    def abort_reconfig(self, prr_id: int) -> None:
        """PCAP gave up on this region's reconfiguration: leave it empty
        with a status the client can observe (REG_TASKID reads
        :data:`TASKID_RECONFIG_FAILED` until the next reconfiguration)."""
        prr = self.prrs[prr_id]
        prr.reconfiguring = False
        prr.core = None
        prr.status = PrrStatus.ERR_RECONFIG
