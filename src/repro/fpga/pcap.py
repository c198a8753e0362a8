"""PCAP (Processor Configuration Access Port) model — the DevC engine that
streams partial bitstreams from DRAM into a PRR.

One transfer at a time (the real port is single-channel); latency is
size / throughput.  Completion raises the DevC "DONE" interrupt
(IRQ_PCAP_DONE), which Mini-NOVA routes to the VM that launched the
transfer (Section IV-D) — or which the guest may poll instead
(Section IV-E stage 6 gives both options).

Failure handling (docs/FAULTS.md): when a fault injector is attached the
port can see CRC/DMA errors, corrupted bitstreams, and hangs.  Each
attempt is guarded by a timeout; a failed attempt is retried with
exponential backoff up to ``max_retries`` times, then the port gives up
and aborts the reconfiguration — the target PRR lands in ERR_RECONFIG so
the client observes a VM-visible error instead of waiting forever.
Without an injector the happy path is cycle-identical to the unhardened
model (no timeout events are ever scheduled).
"""

from __future__ import annotations

from typing import Callable

from ..common.errors import DeviceBusy
from ..common.params import FpgaParams
from ..gic.gic import Gic
from ..gic.irqs import IRQ_PCAP_DONE
from ..sim.engine import EventHandle, Simulator
from .bitstream import Bitstream
from .controller import PrrController

# MMIO register offsets (devcfg-flavoured, simplified).
PCAP_CTRL = 0x00
PCAP_STATUS = 0x04     # bit0 busy, bit1 done-since-last-clear
PCAP_SRC = 0x08
PCAP_LEN = 0x0C
PCAP_TARGET = 0x10     # PRR id
PCAP_INT_EN = 0x14

PCAP_WINDOW_SIZE = 0x100


class Pcap:
    def __init__(self, sim: Simulator, gic: Gic, controller: PrrController,
                 params: FpgaParams, cpu_hz: int) -> None:
        self.sim = sim
        self.gic = gic
        self.controller = controller
        self.params = params
        self.cpu_hz = cpu_hz
        self.busy = False
        self.done_flag = False
        self.int_en = True
        self.transfers = 0
        self.bytes_moved = 0
        #: Hook: called (prr_id, task_name) when a reconfiguration lands.
        self.on_done: Callable[[int, str], None] | None = None
        #: Hook: called (prr_id) when a reconfiguration is abandoned —
        #: retries exhausted or the transfer cancelled (docs/RECOVERY.md).
        self.on_abort: Callable[[int], None] | None = None
        self._regs = {"src": 0, "len": 0, "target": 0}
        #: Fault injector attachment point; None = happy path only.
        self.faults = None
        #: Failed attempts are retried this many times before giving up.
        self.max_retries = 2
        #: First retry waits this long; each further retry doubles it.
        self.retry_backoff_cycles = 1_000
        #: Per-attempt timeout = expected latency x factor + slack.
        self.timeout_factor = 3
        self.timeout_slack = 1_000
        # In-flight transfer state (valid while ``busy``).
        self._xfer_bitstream: Bitstream | None = None
        self._xfer_prr = 0
        self._xfer_task = ""
        self._xfer_rid: int | None = None
        self._xfer_attempt = 0
        self._xfer_corrupt = False
        self._timeout_ev: EventHandle | None = None
        self._completion_ev: EventHandle | None = None
        self._retry_ev: EventHandle | None = None
        # Observability (attached by the kernel / native system at boot):
        # pcap_xfer_start/_end span + transfer counters, docs/OBSERVABILITY.md.
        self._tracer = None
        self._metrics = None
        self._m_transfers = None
        self._m_bytes = None
        self._m_xfer_cycles = None

    def attach_obs(self, tracer=None, metrics=None) -> None:
        """Wire this port into an observability layer (idempotent)."""
        self._tracer = tracer
        self._metrics = metrics
        if metrics is not None:
            self._m_transfers = metrics.counter("pcap.transfers")
            self._m_bytes = metrics.counter("pcap.bytes_moved")
            self._m_xfer_cycles = metrics.histogram("pcap.xfer_cycles")
            # Failure/recovery counters, zero-valued until a fault plan
            # actually injects something (docs/FAULTS.md).
            metrics.counter("pcap.errors")
            metrics.counter("recovery.pcap_retries")
            metrics.counter("recovery.pcap_giveups")
            metrics.counter("recovery.pcap_cancels")

    # -- direct API (used by the Hardware Task Manager) --------------------

    def transfer_cycles(self, size: int) -> int:
        """CPU-cycle latency for streaming ``size`` bytes through PCAP."""
        return -(-size * self.cpu_hz // self.params.pcap_bytes_per_sec)

    def start_transfer(self, bitstream: Bitstream, prr_id: int,
                       rid: int | None = None) -> int:
        """Begin a reconfiguration; returns expected latency in CPU cycles.

        Raises :class:`DeviceBusy` if a transfer is already in flight
        (the caller — the manager — serializes PCAP use).  The trace
        events carry ``rid``, the launching request's ID.
        """
        if self.busy:
            raise DeviceBusy("PCAP transfer already in progress")
        self.busy = True
        self.done_flag = False
        self._xfer_bitstream = bitstream
        self._xfer_prr = prr_id
        self._xfer_task = bitstream.task
        self._xfer_rid = rid
        self._xfer_attempt = 0
        return self._launch()

    def _launch(self) -> int:
        """One transfer attempt (the whole bitstream streams every time)."""
        bitstream, prr_id, task = (self._xfer_bitstream, self._xfer_prr,
                                   self._xfer_task)
        assert bitstream is not None
        self._xfer_attempt += 1
        self._xfer_corrupt = False
        self.transfers += 1
        self.bytes_moved += bitstream.size
        self.controller.begin_reconfig(prr_id)
        delay = self.transfer_cycles(bitstream.size)
        if self._tracer is not None:
            self._tracer.mark("pcap_xfer_start", cat="pcap", prr=prr_id,
                              task=task, bytes=bitstream.size,
                              rid=self._xfer_rid)
        if self._m_transfers is not None:
            self._m_transfers.inc()
            self._m_bytes.inc(bitstream.size)
            self._m_xfer_cycles.observe(delay)
        self._retry_ev = None
        completion = self.sim.schedule(delay, self._complete, prr_id, task,
                                       label=f"pcap-{task}->prr{prr_id}")
        if self.faults is not None:
            timeout = delay * self.timeout_factor + self.timeout_slack
            if self.faults.fire("bitstream.corrupt", prr=prr_id, task=task):
                # The stream lands but fails its checksum at completion.
                self._xfer_corrupt = True
            if self.faults.fire("pcap.hang", prr=prr_id, task=task):
                # The DMA stalls: push completion past the timeout so the
                # watchdog path (not the DONE path) resolves this attempt.
                completion = self.sim.defer(completion, timeout)
            self._timeout_ev = self.sim.schedule(
                timeout, self._timeout_fire, completion,
                label=f"pcap-timeout-prr{prr_id}")
        self._completion_ev = completion
        return delay

    def _disarm_timeout(self) -> None:
        if self._timeout_ev is not None:
            self._timeout_ev.cancel()
            self._timeout_ev = None

    def _timeout_fire(self, completion: EventHandle) -> None:
        self._timeout_ev = None
        if not self.busy or not completion.pending:
            return
        completion.cancel()
        self._fail("timeout")

    def _complete(self, prr_id: int, task: str) -> None:
        from .ip import make_core
        self._disarm_timeout()
        self._completion_ev = None
        if self._xfer_corrupt:
            self._fail("crc")
            return
        if self.faults is not None and self.faults.fire(
                "pcap.transfer_error", prr=prr_id, task=task):
            self._fail("dma")
            return
        self.controller.finish_reconfig(prr_id, make_core(task))
        self.busy = False
        self._xfer_bitstream = None
        if self._tracer is not None:
            self._tracer.mark("pcap_xfer_end", cat="pcap", prr=prr_id,
                              task=task, rid=self._xfer_rid)
        self.done_flag = True
        if self.int_en:
            self.gic.assert_irq(IRQ_PCAP_DONE)
        if self.on_done is not None:
            self.on_done(prr_id, task)

    def _fail(self, reason: str) -> None:
        """One attempt failed: retry with backoff or give up for good."""
        prr_id, task, attempt = self._xfer_prr, self._xfer_task, \
            self._xfer_attempt
        if self._tracer is not None:
            self._tracer.mark("pcap_xfer_error", cat="fault", prr=prr_id,
                              task=task, reason=reason, attempt=attempt)
        if self._metrics is not None:
            self._metrics.counter("pcap.errors", reason=reason).inc()
        if attempt <= self.max_retries:
            backoff = self.retry_backoff_cycles * (1 << (attempt - 1))
            if self._metrics is not None:
                self._metrics.counter("recovery.pcap_retries").inc()
            if self._tracer is not None:
                self._tracer.mark("pcap_retry", cat="fault", prr=prr_id,
                                  task=task, attempt=attempt,
                                  backoff=backoff)
            self._retry_ev = self.sim.schedule(
                backoff, self._launch,
                label=f"pcap-retry-{task}->prr{prr_id}")
            return
        # Out of retries: abort the reconfiguration.  The PRR lands in
        # ERR_RECONFIG (REG_TASKID reads all-ones), the DONE flag/IRQ still
        # fire so a waiting client wakes up and observes the error.
        if self._metrics is not None:
            self._metrics.counter("recovery.pcap_giveups").inc()
        if self._tracer is not None:
            self._tracer.mark("pcap_giveup", cat="fault", prr=prr_id,
                              task=task, attempts=attempt)
        self.controller.abort_reconfig(prr_id)
        self.busy = False
        self._xfer_bitstream = None
        self._completion_ev = None
        self.done_flag = True
        if self.int_en:
            self.gic.assert_irq(IRQ_PCAP_DONE)
        if self.on_abort is not None:
            self.on_abort(prr_id)

    def cancel_transfer(self, prr_id: int | None = None) -> int | None:
        """Abandon the in-flight transfer (crash recovery / force reclaim).

        If ``prr_id`` is given, only a transfer targeting that region is
        cancelled.  The reconfiguration is aborted exactly like an
        exhausted retry — the PRR lands in ERR_RECONFIG and the DONE
        flag/IRQ fire so any waiting client wakes up and sees the error —
        and the ``on_abort`` hook runs.  Returns the cancelled target's
        PRR id, or ``None`` if there was nothing to cancel.
        """
        if not self.busy:
            return None
        target = self._xfer_prr
        if prr_id is not None and prr_id != target:
            return None
        self._disarm_timeout()
        if self._completion_ev is not None:
            self._completion_ev.cancel()
            self._completion_ev = None
        if self._retry_ev is not None:
            self._retry_ev.cancel()
            self._retry_ev = None
        task = self._xfer_task
        self.controller.abort_reconfig(target)
        self.busy = False
        self._xfer_bitstream = None
        self._xfer_corrupt = False
        if self._tracer is not None:
            self._tracer.mark("pcap_cancel", cat="fault", prr=target,
                              task=task)
        if self._metrics is not None:
            self._metrics.counter("recovery.pcap_cancels").inc()
        self.done_flag = True
        if self.int_en:
            self.gic.assert_irq(IRQ_PCAP_DONE)
        if self.on_abort is not None:
            self.on_abort(target)
        return target

    # -- MMIO ----------------------------------------------------------------

    def mmio_read(self, offset: int) -> int:
        if offset == PCAP_STATUS:
            return int(self.busy) | (int(self.done_flag) << 1)
        if offset == PCAP_SRC:
            return self._regs["src"]
        if offset == PCAP_LEN:
            return self._regs["len"]
        if offset == PCAP_TARGET:
            return self._regs["target"]
        if offset == PCAP_INT_EN:
            return int(self.int_en)
        return 0

    def mmio_write(self, offset: int, value: int) -> None:
        if offset == PCAP_SRC:
            self._regs["src"] = value
        elif offset == PCAP_LEN:
            self._regs["len"] = value
        elif offset == PCAP_TARGET:
            self._regs["target"] = value
        elif offset == PCAP_INT_EN:
            self.int_en = bool(value & 1)
        elif offset == PCAP_STATUS:
            # write-one-to-clear the done flag
            if value & 2:
                self.done_flag = False
