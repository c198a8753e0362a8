"""Guest-side hardware-task API (Section V-A: "functionalities supporting
hardware task access were added as APIs").

These are sub-generators used with ``yield from`` inside application
tasks.  They wrap the full client protocol: the 3-argument request
hypercall, reconfiguration wait (poll or PCAP IRQ), data-section staging,
PRR register programming, completion wait (status poll or PL IRQ through
the vGIC), and result readback — including recovery when the task's PRR
was reclaimed by another VM mid-use (FAULTED / state-flag protocol).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from ..fpga.controller import TASKID_RECONFIG_FAILED, task_id_of
from ..fpga.prr import (
    CTRL_START,
    PrrStatus,
    REG_CTRL,
    REG_DST,
    REG_IRQ_EN,
    REG_LEN,
    REG_OUTLEN,
    REG_SRC,
    REG_STATUS,
    REG_TASKID,
)
from ..kernel.hypercalls import HcStatus
from . import layout_guest as GL
from .actions import (
    BindIrqSem,
    Compute,
    Delay,
    FAULTED,
    HwRequest,
    MmioRead,
    MmioWrite,
    SectionRead,
    SectionWrite,
    SemPend,
)
from .ucos import Semaphore, Ucos

#: Sentinel returned by :func:`_wait_taskid` when the PRR reports that the
#: reconfiguration was aborted (PCAP retries exhausted, docs/FAULTS.md).
RECONFIG_FAILED = object()

#: Offset of the input staging area in the data section (the first 64 bytes
#: hold the consistency record, Section IV-C).
DATA_IN_OFF = 64
#: Output staging offset: input can grow to 64 KB (fft8192 frames).
DATA_OUT_OFF = DATA_IN_OFF + 128 * 1024


@dataclass
class HwTaskHandle:
    """What a successful run returns alongside the output bytes."""

    status: HcStatus
    prr_id: int | None = None
    irq_id: int | None = None
    reconfigured: bool = False
    retries: int = 0
    output: bytes = b""


def hw_task_run(os: Ucos, task_table_id: int, task_name: str,
                data_in: bytes, *, sem: Semaphore | None = None,
                max_retries: int = 8) -> Generator:
    """Request + execute one hardware task over ``data_in``.

    Uses the PL IRQ completion path when ``sem`` is given, otherwise polls
    the status register with 1-tick backoff.  Returns a
    :class:`HwTaskHandle`; ``status`` is BUSY when no PRR (or the PCAP)
    was available after ``max_retries`` attempts.
    """
    expected_id = task_id_of(task_name)
    want_irq = sem is not None
    handle = HwTaskHandle(status=HcStatus.BUSY)

    for attempt in range(max_retries):
        res = yield HwRequest(task_id=task_table_id,
                              iface_va=GL.PRR_IFACE_VA,
                              data_va=GL.HWDATA_VA, want_irq=want_irq)
        status, prr_id, irq_id = res
        if status in (HcStatus.BUSY, HcStatus.MANAGER_RESTARTING):
            # Transient: no PRR/PCAP available, or the manager service is
            # being restarted (docs/RECOVERY.md) — back off and retry.
            handle.retries += 1
            yield Delay(1)
            continue
        if status not in (HcStatus.SUCCESS, HcStatus.RECONFIG):
            handle.status = status
            return handle
        handle.prr_id, handle.irq_id = prr_id, irq_id
        handle.reconfigured = status == HcStatus.RECONFIG
        iface = os.port.iface_addr(prr_id, GL.PRR_IFACE_VA)

        # Wait out a PCAP reconfiguration (stage 6: poll or PCAP IRQ —
        # polling REG_TASKID doubles as the completion signal).
        ok = yield from _wait_taskid(iface, expected_id)
        if ok is FAULTED:
            handle.retries += 1
            continue
        if ok is RECONFIG_FAILED:
            # PCAP exhausted its retries: VM-visible error, not a hang.
            handle.status = HcStatus.ERR_STATE
            return handle
        if not ok:
            handle.retries += 1
            yield Delay(1)
            continue

        result = yield from _program_and_wait(
            os, iface, data_in, sem=sem, irq_id=irq_id)
        if result is FAULTED:
            # PRR reclaimed mid-use: the state flag in our data section
            # tells us the interface is gone; re-request.
            handle.retries += 1
            continue
        status_reg, output = result
        if status_reg == int(PrrStatus.DONE):
            handle.status = HcStatus.SUCCESS
            handle.output = output
            return handle
        handle.status = HcStatus.ERR_STATE
        return handle

    handle.status = HcStatus.BUSY
    return handle


#: Ticks a client polls (or pends) for a reconfiguration or a completion
#: before it gives up on the region.
MAX_WAIT_TICKS = 4000


def _wait_taskid(iface: int, expected_id: int):
    """Poll REG_TASKID until the target bitstream is resident.

    Returns :data:`RECONFIG_FAILED` when the register reads all-ones —
    the controller's way of reporting an aborted reconfiguration."""
    for _ in range(MAX_WAIT_TICKS):
        v = yield MmioRead(iface + REG_TASKID)
        if v is FAULTED:
            return FAULTED
        if v == expected_id:
            return True
        if v == TASKID_RECONFIG_FAILED:
            return RECONFIG_FAILED
        yield Delay(1)
    return False


def _program_and_wait(os: Ucos, iface: int, data_in: bytes, *,
                      sem: Semaphore | None, irq_id: int | None):
    """Stage data, program the register group, start, await completion."""
    yield SectionWrite(DATA_IN_OFF, data_in)
    src_pa = os.hwdata_pa + DATA_IN_OFF
    dst_pa = os.hwdata_pa + DATA_OUT_OFF

    r = yield MmioWrite(iface + REG_SRC, src_pa)
    if r is FAULTED:
        return FAULTED
    yield MmioWrite(iface + REG_LEN, len(data_in))
    yield MmioWrite(iface + REG_DST, dst_pa)
    use_irq = sem is not None and irq_id is not None
    yield MmioWrite(iface + REG_IRQ_EN, int(use_irq))
    if use_irq:
        yield BindIrqSem(irq_id, sem)
    r = yield MmioWrite(iface + REG_CTRL, CTRL_START)
    if r is FAULTED:
        return FAULTED

    if use_irq:
        status = int(PrrStatus.BUSY)
        for _ in range(4):
            # Bounded re-pend loop: a *spurious* DONE IRQ (fault injection,
            # or a shared line) wakes us while the task is still BUSY — a
            # correct client re-waits instead of reading garbage.
            yield SemPend(sem, timeout_ticks=MAX_WAIT_TICKS)
            status = yield MmioRead(iface + REG_STATUS)
            if status is FAULTED:
                return FAULTED
            if status != int(PrrStatus.BUSY):
                break
            _note_client_rewait(os)
    else:
        status = int(PrrStatus.BUSY)
        for _ in range(MAX_WAIT_TICKS):
            status = yield MmioRead(iface + REG_STATUS)
            if status is FAULTED:
                return FAULTED
            if status != int(PrrStatus.BUSY):
                break
            yield Delay(1)

    if status != int(PrrStatus.DONE):
        return (status, b"")
    outlen = yield MmioRead(iface + REG_OUTLEN)
    if outlen is FAULTED:
        return FAULTED
    output = yield SectionRead(DATA_OUT_OFF, outlen)
    return (status, output)


def _note_client_rewait(os: Ucos) -> None:
    """Book a spurious-wake re-wait (woken while the task is still BUSY)
    in the kernel's obs layer — the ``client_rewait`` recovery path of
    the fault-site registry (no-op in the native port)."""
    kernel = getattr(getattr(os, "port", None), "kernel", None)
    if kernel is None:
        return
    kernel.metrics.counter("recovery.client_rewaits").inc()


def _note_sw_fallback(os: Ucos, kind: str) -> None:
    """Book a hardware->software degradation in the kernel's obs layer
    (no-op in the native port, which runs without a kernel)."""
    kernel = getattr(getattr(os, "port", None), "kernel", None)
    if kernel is None:
        return
    kernel.metrics.counter("recovery.sw_fallbacks").inc()
    kernel.tracer.mark("sw_fallback", cat="fault", kind=kind)


def _brownout_reroute(os: Ucos, kind: str) -> bool:
    """Should a *best-effort* task skip the fabric right now?

    True iff a :class:`~repro.hwmgr.brownout.BrownoutController` is
    attached and active: the caller goes straight to the bit-identical
    software path (O5), counted in ``recovery.brownout_reroutes``."""
    kernel = getattr(getattr(os, "port", None), "kernel", None)
    if kernel is None or kernel.brownout is None \
            or not kernel.brownout.active:
        return False
    kernel.metrics.counter("recovery.brownout_reroutes").inc()
    kernel.tracer.mark("brownout_reroute", cat="fault", kind=kind)
    return True


def _adaptive_run(os: Ucos, kind: str, task_table_id: int, task_name: str,
                  data_in: bytes, software, *,
                  besteffort: bool) -> Generator:
    """Fabric first, CPU fallback: the body of every adaptive API.

    The fabric gets two polled attempts.  ``software()`` returns the
    fallback's ``(WorkProfile, output)``; the profile's CPU cost is
    charged before the output is handed back."""
    if besteffort and _brownout_reroute(os, kind):
        # Brownout: the fabric is saturated, so best-effort work takes
        # the software path immediately — same bytes, no PRR queueing.
        handle = HwTaskHandle(status=HcStatus.BUSY)
    else:
        handle = yield from hw_task_run(os, task_table_id, task_name,
                                        data_in, max_retries=2)
    if handle.status == HcStatus.SUCCESS:
        return handle

    _note_sw_fallback(os, kind)
    prof, output = software()
    yield Compute(prof.instrs, prof.mem_accesses,
                  ((GL.USER_BASE + 0x20000, prof.ws_bytes),),
                  prof.write_frac)
    handle.status = HcStatus.SUCCESS
    handle.prr_id = None
    handle.output = output
    return handle


def fft_compute(os: Ucos, task_table_id: int, task_name: str,
                data_in: bytes) -> Generator:
    """Adaptive FFT: try the fabric, fall back to the CPU when it is busy.

    This is the hardware/software co-execution the paper's introduction
    motivates ("dynamically dispatch and manage hardware accelerators as
    flexible software functions"): when no PRR can take the task, the same
    transform runs as a software radix-2 FFT with its CPU cost charged
    through the workload profile.  Returns an :class:`HwTaskHandle` whose
    ``output`` is bit-compatible either way; ``prr_id`` is None for the
    software path.
    """
    from ..dsp import fft as fft_golden
    from ..workloads.profiles import fft_sw_profile
    import numpy as np

    def software():
        n = int(task_name[3:])
        x = np.frombuffer(data_in, dtype=np.complex64)[:n]
        return fft_sw_profile(n), fft_golden.fft(x).tobytes()

    return (yield from _adaptive_run(
        os, "fft", task_table_id, task_name, data_in, software,
        besteffort=False))


def qam_compute(os: Ucos, task_table_id: int, task_name: str,
                data_in: bytes, *, besteffort: bool = False) -> Generator:
    """Adaptive QAM modulation: fabric first, CPU fallback on HW failure.

    The software path is bit-compatible with the ``qamN`` IP core (both
    share the :mod:`repro.dsp.qam` golden model); its CPU cost is charged
    through :func:`repro.workloads.profiles.qam_sw_profile`.  ``prr_id``
    is None on the software path, as for :func:`fft_compute`.  A
    ``besteffort`` call skips the fabric while a brownout is active.
    """
    from ..dsp import qam as qam_golden
    from ..workloads.profiles import qam_sw_profile

    def software():
        order = int(task_name[3:])
        symbols = qam_golden.pack_bits_to_symbols(data_in, order)
        return (qam_sw_profile(order, len(data_in)),
                qam_golden.modulate(symbols, order).tobytes())

    return (yield from _adaptive_run(
        os, "qam", task_table_id, task_name, data_in, software,
        besteffort=besteffort))
