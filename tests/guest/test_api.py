"""Guest hardware-task API driven by a scripted port (no hypervisor).

Exercises the client-protocol corner cases in isolation: BUSY retry,
reconfiguration wait, FAULTED recovery after reclaim, status-poll vs IRQ
completion, and the software-fallback path of fft_compute.
"""

import numpy as np
import pytest

from repro.dsp import fft as fft_golden
from repro.fpga.controller import task_id_of
from repro.fpga.prr import PrrStatus, REG_CTRL, REG_OUTLEN, REG_STATUS, REG_TASKID
from repro.guest import api
from repro.guest.actions import (
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
from repro.guest.ucos import Semaphore, Ucos
from repro.kernel.hypercalls import HcStatus


class ScriptedOs:
    """Stand-in Ucos: just the attributes the API generators use."""

    def __init__(self):
        self.hwdata_pa = 0x0100_0000
        self.port = self

    def iface_addr(self, prr_id, requested_va):
        return requested_va


def drive(gen, script):
    """Run an API generator, answering each yielded action from `script`
    (a list of (predicate, response) pairs consumed in order).  Returns
    the generator's return value."""
    trace = []
    try:
        action = next(gen)
        while True:
            trace.append(action)
            if not script:
                raise AssertionError(f"script exhausted at {action}")
            response = script.pop(0)(action)
            action = gen.send(response)
    except StopIteration as stop:
        return stop.value, trace


def _expect(cls, reply=None, **fields):
    def fn(action):
        assert isinstance(action, cls), f"expected {cls.__name__}, got {action}"
        for k, v in fields.items():
            assert getattr(action, k) == v, (k, getattr(action, k), v)
        return reply(action) if callable(reply) else reply
    return fn


TASKID = task_id_of("fft256")
DATA = bytes(256 * 8)


def happy_path_script(status=HcStatus.SUCCESS, outlen=2048):
    return [
        _expect(HwRequest, (status, 0, None)),
        _expect(MmioRead, TASKID),                 # REG_TASKID poll
        _expect(SectionWrite, None),
        _expect(MmioWrite, None),                  # SRC
        _expect(MmioWrite, None),                  # LEN
        _expect(MmioWrite, None),                  # DST
        _expect(MmioWrite, None),                  # IRQ_EN
        _expect(MmioWrite, None),                  # CTRL start
        _expect(MmioRead, int(PrrStatus.DONE)),    # status poll
        _expect(MmioRead, outlen),                 # OUTLEN
        _expect(SectionRead, b"\x11" * outlen),
    ]


def test_happy_path_poll_mode():
    os_ = ScriptedOs()
    gen = api.hw_task_run(os_, 1, "fft256", DATA)
    handle, trace = drive(gen, happy_path_script())
    assert handle.status == HcStatus.SUCCESS
    assert handle.prr_id == 0
    assert handle.output == b"\x11" * 2048
    assert not handle.reconfigured


def test_busy_retries_then_succeeds():
    os_ = ScriptedOs()
    gen = api.hw_task_run(os_, 1, "fft256", DATA, max_retries=3)
    script = [
        _expect(HwRequest, (HcStatus.BUSY, None, None)),
        _expect(Delay, None),
    ] + happy_path_script()
    handle, _ = drive(gen, script)
    assert handle.status == HcStatus.SUCCESS
    assert handle.retries == 1


def test_busy_exhausts_retries():
    os_ = ScriptedOs()
    gen = api.hw_task_run(os_, 1, "fft256", DATA, max_retries=2)
    script = [
        _expect(HwRequest, (HcStatus.BUSY, None, None)),
        _expect(Delay, None),
        _expect(HwRequest, (HcStatus.BUSY, None, None)),
        _expect(Delay, None),
    ]
    handle, _ = drive(gen, script)
    assert handle.status == HcStatus.BUSY
    assert handle.retries == 2


def test_reconfig_waits_for_taskid():
    os_ = ScriptedOs()
    gen = api.hw_task_run(os_, 1, "fft256", DATA)
    script = [
        _expect(HwRequest, (HcStatus.RECONFIG, 1, None)),
        _expect(MmioRead, 0),            # still reconfiguring
        _expect(Delay, None),
        _expect(MmioRead, 0),
        _expect(Delay, None),
        _expect(MmioRead, TASKID),       # landed
    ] + happy_path_script()[2:]          # continue from SectionWrite
    handle, _ = drive(gen, script)
    assert handle.status == HcStatus.SUCCESS
    assert handle.reconfigured


def test_faulted_mid_programming_rerequests():
    """A reclaim between request and use: MMIO faults, the API re-requests."""
    os_ = ScriptedOs()
    gen = api.hw_task_run(os_, 1, "fft256", DATA, max_retries=4)
    script = [
        _expect(HwRequest, (HcStatus.SUCCESS, 0, None)),
        _expect(MmioRead, FAULTED),      # interface page already gone
    ] + happy_path_script()
    handle, _ = drive(gen, script)
    assert handle.status == HcStatus.SUCCESS
    assert handle.retries == 1


def test_irq_mode_uses_semaphore():
    os_ = ScriptedOs()
    sem = Semaphore(name="s")
    gen = api.hw_task_run(os_, 1, "fft256", DATA, sem=sem)
    script = [
        _expect(HwRequest, (HcStatus.SUCCESS, 2, 63), want_irq=True),
        _expect(MmioRead, TASKID),
        _expect(SectionWrite, None),
        _expect(MmioWrite, None),
        _expect(MmioWrite, None),
        _expect(MmioWrite, None),
        _expect(MmioWrite, None),        # IRQ_EN = 1
        _expect(BindIrqSem, True, irq_id=63),
        _expect(MmioWrite, None),        # CTRL
        _expect(SemPend, True),
        _expect(MmioRead, int(PrrStatus.DONE)),
        _expect(MmioRead, 64),
        _expect(SectionRead, b"\x00" * 64),
    ]
    handle, _ = drive(gen, script)
    assert handle.status == HcStatus.SUCCESS
    assert handle.irq_id == 63


def test_hw_error_status_propagates():
    os_ = ScriptedOs()
    gen = api.hw_task_run(os_, 1, "fft256", DATA)
    script = happy_path_script()
    script[8] = _expect(MmioRead, int(PrrStatus.ERR_BOUNDS))
    handle, _ = drive(gen, script[:9])
    assert handle.status == HcStatus.ERR_STATE


def test_fft_compute_software_fallback():
    os_ = ScriptedOs()
    rng = np.random.default_rng(9)
    x = (rng.standard_normal(256) + 1j * rng.standard_normal(256)).astype(np.complex64)
    gen = api.fft_compute(os_, 1, "fft256", x.tobytes())
    script = [
        _expect(HwRequest, (HcStatus.BUSY, None, None)),
        _expect(Delay, None),
        _expect(HwRequest, (HcStatus.BUSY, None, None)),
        _expect(Delay, None),
        _expect(Compute, None),      # the software FFT's CPU cost
    ]
    handle, _ = drive(gen, script)
    assert handle.status == HcStatus.SUCCESS
    assert handle.prr_id is None     # software path
    got = np.frombuffer(handle.output, dtype=np.complex64)
    assert np.allclose(got, fft_golden.fft(x), rtol=1e-3, atol=1e-2)


