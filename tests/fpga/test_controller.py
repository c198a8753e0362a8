"""PRR controller: register groups, task execution, hwMMU enforcement."""

import numpy as np
import pytest

from repro.dsp import fft as fft_golden
from repro.fpga.controller import (
    CTL_CLEAR,
    CTL_CLIENT,
    CTL_HWMMU_BASE,
    CTL_HWMMU_LIMIT,
    CTL_IRQ_LINE,
    CTL_STRIDE,
    PAGE,
    task_id_of,
)
from repro.fpga.ip import make_core
from repro.fpga.prr import (
    CTRL_RESET,
    CTRL_START,
    PrrStatus,
    REG_CTRL,
    REG_IRQ_EN,
    REG_LEN,
    REG_DST,
    REG_OUTLEN,
    REG_SRC,
    REG_STATUS,
    REG_TASKID,
)
from repro.gic.irqs import pl_irq


@pytest.fixture
def env(machine):
    """PRR0 loaded with fft256, hwMMU window over a DRAM scratch region."""
    ctl = machine.prr_controller
    ctl.finish_reconfig(0, make_core("fft256"))
    base = machine.mem.bus.dram.base + 0x0200_0000
    prr = machine.prrs[0]
    prr.hwmmu.base = base
    prr.hwmmu.limit = base + 0x10_0000
    return machine, ctl, prr, base


def regs(prr_id):
    return prr_id * PAGE


def run_fft(machine, ctl, base, n=256):
    rng = np.random.default_rng(7)
    x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(np.complex64)
    machine.mem.bus.dram.write_bytes(base, x.tobytes())
    ctl.mmio_write(regs(0) + REG_SRC, base)
    ctl.mmio_write(regs(0) + REG_LEN, n * 8)
    ctl.mmio_write(regs(0) + REG_DST, base + 0x8_0000)
    ctl.mmio_write(regs(0) + REG_CTRL, CTRL_START)
    return x


def test_full_task_execution(env):
    machine, ctl, prr, base = env
    x = run_fft(machine, ctl, base)
    assert ctl.mmio_read(regs(0) + REG_STATUS) == PrrStatus.BUSY
    machine.sim.advance_to_next_event()
    assert ctl.mmio_read(regs(0) + REG_STATUS) == PrrStatus.DONE
    outlen = ctl.mmio_read(regs(0) + REG_OUTLEN)
    got = np.frombuffer(machine.mem.bus.dram.read_bytes(base + 0x8_0000, outlen),
                        dtype=np.complex64)
    assert np.allclose(got, fft_golden.fft(x), rtol=1e-3, atol=1e-2)
    assert machine.metrics.total("prr.runs", prr=0) == 1


def test_completion_takes_modelled_time(env):
    machine, ctl, prr, base = env
    run_fft(machine, ctl, base)
    t0 = machine.now
    machine.sim.advance_to_next_event()
    elapsed = machine.now - t0
    assert elapsed > 1000      # DMA + pipeline latency on the CPU timebase


def test_irq_raised_when_enabled(env):
    machine, ctl, prr, base = env
    prr.irq_line = 3
    ctl.mmio_write(regs(0) + REG_IRQ_EN, 1)
    machine.gic.set_enable(pl_irq(3), True)
    run_fft(machine, ctl, base)
    machine.sim.advance_to_next_event()
    assert machine.gic.pending[pl_irq(3)]


def test_no_irq_when_disabled(env):
    machine, ctl, prr, base = env
    prr.irq_line = 3
    ctl.mmio_write(regs(0) + REG_IRQ_EN, 0)
    run_fft(machine, ctl, base)
    machine.sim.advance_to_next_event()
    assert not machine.gic.pending[pl_irq(3)]


def test_hwmmu_blocks_src_outside_window(env):
    machine, ctl, prr, base = env
    ctl.mmio_write(regs(0) + REG_SRC, base - 0x1000)      # below window
    ctl.mmio_write(regs(0) + REG_LEN, 2048)
    ctl.mmio_write(regs(0) + REG_DST, base + 0x8_0000)
    ctl.mmio_write(regs(0) + REG_CTRL, CTRL_START)
    assert ctl.mmio_read(regs(0) + REG_STATUS) == PrrStatus.ERR_BOUNDS
    assert machine.metrics.total("prr.violations", prr=0) == 1
    # And nothing was scheduled.
    assert machine.metrics.total("prr.runs", prr=0) == 0


def test_hwmmu_blocks_dst_overrun(env):
    machine, ctl, prr, base = env
    ctl.mmio_write(regs(0) + REG_SRC, base)
    ctl.mmio_write(regs(0) + REG_LEN, 2048)
    # DST so close to the limit that the output would spill outside.
    ctl.mmio_write(regs(0) + REG_DST, prr.hwmmu.limit - 16)
    ctl.mmio_write(regs(0) + REG_CTRL, CTRL_START)
    assert ctl.mmio_read(regs(0) + REG_STATUS) == PrrStatus.ERR_BOUNDS


def test_hwmmu_empty_window_denies_everything(machine):
    ctl = machine.prr_controller
    ctl.finish_reconfig(1, make_core("qam16"))
    ctl.mmio_write(regs(1) + REG_SRC, machine.mem.bus.dram.base)
    ctl.mmio_write(regs(1) + REG_LEN, 64)
    ctl.mmio_write(regs(1) + REG_CTRL, CTRL_START)
    assert ctl.mmio_read(regs(1) + REG_STATUS) == PrrStatus.ERR_BOUNDS


def test_memory_untouched_after_hwmmu_block(env):
    machine, ctl, prr, base = env
    secret_addr = base - 0x1000
    machine.mem.bus.dram.write_bytes(secret_addr, b"\xAA" * 64)
    ctl.mmio_write(regs(0) + REG_SRC, base)
    ctl.mmio_write(regs(0) + REG_LEN, 2048)
    ctl.mmio_write(regs(0) + REG_DST, secret_addr)        # illegal target
    ctl.mmio_write(regs(0) + REG_CTRL, CTRL_START)
    machine.sim.run_until(machine.now + 10_000_000)
    assert machine.mem.bus.dram.read_bytes(secret_addr, 64) == b"\xAA" * 64


def test_start_with_no_task_errors(machine):
    ctl = machine.prr_controller
    ctl.mmio_write(regs(2) + REG_CTRL, CTRL_START)
    assert ctl.mmio_read(regs(2) + REG_STATUS) == PrrStatus.ERR_NOTASK


def test_start_while_busy_errors(env):
    machine, ctl, prr, base = env
    run_fft(machine, ctl, base)
    ctl.mmio_write(regs(0) + REG_CTRL, CTRL_START)
    assert ctl.mmio_read(regs(0) + REG_STATUS) == PrrStatus.ERR_NOTASK


def test_reset_cancels_inflight_run(env):
    machine, ctl, prr, base = env
    run_fft(machine, ctl, base)
    ctl.mmio_write(regs(0) + REG_CTRL, CTRL_RESET)
    machine.sim.run_until(machine.now + 100_000_000)
    assert machine.metrics.total("prr.runs", prr=0) == 0
    assert ctl.mmio_read(regs(0) + REG_STATUS) == PrrStatus.IDLE


def test_taskid_register(env):
    machine, ctl, prr, base = env
    assert ctl.mmio_read(regs(0) + REG_TASKID) == task_id_of("fft256")
    assert ctl.mmio_read(regs(1) + REG_TASKID) == 0      # nothing loaded


def test_control_page_fields(machine):
    ctl = machine.prr_controller
    page = len(machine.prrs) * PAGE
    ctl.mmio_write(page + 1 * CTL_STRIDE + CTL_HWMMU_BASE, 0x1000)
    ctl.mmio_write(page + 1 * CTL_STRIDE + CTL_HWMMU_LIMIT, 0x2000)
    ctl.mmio_write(page + 1 * CTL_STRIDE + CTL_IRQ_LINE, 5)
    ctl.mmio_write(page + 1 * CTL_STRIDE + CTL_CLIENT, 7)
    prr = machine.prrs[1]
    assert prr.hwmmu.base == 0x1000 and prr.hwmmu.limit == 0x2000
    assert prr.irq_line == 5 and prr.client_vm == 7
    assert ctl.mmio_read(page + 1 * CTL_STRIDE + CTL_HWMMU_BASE) == 0x1000
    ctl.mmio_write(page + 1 * CTL_STRIDE + CTL_CLIENT, 0xFFFF_FFFF)
    assert prr.client_vm is None


def test_reg_snapshot_for_consistency_protocol(env):
    machine, ctl, prr, base = env
    ctl.mmio_write(regs(0) + REG_SRC, 0x1234)
    snap = prr.reg_snapshot()
    assert snap["src"] == 0x1234
    assert set(snap) == {"status", "src", "len", "dst", "outlen", "irq_en"}


def test_task_id_of_stable_and_nonzero():
    assert task_id_of("fft256") == task_id_of("fft256")
    assert task_id_of("fft256") != task_id_of("fft512")
    for name in ("fft256", "qam4", "qam64"):
        assert 0 < task_id_of(name) <= 0xFFFF
