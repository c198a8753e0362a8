"""Controller watchdog: hung hardware tasks, spurious DONE IRQs."""

import numpy as np
import pytest

from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec, PRR_HANG, PRR_SPURIOUS_DONE
from repro.fpga.ip import make_core
from repro.fpga.prr import (
    CTRL_START,
    PrrStatus,
    REG_CTRL,
    REG_DST,
    REG_IRQ_EN,
    REG_LEN,
    REG_SRC,
    REG_STATUS,
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


def count(machine, name, prr):
    """Region ``prr``'s series of counter ``name``."""
    return machine.metrics.total(name, prr=prr.prr_id)


def arm(machine, specs):
    inj = FaultInjector(FaultPlan(specs))
    inj.attach(machine)
    return inj


def start_fft(machine, ctl, base, n=256):
    rng = np.random.default_rng(7)
    x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) \
        .astype(np.complex64)
    machine.mem.bus.dram.write_bytes(base, x.tobytes())
    ctl.mmio_write(REG_SRC, base)
    ctl.mmio_write(REG_LEN, n * 8)
    ctl.mmio_write(REG_DST, base + 0x8_0000)
    ctl.mmio_write(REG_CTRL, CTRL_START)


def test_hang_without_manager_recovers_locally(env):
    """No on_hang hook wired (bare-device use): the watchdog frees the
    region itself rather than leaving it BUSY forever."""
    machine, ctl, prr, base = env
    arm(machine, [FaultSpec(PRR_HANG)])
    start_fft(machine, ctl, base)
    assert prr.status is PrrStatus.BUSY
    machine.sim.run_until(machine.now + 500_000_000)
    assert prr.status is PrrStatus.ERR_NOTASK
    assert count(machine, "prr.hangs", prr) == 1
    assert count(machine, "prr.runs", prr) == 0   # the computation never landed
    assert machine.sim.pending_count == 0     # watchdog disarmed itself


def test_hang_with_manager_hook(env):
    """With on_hang wired the controller only detects; recovery policy
    (force-reclaim) belongs to the manager."""
    machine, ctl, prr, base = env
    arm(machine, [FaultSpec(PRR_HANG)])
    hung = []
    ctl.on_hang = hung.append
    start_fft(machine, ctl, base)
    machine.sim.run_until(machine.now + 500_000_000)
    assert hung == [0]
    assert count(machine, "prr.hangs", prr) == 1
    assert count(machine, "prr.runs", prr) == 0
    assert prr.status is PrrStatus.BUSY       # policy deferred to the hook


def test_watchdog_quiet_on_healthy_run(env):
    """Fault mode arms a watchdog on every start; a normal completion must
    disarm it (no stale-timer side effects afterwards)."""
    machine, ctl, prr, base = env
    arm(machine, [FaultSpec(PRR_HANG, after=10)])     # armed, never fires
    hung = []
    ctl.on_hang = hung.append
    start_fft(machine, ctl, base)
    machine.sim.run_until(machine.now + 500_000_000)
    assert prr.status is PrrStatus.DONE
    assert count(machine, "prr.runs", prr) == 1
    assert count(machine, "prr.hangs", prr) == 0 and hung == []


def test_spurious_done_irq_mid_computation(env):
    """The PRR raises its PL IRQ halfway through with status still BUSY; a
    correct client re-checks status and keeps waiting, and the real DONE
    still arrives afterwards."""
    machine, ctl, prr, base = env
    arm(machine, [FaultSpec(PRR_SPURIOUS_DONE)])
    prr.irq_line = 3
    machine.gic.set_enable(pl_irq(3), True)
    ctl.mmio_write(REG_IRQ_EN, 1)
    start_fft(machine, ctl, base)
    # First event is the spurious IRQ: status must still read BUSY.
    machine.sim.advance_to_next_event()
    assert machine.gic.pending[pl_irq(3)]
    assert ctl.mmio_read(REG_STATUS) == PrrStatus.BUSY
    assert count(machine, "prr.runs", prr) == 0
    # The genuine completion follows.
    machine.sim.run_until(machine.now + 500_000_000)
    assert prr.status is PrrStatus.DONE
    assert count(machine, "prr.runs", prr) == 1


def test_second_start_after_reclaim_is_clean(env):
    """After a local watchdog recovery the region accepts a fresh run."""
    machine, ctl, prr, base = env
    arm(machine, [FaultSpec(PRR_HANG, max_fires=1)])
    start_fft(machine, ctl, base)
    machine.sim.run_until(machine.now + 500_000_000)
    assert prr.status is PrrStatus.ERR_NOTASK
    start_fft(machine, ctl, base)
    machine.sim.run_until(machine.now + 500_000_000)
    assert prr.status is PrrStatus.DONE
    assert count(machine, "prr.runs", prr) == 1
    assert count(machine, "prr.hangs", prr) == 1
