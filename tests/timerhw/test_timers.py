"""Private/global timer models."""

import pytest

from repro.gic.gic import Gic
from repro.gic.irqs import IRQ_PRIVATE_TIMER
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Simulator
from repro.timerhw.timers import GlobalTimer, PT_CONTROL, PT_COUNTER, PT_LOAD, PrivateTimer


@pytest.fixture
def env():
    sim = Simulator(MetricsRegistry())
    gic = Gic()
    gic.set_enable(IRQ_PRIVATE_TIMER, True)
    return sim, gic, PrivateTimer(sim, gic)


def test_fires_at_deadline(env):
    sim, gic, t = env
    t.program(1000)
    sim.run_until(999)
    assert not gic.pending[IRQ_PRIVATE_TIMER]
    sim.run_until(1000)
    assert gic.pending[IRQ_PRIVATE_TIMER]
    assert t.fired == 1


def test_reprogram_cancels_previous(env):
    sim, gic, t = env
    t.program(100)
    t.program(1000)
    sim.run_until(500)
    assert not gic.pending[IRQ_PRIVATE_TIMER]
    sim.run_until(1000)
    assert t.fired == 1


def test_cancel(env):
    sim, gic, t = env
    t.program(100)
    t.cancel()
    sim.run_until(200)
    assert t.fired == 0
    assert t.remaining() is None


def test_remaining_counts_down(env):
    sim, _, t = env
    t.program(1000)
    sim.clock.advance(400)
    assert t.remaining() == 600
    assert t.armed


def test_mmio_interface(env):
    sim, gic, t = env
    t.mmio_write(PT_LOAD, 500)
    assert t.mmio_read(PT_CONTROL) == 1
    sim.clock.advance(100)
    assert t.mmio_read(PT_COUNTER) == 400
    t.mmio_write(PT_CONTROL, 0)    # disable
    sim.run_until(600)
    assert t.fired == 0


def test_global_timer_reads_clock():
    sim = Simulator(MetricsRegistry())
    g = GlobalTimer(sim)
    sim.clock.advance(12345)
    assert g.read() == 12345
    assert g.mmio_read(0) == 12345
    assert g.mmio_read(4) == 0
