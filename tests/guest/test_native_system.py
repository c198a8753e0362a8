"""Native (bare-metal) system: boot, direct IRQs, in-OS manager calls."""

import pytest

from repro.common.errors import DeviceError
from repro.common.units import ms_to_cycles
from repro.guest import layout_guest as GL
from repro.guest.actions import Compute, Delay, Finish, HwRequest, Hypercall
from repro.guest.ports.native import NativeSystem
from repro.guest.ucos import Ucos
from repro.kernel.hypercalls import Hc, HcStatus
from repro.machine import Machine, MachineConfig


@pytest.fixture
def native(small_machine):
    os_ = Ucos("nat", tick_hz=100)
    sys_ = NativeSystem(small_machine, os_)
    sys_.boot()
    return small_machine, os_, sys_


def test_run_requires_boot(small_machine):
    sys_ = NativeSystem(small_machine, Ucos("x"))
    with pytest.raises(DeviceError):
        sys_.run(until_cycles=100)


def test_ticks_fire_directly(native):
    machine, os_, sys_ = native

    def spinner(os):
        while True:
            yield Compute(20_000, 100, ((GL.USER_BASE, 8192),))

    os_.create_task("spin", 5, spinner)
    sys_.run(until_cycles=ms_to_cycles(55))
    assert os_.stats.ticks >= 4          # 100 Hz over 55 ms
    assert machine.metrics.total("kernel.irq_entries") >= 4


def test_vfp_always_enabled(native):
    machine, os_, sys_ = native
    assert machine.cpu.vfp.enabled
    sys_.vfp(100)                        # must not trap


def test_hypercall_emulation_timer_set(native):
    machine, os_, sys_ = native
    done = []

    def task(os):
        r = yield Hypercall(int(Hc.HWDATA_DEFINE), (GL.HWDATA_VA, 4096))
        done.append(r)
        yield Finish()

    os_.create_task("t", 5, task)
    sys_.run(until=lambda: bool(done), until_cycles=ms_to_cycles(50))
    assert done == [os_.hwdata_pa]


def test_hw_request_is_synchronous_function_call(native):
    machine, os_, sys_ = native
    results = []

    def task(os):
        res = yield HwRequest(task_id=2, iface_va=GL.PRR_IFACE_VA,
                              data_va=GL.HWDATA_VA)
        results.append(res)
        yield Finish()

    os_.create_task("t", 5, task)
    t0 = machine.now
    sys_.run(until=lambda: bool(results), until_cycles=ms_to_cycles(100))
    status, prr_id, irq_id = results[0]
    assert status in (HcStatus.SUCCESS, HcStatus.RECONFIG)
    assert prr_id is not None
    # Entry/exit are zero by construction: trap and start marks coincide.
    traps = [e for e in sys_.tracer.events if e.name == "hwreq_trap"]
    starts = [e for e in sys_.tracer.events if e.name == "mgr_exec_start"]
    assert traps[0].t == starts[0].t


def test_native_halts_when_tasks_done(native):
    machine, os_, sys_ = native

    def task(os):
        yield Compute(1000, 0)
        yield Finish()

    os_.create_task("t", 5, task)
    sys_.run(until_cycles=ms_to_cycles(30))
    assert sys_.halted
    # Halted, it idles exactly to the deadline, between two 10 ms ticks.
    sys_.run(until_cycles=ms_to_cycles(35))
    assert sys_.sim.now == ms_to_cycles(35)


def test_iface_addr_is_physical(native):
    machine, os_, sys_ = native
    assert sys_.iface_addr(2, 0x9999_0000) == machine.prr_reg_page_paddr(2)


@pytest.mark.parametrize("fastpath", [True, False])
def test_runaway_run_still_raises(fastpath):
    """Spun idle chunks count against ``max_iterations``: a run whose only
    task sleeps forever raises after about that many chunks, on either
    path, instead of idling on to the next bound."""
    from repro.common.errors import GuestPanic
    from repro.common.params import DEFAULT_PARAMS

    machine = Machine(MachineConfig(tasks=("fft256",),
                                    params=DEFAULT_PARAMS.with_(
                                        fastpath=fastpath)))
    os_ = Ucos("nat", tick_hz=100)
    sys_ = NativeSystem(machine, os_)
    sys_.boot()

    def sleeper(os):
        yield Delay(10**9)

    os_.create_task("sleeper", 5, sleeper)
    with pytest.raises(GuestPanic, match="max_iterations"):
        sys_.run(max_iterations=2000)
    # 2000 idle chunks of ~6000 cycles, plus at most one tick period of
    # overshoot by the last spin.
    assert machine.now < 2000 * 6100 + ms_to_cycles(10)
