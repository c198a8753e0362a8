"""uC/OS-II core semantics: scheduling, delays, semaphores, ISRs.

Driven through a minimal in-test port so the OS logic is isolated from
the hypervisor/native machinery.
"""

import pytest

from repro.common.params import DEFAULT_PARAMS
from repro.cpu.core import Cpu
from repro.guest import layout_guest as GL
from repro.guest.actions import (
    BindIrqSem,
    Compute,
    Delay,
    Finish,
    SemPend,
    SemPost,
)
from repro.guest.exec import GuestExecutor
from repro.guest.ucos import IDLE_PRIO, TaskState, Ucos
from repro.mem.descriptors import AP, DomainType, dacr_set
from repro.mem.ptables import PageTable
from repro.mem.system import MemorySystem
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Simulator


class MiniPort:
    """Just enough port for OS-internal actions."""

    def __init__(self):
        metrics = MetricsRegistry()
        sim, mem = Simulator(metrics), MemorySystem(DEFAULT_PARAMS, metrics)
        cpu = Cpu(sim, mem, DEFAULT_PARAMS)
        pt = PageTable(mem.bus, mem.kernel_frames)
        # Flat privileged space covering the guest layout.
        for mb in range(0, 16):
            pt.map_section(mb << 20, 0x0010_0000 + (mb << 20),
                           ap=AP.FULL, domain=0)
        cpu.sysregs.write("TTBR0", pt.l1_base, privileged=True)
        cpu.sysregs.write("DACR", dacr_set(0, 0, DomainType.CLIENT),
                          privileged=True)
        cpu.sysregs.write("SCTLR", 1, privileged=True)
        self.cpu = cpu
        self.sim = sim
        self.exec = GuestExecutor(cpu, addr_base=0)

    def do_hypercall(self, tcb, num, args):
        tcb.inbox, tcb.has_inbox = 0, True
        return ("ran", None)

    def vfp(self, instrs):
        self.cpu.instr(instrs)


@pytest.fixture
def os_():
    os_ = Ucos("t")
    os_.port = MiniPort()
    return os_


def drain(os_, n=100):
    """Run up to n actions; returns the exit kinds seen."""
    kinds = []
    for _ in range(n):
        kind, _ = os_.run_one_action()
        kinds.append(kind)
        if kind == "halt":
            break
    return kinds


def test_idle_task_created_automatically(os_):
    assert IDLE_PRIO in os_.tasks
    assert os_.tasks[IDLE_PRIO].name == "idle"


def test_priority_uniqueness_enforced(os_):
    os_.create_task("a", 5, lambda os: iter(()))
    with pytest.raises(Exception):
        os_.create_task("b", 5, lambda os: iter(()))


def test_highest_priority_runs_first(os_):
    order = []

    def mk(tag):
        def fn(os):
            order.append(tag)
            yield Finish()
        return fn

    os_.create_task("lo", 20, mk("lo"))
    os_.create_task("hi", 3, mk("hi"))
    drain(os_, 10)
    assert order == ["hi", "lo"]


def test_strict_priority_starves_lower_priority_across_ticks(os_):
    """Ticks do not time-slice between priorities: a higher-priority
    task that never blocks keeps the CPU and the lower one never runs."""
    log = []

    def spinner(tag, n):
        def fn(os):
            for _ in range(n):
                log.append(tag)
                yield Compute(5_000, 20, ((GL.USER_BASE, 8192),))
            yield Finish()
        return fn

    os_.create_task("a", 5, spinner("a", 100))
    os_.create_task("b", 6, spinner("b", 20))
    for i in range(25):
        if i % 2 == 0:
            os_.pending_irqs.append(GL.TICK_IRQ)
            os_.handle_pending_irqs()
        os_.run_one_action()
    assert log.count("a") > 0 and log.count("b") == 0


def test_delay_blocks_until_ticks(os_):
    log = []

    def fn(os):
        log.append("start")
        yield Delay(3)
        log.append("woke")
        yield Finish()

    os_.create_task("t", 5, fn)
    os_.run_one_action()                     # runs to the Delay
    assert os_.tasks[5].state is TaskState.DELAYED
    for _ in range(2):
        os_.pending_irqs.append(GL.TICK_IRQ)
        os_.handle_pending_irqs()
        assert os_.tasks[5].state is TaskState.DELAYED
    os_.pending_irqs.append(GL.TICK_IRQ)
    os_.handle_pending_irqs()
    assert os_.tasks[5].state is TaskState.READY
    drain(os_, 5)
    assert log == ["start", "woke"]
    assert os_.stats.ticks == 3


def test_sem_pend_post_between_tasks(os_):
    sem = os_.create_semaphore("s")
    log = []

    def consumer(os):
        got = yield SemPend(sem)
        log.append(("consumed", got))
        yield Finish()

    def producer(os):
        yield Compute(100, 0)
        yield SemPost(sem)
        log.append(("posted",))
        yield Finish()

    os_.create_task("consumer", 5, consumer)     # higher priority
    os_.create_task("producer", 10, producer)
    drain(os_, 20)
    assert ("consumed", True) in log
    # Preemption: the higher-priority consumer runs at the post, *before*
    # the producer gets to continue past it.
    assert log.index(("consumed", True)) < log.index(("posted",))


def test_sem_with_initial_count_doesnt_block(os_):
    sem = os_.create_semaphore("s", count=1)
    log = []

    def fn(os):
        got = yield SemPend(sem)
        log.append(got)
        yield Finish()

    os_.create_task("t", 5, fn)
    drain(os_, 5)
    assert log == [True]
    assert sem.count == 0


def test_sem_timeout(os_):
    sem = os_.create_semaphore("s")
    log = []

    def fn(os):
        got = yield SemPend(sem, timeout_ticks=2)
        log.append(got)
        yield Finish()

    os_.create_task("t", 5, fn)
    os_.run_one_action()
    for _ in range(2):
        os_.pending_irqs.append(GL.TICK_IRQ)
        os_.handle_pending_irqs()
    drain(os_, 5)
    assert log == [False]                       # timed out
    assert not sem.waiters


def test_sem_wakes_highest_priority_waiter(os_):
    sem = os_.create_semaphore("s")
    woken = []

    def mk(tag):
        def fn(os):
            yield SemPend(sem)
            woken.append(tag)
            yield Finish()
        return fn

    os_.create_task("lo", 20, mk("lo"))
    os_.create_task("hi", 4, mk("hi"))
    drain(os_, 4)          # both pend
    os_._sem_post(sem)
    drain(os_, 4)
    assert woken == ["hi"]


def test_isr_posts_bound_semaphore(os_):
    sem = os_.create_semaphore("hw")
    log = []

    def fn(os):
        yield BindIrqSem(61, sem)
        got = yield SemPend(sem)
        log.append(got)
        yield Finish()

    os_.create_task("t", 5, fn)
    drain(os_, 3)
    assert os_.tasks[5].state is TaskState.PENDING
    os_.pending_irqs.append(61)               # hardware-task IRQ arrives
    os_.handle_pending_irqs()
    drain(os_, 5)
    assert log == [True]
    assert os_.stats.isr_count == 1


def test_unbound_irq_is_ignored(os_):
    os_.pending_irqs.append(77)
    os_.handle_pending_irqs()
    assert os_.stats.isr_count == 1           # ISR ran, nothing woke


def test_halt_when_all_app_tasks_done(os_):
    def fn(os):
        yield Compute(10, 0)
        yield Finish()

    os_.create_task("t", 5, fn)
    kinds = drain(os_, 20)
    assert kinds[-1] == "halt"


def test_context_switch_counted(os_):
    def mk():
        def fn(os):
            for _ in range(3):
                yield Delay(1)
            yield Finish()
        return fn

    os_.create_task("a", 5, mk())
    os_.create_task("b", 6, mk())
    for _ in range(10):
        os_.pending_irqs.append(GL.TICK_IRQ)
        os_.handle_pending_irqs()
        os_.run_one_action()
    assert os_.stats.ctx_switches >= 2


def test_compute_advances_sim_time(os_):
    def fn(os):
        yield Compute(10_000, 100, ((GL.USER_BASE, 4096),))
        yield Finish()

    os_.create_task("t", 5, fn)
    t0 = os_.port.sim.now
    os_.run_one_action()
    assert os_.port.sim.now > t0 + 7000   # at least the issue cycles
