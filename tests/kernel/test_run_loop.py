"""Kernel dispatch loop: quantum rotation, virtual timers, deferred vIRQs."""

import pytest

from repro.common.units import ms_to_cycles
from repro.kernel import layout as L
from repro.kernel.core import KernelConfig, MiniNova
from repro.kernel.exits import ExitHypercall, ExitIdle, ExitShutdown
from repro.kernel.hypercalls import Hc


class ChunkRunner:
    """Runs fixed-size chunks forever; records when it was scheduled."""

    def __init__(self, chunk_instr=50_000):
        self.chunk_instr = chunk_instr
        self.schedule_log = []
        self.virqs = []
        self.steps = 0
        self.boot = []            # optional boot hypercalls

    def bind(self, kernel, pd):
        self.kernel, self.pd = kernel, pd

    def step(self, budget):
        if self.boot:
            return ExitHypercall(*self.boot.pop(0))
        self.steps += 1
        self.schedule_log.append(self.kernel.now)
        start = self.kernel.now
        while self.kernel.now - start < budget:
            self.kernel.cpu.instr(self.chunk_instr)
            if self.kernel.poll():
                return None
        return None

    def deliver_virq(self, irq):
        self.virqs.append((self.kernel.now, irq))

    def complete_hypercall(self, exit_):
        pass


@pytest.fixture
def kernel(small_machine):
    k = MiniNova(small_machine, KernelConfig(quantum_ms=1.0))  # fast quanta
    k.boot()
    return k


def test_round_robin_share_with_quantum(kernel, small_machine):
    r1, r2 = ChunkRunner(), ChunkRunner()
    kernel.create_vm("a", r1)
    kernel.create_vm("b", r2)
    kernel.run(until_cycles=ms_to_cycles(10))
    # Both ran, interleaved by the 1 ms quantum.
    assert r1.steps > 2 and r2.steps > 2
    assert kernel.vm_switch_count >= 8
    assert kernel.metrics.total("sched.rotations") >= 8


def test_single_vm_quantum_rearms_timer(kernel, small_machine):
    r = ChunkRunner()
    kernel.create_vm("a", r)
    kernel.run(until_cycles=ms_to_cycles(5))
    # Timer kept firing (one per quantum) even with no switch target.
    assert small_machine.private_timer.fired >= 4


def test_vtimer_ticks_delivered(kernel):
    r = ChunkRunner()
    tick = ms_to_cycles(0.5)
    r.boot = [(int(Hc.VIRQ_REGISTER), (0x8040, 29)),
              (int(Hc.TIMER_SET), (tick,))]
    kernel.create_vm("a", r)
    kernel.run(until_cycles=ms_to_cycles(6))
    ticks = [irq for _, irq in r.virqs if irq == 29]
    assert len(ticks) >= 8        # ~12 expected at 0.5 ms over 6 ms


def test_vtimer_paused_while_vm_inactive(kernel):
    """Virtual time: a VM's tick count reflects its CPU share, not wall
    time (the paper's 'IRQ waits until the VM is scheduled')."""
    fast = ChunkRunner()
    tick = ms_to_cycles(0.5)
    fast.boot = [(int(Hc.VIRQ_REGISTER), (0x8040, 29)),
                 (int(Hc.TIMER_SET), (tick,))]
    other = ChunkRunner()
    kernel.create_vm("a", fast)
    kernel.create_vm("b", other)
    kernel.run(until_cycles=ms_to_cycles(10))
    ticks = len([1 for _, irq in fast.virqs if irq == 29])
    # VM 'a' ran ~5 ms of the 10 ms -> ~10 ticks, definitely not ~20.
    assert 4 <= ticks <= 14


def test_idle_exit_suspends_service(kernel):
    class Service(ChunkRunner):
        def step(self, budget):
            return ExitIdle()

    svc = Service()
    pd = kernel.create_vm("svc", svc, priority=2)
    guest = ChunkRunner()
    kernel.create_vm("a", guest)
    kernel.run(until_cycles=ms_to_cycles(3))
    from repro.kernel.pd import PdState
    assert pd.state is PdState.SUSPENDED
    assert guest.steps > 0


def test_shutdown_removes_vm(kernel):
    class OneShot(ChunkRunner):
        def step(self, budget):
            return ExitShutdown()

    r = OneShot()
    pd = kernel.create_vm("a", r)
    kernel.run(until_cycles=ms_to_cycles(2))
    from repro.kernel.pd import PdState
    assert pd.state is PdState.DEAD


def test_irq_entries_count_spurious_acks_and_irqs_do_not(kernel):
    """``kernel.irq_entries`` books every IRQ exception entry, and
    ``kernel.irqs`` only those the GIC acknowledged with an ID."""
    m = kernel.metrics
    kernel._handle_physical_irq()         # nothing pending: a spurious ACK
    assert m.total("kernel.irq_entries") == 1
    assert m.total("kernel.irqs") == 0
    kernel.create_vm("vm1", ChunkRunner())
    kernel.run(until_cycles=ms_to_cycles(5))
    assert m.total("kernel.irqs") >= 4    # the 1 ms quantum timer
    assert m.total("kernel.irq_entries") == m.total("kernel.irqs") + 1


def test_run_requires_boot(small_machine):
    from repro.common.errors import DeviceError
    k = MiniNova(small_machine)
    with pytest.raises(DeviceError):
        k.run(until_cycles=100)


def test_higher_priority_vm_monopolizes(kernel):
    hi, lo = ChunkRunner(), ChunkRunner()
    kernel.create_vm("hi", hi, priority=3)
    kernel.create_vm("lo", lo, priority=1)
    kernel.run(until_cycles=ms_to_cycles(5))
    assert hi.steps > 0
    assert lo.steps == 0


def test_unhandled_fault_kills_vm(kernel):
    from repro.common.errors import DataAbort
    from repro.kernel.exits import ExitFault

    class Faulty(ChunkRunner):
        def step(self, budget):
            return ExitFault(DataAbort(0xDEAD0000, "test"))
        # no deliver_fault attribute -> kernel kills the VM
    f = Faulty()
    f.deliver_fault = None
    pd = kernel.create_vm("bad", f)
    other = ChunkRunner()
    kernel.create_vm("good", other)
    # deliver_fault None means getattr finds None -> kill path.  The kill
    # is *contained*: no host exception, and the other VM keeps running.
    kernel.run(until_cycles=ms_to_cycles(2))
    from repro.kernel.pd import PdState
    assert pd.state is PdState.DEAD
    assert other.steps > 0
    assert kernel.metrics.counter("kernel.vm_kills").value == 1
    assert kernel.tracer.count("vm_killed") == 1


def test_fault_forwarded_to_guest_handler(kernel):
    from repro.common.errors import DataAbort
    from repro.kernel.exits import ExitFault

    class FaultOnce(ChunkRunner):
        def __init__(self):
            super().__init__()
            self.faulted = []
            self.sent = False

        def step(self, budget):
            if not self.sent:
                self.sent = True
                return ExitFault(DataAbort(0x9000_0000, "reclaimed page"))
            return super().step(budget)

        def deliver_fault(self, fault):
            self.faulted.append(fault)

    r = FaultOnce()
    kernel.create_vm("a", r)
    kernel.run(until_cycles=ms_to_cycles(2))
    assert len(r.faulted) == 1
    assert r.steps > 0      # VM survived and kept running


def test_idle_kernel_stops_at_its_deadline():
    """With nothing runnable the run idles up to ``until_cycles`` — it
    neither stops short nor jumps to a later event — and books the whole
    stretch as idle."""
    from repro.eval.scenarios import build_virtualized
    sc = build_virtualized(0, seed=1)
    sc.run_ms(5)
    k = sc.kernel
    assert k.sim.now == ms_to_cycles(5) == 3_300_000
    assert k.metrics.total("sim.idle_cycles") == 3_300_000
    k.acct.settle()
    assert k.acct.idle_cycles == 3_300_000
    assert k.acct.total_accounted() == k.sim.now - k.acct.start_cycle

    k = build_virtualized(0, seed=1).kernel
    fired = []
    k.sim.schedule_at(10_000_000, fired.append, "late")
    k.run(until_cycles=1_000_000)
    assert k.sim.now == 1_000_000
    assert fired == [] and k.sim.pending_count == 1
    k.run(until_cycles=12_000_000)
    assert fired == ["late"] and k.sim.now == 12_000_000
