"""vGIC edge cases around the VM lifecycle (docs/RECOVERY.md §9).

The dead-epoch rule and its boundaries: a vIRQ aimed at a suspended VM
waits; one aimed at a killed epoch is counted and dropped; a checkpoint
restore replays only the IVC class and drops stale timer/PL pends; a
resurrected epoch receives fresh vIRQs normally.
"""

import pytest

from repro.guest.actions import Delay
from repro.guest.ports.paravirt import ParavirtUcos
from repro.guest.ucos import Ucos
from repro.hwmgr.service import ManagerService
from repro.kernel.core import KernelConfig, MiniNova
from repro.kernel.exits import ExitHypercall
from repro.kernel.hypercalls import Hc, HcStatus
from repro.kernel.ivc import IVC_IRQ
from repro.kernel.lifecycle import VmPolicy
from repro.kernel.pd import PdState
from repro.machine import Machine, MachineConfig

VTIMER_IRQ = 29


def _spin(os):
    while True:
        yield Delay(1)


def _idle(name):
    """A guest that just ticks (keeps the scheduler busy, never exits;
    the spin task is re-creatable across a fresh restart)."""
    os_ = Ucos(name, tick_hz=100)
    os_.create_task("spin", 5, _spin)
    return os_


class StubSender:
    """Minimal runner for the *sender* VM: we issue its hypercalls
    synthetically, so completions are just recorded."""

    def bind(self, kernel, pd):
        self.kernel, self.pd = kernel, pd

    def step(self, budget):
        self.kernel.cpu.instr(10_000)
        return None

    def deliver_virq(self, irq):
        pass

    def complete_hypercall(self, exit_):
        pass


@pytest.fixture
def kernel():
    machine = Machine(MachineConfig(tasks=("fft256", "qam16")))
    k = MiniNova(machine, KernelConfig(quantum_ms=1.0))
    k.boot()
    k.attach_manager(ManagerService())
    k.create_vm("vma", ParavirtUcos(_idle("vma")))   # vm_id 2 (victim)
    k.create_vm("vmb", StubSender())                 # vm_id 3 (sender)
    k.run(until_cycles=machine.sim.now + 300_000)
    return k


def test_virq_into_suspended_vm_waits_for_resume(kernel):
    """A vIRQ pended while the target is SUSPENDED is neither lost nor
    dropped: it sits in the FIFO and is delivered once the VM runs."""
    pd = kernel.domains[2]
    kernel.sched.suspend(pd)
    assert pd.state is PdState.SUSPENDED
    pd.vgic.register(IVC_IRQ)
    pd.vgic.pend(IVC_IRQ)
    assert pd.vgic.pending_fifo() == [IVC_IRQ]

    def injected():
        return kernel.metrics.total("kernel.virq_injected", vm=pd.vm_id)

    before = injected()
    kernel.run(until_cycles=kernel.sim.now + 500_000)
    assert pd.vgic.pending_fifo() == [IVC_IRQ]       # still parked
    assert kernel.metrics.total("vm.lifecycle.virqs_dead_epoch") == 0
    kernel.sched.resume(pd)
    kernel.run(until_cycles=kernel.sim.now + 500_000)
    assert pd.vgic.pending_fifo() == []
    assert injected() == before + 1


def test_virq_to_dead_epoch_counted_and_dropped(kernel):
    """IVC notification aimed at a killed VM: sender gets ERR_ARG, the
    vIRQ is accounted to the dead epoch and never pended."""
    victim, sender = kernel.domains[2], kernel.domains[3]
    kernel.kill_vm(victim, reason="test")
    assert victim.vgic.dead
    exit_ = ExitHypercall(int(Hc.IVC_SEND), (2, 1, 2, 3, 4))
    kernel._handle_hypercall(sender, exit_)
    assert exit_.result == HcStatus.ERR_ARG
    assert kernel.metrics.total("vm.lifecycle.virqs_dead_epoch") == 1
    assert kernel.tracer.count("virq_dead_epoch") == 1
    assert victim.vgic.pending_fifo() == []


def test_dead_vgic_refuses_direct_pends(kernel):
    victim = kernel.domains[2]
    victim.vgic.register(IVC_IRQ)
    kernel.kill_vm(victim, reason="test")
    victim.vgic.pend(IVC_IRQ)                        # silently refused
    assert victim.vgic.pending_fifo() == []


def test_virq_during_pending_resurrection_dropped_then_new_epoch_receives(
        kernel):
    """The mid-restore window: between the kill and the resurrection
    event the old epoch is DEAD — vIRQs land on the dead-epoch counter.
    After the restore the *new* epoch receives vIRQs normally."""
    victim, sender = kernel.domains[2], kernel.domains[3]
    kernel.lifecycle.set_policy(2, VmPolicy(action="restart",
                                            max_restarts=1,
                                            backoff_cycles=200_000))
    kernel.kill_vm(victim, reason="test")
    assert kernel.lifecycle.marked_for_restart(2)

    exit_ = ExitHypercall(int(Hc.IVC_SEND), (2, 9, 9, 9, 9))
    kernel._handle_hypercall(sender, exit_)
    assert exit_.result == HcStatus.ERR_ARG
    assert kernel.metrics.total("vm.lifecycle.virqs_dead_epoch") == 1

    kernel.run(until_cycles=kernel.sim.now + 2_000_000)
    reborn = kernel.domains[2]
    assert reborn.epoch == 1 and reborn.state is not PdState.DEAD
    assert not reborn.vgic.dead
    # vm 2's count spans both epochs: it goes on, it does not restart.
    injected = kernel.metrics.total("kernel.virq_injected", vm=2)
    exit_ = ExitHypercall(int(Hc.IVC_SEND), (2, 5, 6, 7, 8))
    kernel._handle_hypercall(sender, exit_)
    assert exit_.result == HcStatus.SUCCESS
    kernel.run(until_cycles=kernel.sim.now + 3_000_000)
    assert kernel.metrics.total("kernel.virq_injected", vm=2) == injected + 1
    assert kernel.metrics.total("vm.lifecycle.virqs_dead_epoch") == 1


def test_restore_replays_ivc_and_drops_stale_classes(kernel):
    """Checkpoint with a mixed pending FIFO: on restore the IVC
    notification is replayed, the stale virtual-timer pend is dropped
    and both are counted."""
    pd = kernel.domains[2]
    pd.vgic.register(IVC_IRQ)
    pd.vgic.register(VTIMER_IRQ)
    pd.vgic.pend(IVC_IRQ)
    pd.vgic.pend(VTIMER_IRQ)
    kernel.lifecycle.set_policy(2, VmPolicy(
        action="restart_from_checkpoint", max_restarts=1,
        backoff_cycles=10_000))
    snap = kernel.lifecycle.checkpoint(pd, reason="test")
    assert set(snap.vgic["pending_fifo"]) == {IVC_IRQ, VTIMER_IRQ}

    kernel.kill_vm(pd, reason="test")
    assert pd.vgic.pending_fifo() == []              # dropped at kill
    kernel.run(until_cycles=kernel.sim.now + 2_000_000)

    reborn = kernel.domains[2]
    assert reborn.epoch == 1
    assert kernel.metrics.total("vm.lifecycle.virqs_replayed") == 1
    # The timer pend is dropped once by the kill and once by the restore
    # class filter.
    assert kernel.metrics.total("vm.lifecycle.virqs_dropped") >= 1
    assert VTIMER_IRQ not in reborn.vgic.pending_fifo()
