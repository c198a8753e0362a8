"""VM checkpoint/restore and supervised resurrection (docs/RECOVERY.md §9).

Covers the full lifecycle loop: versioned snapshots, death policies with
budget + exponential backoff, in-place resurrection (fresh and from
checkpoint), the tools-style no-leak assertion after a kill, timing
neutrality of fault-free runs, and the acceptance property — a
checkpointed hardware workload resumes **bit-identically** after its VM
is killed and resurrected.
"""

import pytest

from repro.guest.ports.paravirt import ParavirtUcos
from repro.guest.ucos import Ucos
from repro.hwmgr.invariants import assert_no_vm_leaks
from repro.hwmgr.service import ManagerService
from repro.kernel.core import MiniNova
from repro.kernel.lifecycle import (MAX_CHECKPOINTS_PER_VM, VmPolicy)
from repro.kernel.pd import PdState
from repro.machine import Machine, MachineConfig
from repro.workloads.restartable import (RestartableStats, expected_output,
                                         make_restartable_task,
                                         read_output_region)

GUEST_VM = 2            # attach_manager takes vm_id 1; first guest is 2


def build(kind="fft", *, frames=6, seed=3, tasks=("fft256", "qam16")):
    """Manager + one guest running a restartable hardware workload."""
    machine = Machine(MachineConfig(tasks=tasks))
    kernel = MiniNova(machine)
    kernel.boot()
    kernel.attach_manager(ManagerService())
    os_ = Ucos("vmr", tick_hz=100)
    stats = RestartableStats()
    os_.create_task(f"restart-{kind}", 5,
                    make_restartable_task(kind, frames=frames, seed=seed,
                                          stats=stats))
    kernel.create_vm(os_.name, ParavirtUcos(os_))
    return machine, kernel, stats


# -- checkpoint store ----------------------------------------------------


def test_checkpoint_seq_monotonic_and_store_bounded():
    machine, kernel, _ = build()
    kernel.run(until_cycles=machine.sim.now + 500_000)
    pd = kernel.domains[GUEST_VM]
    seqs = [kernel.lifecycle.checkpoint(pd, reason="test").seq
            for _ in range(4)]
    assert seqs == sorted(seqs) and len(set(seqs)) == 4
    stored = kernel.lifecycle._store[GUEST_VM]
    assert len(stored) == MAX_CHECKPOINTS_PER_VM
    assert [s.seq for s in stored] == seqs[-MAX_CHECKPOINTS_PER_VM:]
    assert kernel.lifecycle.latest_seq(GUEST_VM) == seqs[-1]
    snap = kernel.lifecycle.latest(GUEST_VM)
    assert len(snap.memory_image) == pd.phys_size
    assert snap.epoch == 0 and snap.vm_id == GUEST_VM


def test_policy_validation():
    with pytest.raises(ValueError):
        VmPolicy(action="reincarnate")
    with pytest.raises(ValueError):
        VmPolicy(max_restarts=-1)


# -- death policies ------------------------------------------------------


def test_kill_without_policy_halts_for_good():
    machine, kernel, _ = build()
    kernel.run(until_cycles=machine.sim.now + 500_000)
    pd = kernel.domains[GUEST_VM]
    kernel.kill_vm(pd, reason="test")
    kernel.run(until_cycles=machine.sim.now + 2_000_000)
    assert kernel.domains[GUEST_VM] is pd          # never replaced
    assert pd.state is PdState.DEAD
    assert GUEST_VM in kernel.lifecycle.halted
    assert kernel.metrics.total("vm.lifecycle.halts") == 1
    assert kernel.metrics.total("vm.lifecycle.restarts") == 0
    assert_no_vm_leaks(kernel)


def test_fresh_restart_bumps_epoch_and_restarts_workload():
    machine, kernel, stats = build()
    kernel.lifecycle.set_policy(GUEST_VM, VmPolicy(
        action="restart", max_restarts=2, backoff_cycles=10_000))
    kernel.run(until_cycles=machine.sim.now + 2_000_000)
    assert stats.frames_done >= 1
    kernel.kill_vm(kernel.domains[GUEST_VM], reason="test")
    kernel.run(until_cycles=machine.sim.now + 60_000_000)
    pd = kernel.domains[GUEST_VM]
    assert pd.epoch == 1
    # A fresh restart starts from frame 0 (empty persistent dict) and
    # still produces the full golden output by the end of the run.
    assert stats.resumed_at == 0
    assert read_output_region(kernel, pd, frames=6) == \
        expected_output("fft", frames=6, seed=3)
    assert kernel.metrics.total("vm.lifecycle.restarts") == 1
    assert kernel.metrics.total("vm.lifecycle.restores") == 0
    assert_no_vm_leaks(kernel)


def test_restart_budget_exhaustion_halts():
    machine, kernel, _ = build()
    kernel.lifecycle.set_policy(GUEST_VM, VmPolicy(
        action="restart", max_restarts=1, backoff_cycles=5_000))
    kernel.run(until_cycles=machine.sim.now + 500_000)
    kernel.kill_vm(kernel.domains[GUEST_VM], reason="test")
    kernel.run(until_cycles=machine.sim.now + 1_000_000)
    assert kernel.domains[GUEST_VM].epoch == 1     # budget spent
    kernel.kill_vm(kernel.domains[GUEST_VM], reason="test")
    kernel.run(until_cycles=machine.sim.now + 1_000_000)
    assert kernel.domains[GUEST_VM].epoch == 1     # no second life
    assert GUEST_VM in kernel.lifecycle.halted
    assert kernel.metrics.total("kernel.vm_kills") == 2
    assert kernel.metrics.total("vm.lifecycle.halts") == 1
    assert kernel.metrics.total("vm.lifecycle.restarts") == 1
    assert_no_vm_leaks(kernel)


def test_backoff_doubles_between_attempts():
    machine, kernel, _ = build()
    backoff = 100_000
    slack = 50_000          # kill-path reclamation cost before scheduling
    kernel.lifecycle.set_policy(GUEST_VM, VmPolicy(
        action="restart", max_restarts=3, backoff_cycles=backoff))
    kernel.run(until_cycles=machine.sim.now + 500_000)

    def resurrect_eta():
        times = [handle.time for _, _, handle in machine.sim._queue
                 if handle.label == f"vm-resurrect-{GUEST_VM}"
                 and not handle.cancelled and not handle.fired]
        assert len(times) == 1
        return times[0]

    t0 = machine.sim.now
    kernel.kill_vm(kernel.domains[GUEST_VM], reason="test")
    assert backoff <= resurrect_eta() - t0 <= backoff + slack
    kernel.run(until_cycles=machine.sim.now + 2_000_000)
    assert kernel.domains[GUEST_VM].epoch == 1

    t0 = machine.sim.now
    kernel.kill_vm(kernel.domains[GUEST_VM], reason="test")
    assert 2 * backoff <= resurrect_eta() - t0 <= 2 * backoff + slack
    kernel.run(until_cycles=machine.sim.now + 2_000_000)
    assert kernel.domains[GUEST_VM].epoch == 2


# -- leak audit ----------------------------------------------------------


def test_kill_reclaims_everything_no_leaks():
    """The tools-style leak assertion over a full virtualized scenario:
    kill a guest mid-flight (PRRs allocated, IRQs pending, requests
    queued) and prove nothing leaks."""
    from repro.eval.scenarios import build_virtualized

    sc = build_virtualized(2, seed=7)
    sc.run_ms(5.0)
    kernel = sc.kernel
    victim = kernel.domains[GUEST_VM]
    kernel.kill_vm(victim, reason="test")
    assert victim.vgic.dead
    assert not victim.vgic.pending_fifo()          # dropped at kill time
    assert not victim.prr_iface                    # unmapped at kill time
    sc.run_ms(20.0)                                # manager reclaims PRRs
    assert_no_vm_leaks(kernel)
    for prr in sc.machine.prrs:
        assert prr.client_vm != victim.vm_id       # fabric fully reclaimed
    assert kernel.metrics.total("kernel.vm_kills") == 1


# -- timing neutrality ---------------------------------------------------


def test_fault_free_run_schedules_no_lifecycle_events():
    """Benchmarks stay +0.0%: without a kill or an armed checkpoint
    period the lifecycle contributes zero events and zero metrics."""
    from repro.eval.scenarios import build_virtualized

    sc = build_virtualized(2, seed=1)
    sc.run_ms(10.0)
    m = sc.kernel.metrics
    for name in ("checkpoints", "restarts", "restores", "halts",
                 "virqs_dropped", "virqs_replayed", "virqs_dead_epoch",
                 "iface_unmaps", "requests_purged", "ivc_purged",
                 "client_reclaims"):
        assert m.total(f"vm.lifecycle.{name}") == 0, name
    lc = sc.kernel.lifecycle
    assert m.total("kernel.vm_kills") == 0
    assert not lc.pending and not lc.halted
    assert sc.tracer.count("vm_checkpoint") == 0
    assert sc.tracer.count("vm_restore") == 0


# -- acceptance: bit-identical resume ------------------------------------


@pytest.mark.parametrize("kind", ["fft", "qam"])
def test_resurrection_from_checkpoint_is_bit_identical(kind):
    """Kill a checkpointing FFT/QAM workload mid-run; after resurrection
    from the latest snapshot the guest resumes at the checkpointed frame
    and the final output region equals the uninterrupted run's, bit for
    bit."""
    golden = expected_output(kind, frames=6, seed=3)

    # Uninterrupted reference run.
    machine, kernel, stats = build(kind)
    kernel.run(until_cycles=machine.sim.now + 50_000_000)
    assert stats.frames_done == 6
    assert read_output_region(kernel, kernel.domains[GUEST_VM],
                              frames=6) == golden

    # Same build, killed mid-flight with restore-from-checkpoint policy.
    machine, kernel, stats = build(kind)
    kernel.lifecycle.set_policy(GUEST_VM, VmPolicy(
        action="restart_from_checkpoint", max_restarts=2,
        backoff_cycles=10_000))
    kernel.run(until_cycles=machine.sim.now + 2_000_000)
    assert 0 < stats.frames_done < 6               # genuinely mid-run
    kernel.kill_vm(kernel.domains[GUEST_VM], reason="test")
    kernel.run(until_cycles=machine.sim.now + 80_000_000)

    pd = kernel.domains[GUEST_VM]
    assert pd.epoch == 1
    assert stats.resumed_at >= 1                   # resumed, not restarted
    assert read_output_region(kernel, pd, frames=6) == golden
    assert kernel.metrics.total("vm.lifecycle.restores") == 1
    assert_no_vm_leaks(kernel)
