"""Scheduler: priority circles, round-robin, quantum preservation (Fig. 3)."""

import pytest

from repro.kernel.pd import PdState, ProtectionDomain
from repro.kernel.sched import Scheduler
from repro.kernel.vcpu import Vcpu
from repro.kernel.vgic import VGic
from repro.mem.ptables import PageTable


def mk_pd(memsys, vm_id, prio):
    return ProtectionDomain(
        vm_id=vm_id, name=f"pd{vm_id}", priority=prio,
        vcpu=Vcpu(vm_id=vm_id), vgic=VGic(vm_id=vm_id),
        page_table=PageTable(memsys.bus, memsys.kernel_frames),
        asid=vm_id)


QUANTUM = 1000


@pytest.fixture
def sched(metrics):
    return Scheduler(QUANTUM, metrics)


def test_pick_highest_priority(sched, memsys):
    lo = mk_pd(memsys, 1, 1)
    hi = mk_pd(memsys, 2, 2)
    sched.add(lo)
    sched.add(hi)
    assert sched.pick() is hi


def test_round_robin_same_level(sched, memsys, metrics):
    a, b, c = (mk_pd(memsys, i, 1) for i in (1, 2, 3))
    for pd in (a, b, c):
        sched.add(pd)
    assert sched.pick() is a
    sched.quantum_expired(a)
    assert sched.pick() is b
    sched.quantum_expired(b)
    assert sched.pick() is c
    sched.quantum_expired(c)
    assert sched.pick() is a          # circle closed
    assert metrics.total("sched.rotations") == 3
    assert metrics.total("sched.rotations", vm=1) == 1


def test_quantum_refilled_on_rotation(sched, memsys):
    a = mk_pd(memsys, 1, 1)
    sched.add(a)
    sched.charge(a, QUANTUM)
    assert a.quantum_remaining == 0
    sched.quantum_expired(a)
    assert a.quantum_remaining == QUANTUM


def test_quantum_preserved_across_preemption(sched, memsys):
    """Paper: a preempted VM resumes with its remaining time slice."""
    a = mk_pd(memsys, 1, 1)
    sched.add(a)
    sched.charge(a, 400)
    assert a.quantum_remaining == QUANTUM - 400
    # Preemption by a service does not touch the quantum.
    svc = mk_pd(memsys, 9, 2)
    sched.add(svc, runnable=False)
    sched.resume(svc)
    assert sched.pick() is svc
    sched.suspend(svc)
    assert sched.pick() is a
    assert a.quantum_remaining == QUANTUM - 400


def test_suspend_resume_cycle(sched, memsys):
    a = mk_pd(memsys, 1, 1)
    sched.add(a)
    sched.suspend(a)
    assert a.state is PdState.SUSPENDED
    assert sched.pick() is None
    assert a in sched.suspended
    sched.resume(a)
    assert a.state is PdState.RUN
    assert sched.pick() is a


def test_resume_goes_to_front_of_level(sched, memsys):
    a, b = mk_pd(memsys, 1, 1), mk_pd(memsys, 2, 1)
    sched.add(a)
    sched.add(b)
    sched.suspend(b)
    sched.resume(b)
    assert sched.pick() is b       # service-style immediate dispatch


def test_resume_idempotent(sched, memsys):
    a = mk_pd(memsys, 1, 1)
    sched.add(a)
    sched.resume(a)               # already running: no duplicate
    assert sched.runnable_count() == 1


def test_remove(sched, memsys):
    a = mk_pd(memsys, 1, 1)
    sched.add(a)
    sched.remove(a)
    assert a.state is PdState.DEAD
    assert sched.pick() is None


def test_add_suspended(sched, memsys):
    a = mk_pd(memsys, 1, 1)
    sched.add(a, runnable=False)
    assert sched.pick() is None
    assert a.quantum_remaining == QUANTUM


def test_charge_floors_at_zero(sched, memsys):
    a = mk_pd(memsys, 1, 1)
    sched.add(a)
    sched.charge(a, 10 * QUANTUM)
    assert a.quantum_remaining == 0


def test_priority_out_of_range(sched, memsys):
    from repro.common.errors import SimulationError
    bad = mk_pd(memsys, 1, 99)
    with pytest.raises(SimulationError):
        sched.add(bad)
