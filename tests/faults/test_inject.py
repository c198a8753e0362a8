"""FaultInjector: attach points, obs bookkeeping, PL-IRQ storms."""

from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec, PLIRQ_STORM, PRR_HANG
from repro.gic.irqs import pl_irq


def test_attach_wires_devices(machine):
    inj = FaultInjector(FaultPlan([FaultSpec(PRR_HANG)]))
    inj.attach(machine)
    assert machine.pcap.faults is inj
    assert machine.prr_controller.faults is inj


def test_fire_books_metric_and_event(machine):
    inj = FaultInjector(FaultPlan([FaultSpec(PRR_HANG)]))
    tracer, metrics = machine.tracer, machine.metrics
    inj.attach(machine)
    assert inj.fire(PRR_HANG, prr=2) is not None
    assert inj.fire(PRR_HANG, prr=2) is None          # max_fires=1
    assert metrics.counter("fault.injected", site=PRR_HANG).value == 1
    ev = tracer.find("fault_inject")
    assert len(ev) == 1
    assert ev[0].cat == "fault"
    assert ev[0].info == {"site": PRR_HANG, "prr": 2}


def test_fire_without_obs_is_silent(machine):
    """Without a kernel the injection is still booked, on the machine."""
    inj = FaultInjector(FaultPlan([FaultSpec(PRR_HANG)]))
    inj.attach(machine)
    assert inj.fire(PRR_HANG) is not None             # no kernel: no crash
    assert machine.metrics.total("fault.injected") == 1


def test_storm_asserts_burst(machine):
    inj = FaultInjector(FaultPlan([FaultSpec(PLIRQ_STORM, params={
        "at": 500, "count": 4, "line": 9, "spacing": 50})]))
    inj.attach(machine)
    machine.sim.run_until(2_000)
    assert machine.gic.asserted == 4
    assert machine.gic.enabled[pl_irq(9)]             # stale-enable model
    assert inj.plan.fires(PLIRQ_STORM) == 1


def test_no_storm_without_spec(machine):
    inj = FaultInjector(FaultPlan([FaultSpec(PRR_HANG)]))
    inj.attach(machine)
    machine.sim.run_until(5_000)
    assert machine.gic.asserted == 0
