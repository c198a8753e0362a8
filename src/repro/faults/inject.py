"""The fault injector: glue between a :class:`~repro.faults.plan.FaultPlan`
and the hardened device/kernel code.

Devices expose a ``faults`` attachment point (``machine.pcap.faults``,
``machine.prr_controller.faults``); when one is attached, the device asks
``faults.fire(site, ...)`` at each named site it reaches.  The injector
consults the plan, does the observability bookkeeping in the machine's
registry and tracer (``fault.injected`` counter + ``fault_inject`` trace
event), and hands the spec back so the site can read its parameters.
Without an injector attached, the hardened code takes the exact happy
path it always took — no extra events, no timing perturbation.

PL-IRQ storms have no device-side site (they model *unsolicited* fabric
interrupts), so the injector schedules them itself at attach time.
"""

from __future__ import annotations

from ..gic.irqs import pl_irq
from .plan import FaultPlan, FaultSpec, PLIRQ_STORM, VM_KILL


class FaultInjector:
    """Consults a plan at named sites; counts and traces every injection."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.machine = None
        self.kernel = None

    # -- wiring ---------------------------------------------------------

    def attach(self, machine, kernel=None) -> None:
        """Hook into a machine's fault sites, and a kernel's (manager
        supervision, VM kills) when one drives the machine."""
        self.machine = machine
        machine.pcap.faults = self
        machine.prr_controller.faults = self
        if kernel is not None:
            self.kernel = kernel
            kernel.faults = self
        self._schedule_storms(machine)
        self._schedule_vm_kills(machine)

    # -- the decision point ---------------------------------------------

    def fire(self, site: str, **ctx) -> FaultSpec | None:
        """Record an occurrence of ``site``; if the plan says it fires,
        book the injection and return the spec (else ``None``)."""
        spec = self.plan.should_fire(site)
        if spec is None:
            return None
        self.machine.metrics.counter("fault.injected", site=site).inc()
        self.machine.tracer.mark("fault_inject", cat="fault", site=site, **ctx)
        return spec

    # -- self-driven sites ----------------------------------------------

    def _schedule_storms(self, machine) -> None:
        """Arm a PL-IRQ storm burst if the plan requests one.

        ``params``: ``at`` (cycle the burst starts, default 1000),
        ``count`` (IRQs in the burst, default 8), ``line`` (PL line
        0-15, default 0), ``spacing`` (cycles between assertions,
        default 100).  The whole burst counts as one occurrence of the
        :data:`~repro.faults.plan.PLIRQ_STORM` site.
        """
        if self.plan.spec_for(PLIRQ_STORM) is None:
            return
        machine.sim.schedule_at(
            max(self._storm_param("at", 1000), machine.sim.now),
            self._storm_begin, label="plirq-storm")

    def _storm_param(self, key: str, default: int) -> int:
        spec = self.plan.spec_for(PLIRQ_STORM)
        return int(spec.params.get(key, default)) if spec else default

    def _storm_begin(self) -> None:
        spec = self.fire(PLIRQ_STORM, line=self._storm_param("line", 0))
        if spec is None:
            return
        line = int(spec.params.get("line", 0))
        count = int(spec.params.get("count", 8))
        spacing = int(spec.params.get("spacing", 100))
        sim, gic = self.machine.sim, self.machine.gic
        # The storm models a fabric line left unmasked (stale enable from
        # a previous owner): without the enable the distributor would just
        # latch the pending bit and the CPU would never see the burst.
        gic.set_enable(pl_irq(line), True)
        for i in range(count):
            sim.schedule(i * spacing, gic.assert_irq, pl_irq(line),
                         label=f"plirq-storm-{i}")

    def _schedule_vm_kills(self, machine) -> None:
        """Arm externally-driven VM kills if the plan requests them.

        Like the storms, :data:`~repro.faults.plan.VM_KILL` has no
        device-side consult — it models a guest crash the hypervisor
        only observes.  ``params``: ``at`` (cycle of the first kill,
        default 50000), ``count`` (kills to schedule, default 1),
        ``spacing`` (cycles between kills, default 150000), ``vm_index``
        (rotates the victim among live guests), ``policy`` / ``budget``
        / ``backoff`` (the :class:`~repro.kernel.lifecycle.VmPolicy`
        applied to the victim at fire time, default ``"restart"``).
        Needs a kernel; kills are spec-gated through :meth:`fire` so
        ``after`` / ``max_fires`` apply per scheduled kill.
        """
        spec = self.plan.spec_for(VM_KILL)
        if spec is None or self.kernel is None:
            return
        at = int(spec.params.get("at", 50_000))
        count = int(spec.params.get("count", 1))
        spacing = int(spec.params.get("spacing", 150_000))
        for i in range(count):
            machine.sim.schedule_at(
                max(at + i * spacing, machine.sim.now),
                lambda n=i: self._vm_kill_fire(n), label=f"vm-kill-{i}")

    def _vm_kill_fire(self, n: int) -> None:
        from ..kernel.lifecycle import VmPolicy
        from ..kernel.pd import PdState

        k = self.kernel
        victims = [pd for vm_id, pd in sorted(k.domains.items())
                   if pd is not k.manager_pd
                   and pd.state is not PdState.DEAD
                   and vm_id not in k.lifecycle.halted]
        if not victims:
            # No eligible guest left (all dead or halted): the event
            # lapses without booking a fire, so ``plan.fires(VM_KILL)``
            # counts *actual* kills.
            return
        spec = self.fire(VM_KILL, n=n)
        if spec is None:
            return
        pd = victims[(int(spec.params.get("vm_index", 0)) + n) % len(victims)]
        policy = VmPolicy(
            action=str(spec.params.get("policy", "restart")),
            max_restarts=int(spec.params.get("budget", 2)),
            backoff_cycles=int(spec.params.get("backoff", 20_000)))
        k.lifecycle.set_policy(pd.vm_id, policy)
        if (policy.action == "restart_from_checkpoint"
                and k.lifecycle.latest(pd.vm_id) is None):
            # Guarantee the restore path has a snapshot to come back to.
            k.lifecycle.checkpoint(pd, reason="fault_injection")
        k.kill_vm(pd, reason="fault_injection")
