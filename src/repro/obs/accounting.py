"""Per-VM resource accounting: who got the CPU, the vIRQs, and the fabric.

The kernel attributes every simulated cycle to exactly one *context* by
telling the accountant about transitions (a sampling clock, not per-event
charging — transitions are rare, so the hot path stays one subtraction):

* ``guest_kernel`` / ``guest_user`` — a VM executing, split by its DACR
  view (Table II): guest-kernel mode vs. guest-user mode;
* ``kernel`` — Mini-NOVA itself, optionally *on behalf of* a VM (its
  hypercalls, its vIRQ injections, its switch-in cost);
* ``idle`` — discrete-event fast-forwards while nothing is runnable
  (reported by the engine, see :meth:`Simulator.attach_accounting`).

Because charging is transition-driven against the shared cycle clock,
the books balance **exactly**: the sum of all per-VM cycles, unattributed
kernel cycles and idle cycles equals the simulated cycles elapsed since
:meth:`VmAccounting.bind` — an invariant pinned by
``tests/integration/test_accounting_invariant.py``.

The accountant keeps only what a counter cannot hold: that context
clock, per-PRR occupancy intervals reconciled from the live fabric state,
and the exact vIRQ injection-to-delivery latency samples.  Per-VM event
counts (switch-ins, hypercalls, vIRQ pends and injections, quantum
rotations) have one book, the machine's
:class:`~repro.obs.metrics.MetricsRegistry`, under a ``vm`` label: the
accountant registers each VM's series when the VM is registered and
reads them back for :meth:`VmAccounting.snapshot` and
:meth:`VmAccounting.render`, so ``python -m repro bench`` can emit a
complete per-VM table (see docs/BENCHMARKS.md).  Reading the books never
registers a metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from .metrics import MetricsRegistry

#: Context kinds a cycle can be attributed to.
CONTEXTS = ("kernel", "guest_kernel", "guest_user", "idle")

#: Cap on the exact vIRQ latency samples kept per VM: each VM keeps its
#: first ``MAX_VIRQ_SAMPLES`` and drops later ones, so memory stays
#: bounded on very long runs.  ``kernel.virq_delivery_cycles`` still
#: observes every sample.
MAX_VIRQ_SAMPLES = 1 << 18

#: Per-VM counts the accountant reports but does not keep: snapshot key
#: and the registry counter it sums over the VM's label sets.
VM_COUNTS = (("hypercalls", "kernel.hypercalls"),
             ("virqs_pended", "kernel.virq_pended"),
             ("virqs_injected", "kernel.virq_injected"),
             ("switches_in", "kernel.vm_switches"),
             ("rotations", "sched.rotations"))

#: The counters labelled by ``vm`` alone, registered with each VM
#: (``kernel.hypercalls`` also carries ``hc`` and registers on first use).
VM_SERIES = tuple(metric for _, metric in VM_COUNTS
                  if metric != "kernel.hypercalls")


@dataclass
class VmAccount:
    """Everything attributed to one VM (or service PD)."""

    vm_id: int
    name: str = ""
    #: Cycles the VM spent executing, split by guest privilege view.
    guest_kernel_cycles: int = 0
    guest_user_cycles: int = 0
    #: Kernel cycles spent on this VM's behalf (hypercall handling,
    #: vIRQ injection, switch-in cost, deferred-result resume).
    kernel_cycles: int = 0
    #: Total cycles this VM held fabric regions (summed over PRRs; two
    #: PRRs held for one cycle count as two occupancy cycles).
    prr_occupancy_cycles: int = 0
    #: vIRQ injection-to-delivery latency samples (pend -> guest entry).
    virq_latency: list[int] = field(default_factory=list)

    @property
    def cpu_cycles(self) -> int:
        """All cycles attributed to this VM, any context."""
        return (self.guest_kernel_cycles + self.guest_user_cycles
                + self.kernel_cycles)


class VmAccounting:
    """Transition-driven cycle attribution, PRR occupancy and exact vIRQ
    latency samples; per-VM counts read back from the registry.

    The owner (the kernel) binds a cycle clock, registers VMs, and marks
    context transitions with :meth:`push` / :meth:`pop` (re-entrant, so
    nested attribution — a vIRQ injection inside a switch-in — charges
    the innermost context).  All probe methods are safe no-ops until
    :meth:`bind` is called.
    """

    def __init__(self, metrics: MetricsRegistry) -> None:
        self._clock: Any = None
        self.start_cycle = 0
        self._last = 0
        self._ctx: tuple[str, int | None] = ("kernel", None)
        self.vms: dict[int, VmAccount] = {}
        #: Kernel cycles not attributable to any VM (boot, IRQ ack,
        #: scheduler decisions, timer reprogramming between VMs).
        self.kernel_cycles = 0
        #: Cycles the engine fast-forwarded past (nothing runnable).
        self.idle_cycles = 0
        #: Pending vIRQ timestamps: (vm, irq) -> pend cycle.
        self._virq_pend_t: dict[tuple[int, int], int] = {}
        #: Open PRR occupancy intervals: prr_id -> (vm_id, start cycle).
        self._prr_open: dict[int, tuple[int, int]] = {}
        self._metrics = metrics
        # Delivery latency as a histogram too, so the always-on registry
        # exposes it (docs/OBSERVABILITY.md §6).
        self._m_virq_latency = metrics.histogram("kernel.virq_delivery_cycles")

    # -- lifecycle ---------------------------------------------------------

    def bind(self, clock_like: Any) -> None:
        """Attach the cycle clock; accounting starts at its current time."""
        self._clock = clock_like
        self.start_cycle = self._last = clock_like.now
        self._ctx = ("kernel", None)

    @property
    def bound(self) -> bool:
        return self._clock is not None

    def register_vm(self, vm_id: int, name: str = "") -> VmAccount:
        """Open ``vm_id``'s row and register its per-VM counters; a
        resurrected VM re-registers onto the same row and series."""
        acct = self.vms.get(vm_id)
        if acct is None:
            acct = self.vms[vm_id] = VmAccount(vm_id=vm_id, name=name)
            for metric in VM_SERIES:
                self._metrics.counter(metric, vm=vm_id)
        elif name:
            acct.name = name
        return acct

    def _vm(self, vm_id: int) -> VmAccount:
        return self.vms.get(vm_id) or self.register_vm(vm_id)

    # -- context clock ------------------------------------------------------

    def _settle(self) -> None:
        """Charge the cycles since the last transition to the open context."""
        now = self._clock.now
        dt = now - self._last
        if dt:
            kind, vm = self._ctx
            if kind == "kernel":
                if vm is None:
                    self.kernel_cycles += dt
                else:
                    self._vm(vm).kernel_cycles += dt
            elif kind == "guest_kernel":
                self._vm(vm).guest_kernel_cycles += dt
            else:   # guest_user
                self._vm(vm).guest_user_cycles += dt
            self._last = now

    def push(self, kind: str, vm_id: int | None = None) -> tuple[str, int | None]:
        """Enter a context; returns the previous one for :meth:`pop`."""
        if self._clock is None:
            return self._ctx
        self._settle()
        prev, self._ctx = self._ctx, (kind, vm_id)
        return prev

    def pop(self, prev: tuple[str, int | None]) -> None:
        """Restore the context returned by the matching :meth:`push`."""
        if self._clock is None:
            return
        self._settle()
        self._ctx = prev

    def guest_push(self, vm_id: int, guest_kernel_mode: bool) -> tuple[str, int | None]:
        """Enter guest execution in the VM's current privilege view."""
        return self.push("guest_kernel" if guest_kernel_mode
                         else "guest_user", vm_id)

    def charge_idle(self, dcycles: int) -> None:
        """Engine probe: the clock is about to fast-forward ``dcycles``
        with nothing runnable.  Called *before* the jump, so the open
        context is settled first and the jump lands on the idle ledger."""
        if self._clock is None or dcycles <= 0:
            return
        self._settle()
        self.idle_cycles += dcycles
        self._last += dcycles

    def settle(self) -> None:
        """Flush the open context up to the current cycle (do this before
        reading the books mid-run or at the end of a scenario)."""
        if self._clock is not None:
            self._settle()

    # -- vIRQ probes ---------------------------------------------------------

    def note_virq_pended(self, vm_id: int, irq_id: int) -> None:
        """vGIC probe: ``irq_id`` became pending for ``vm_id`` now."""
        if self._clock is None:
            return
        self._metrics.counter("kernel.virq_pended", vm=vm_id).inc()
        self._virq_pend_t.setdefault((vm_id, irq_id), self._clock.now)

    def note_virq_injected(self, vm_id: int, irq_id: int) -> None:
        """vGIC probe: ``irq_id`` was delivered to ``vm_id``'s handler.
        Records the injection-to-delivery latency since the pend."""
        if self._clock is None:
            return
        t0 = self._virq_pend_t.pop((vm_id, irq_id), None)
        if t0 is None:
            return
        lat = self._clock.now - t0
        self._m_virq_latency.observe(lat)
        samples = self._vm(vm_id).virq_latency
        if len(samples) < MAX_VIRQ_SAMPLES:
            samples.append(lat)

    def note_virq_dropped(self, vm_id: int, irq_id: int) -> None:
        """vGIC probe: a pending vIRQ was discarded without delivery
        (unregistered); forget its pend timestamp."""
        self._virq_pend_t.pop((vm_id, irq_id), None)

    # -- PRR occupancy -------------------------------------------------------

    def sync_prr_occupancy(self, prrs: Iterable[Any]) -> None:
        """Manager probe: reconcile occupancy intervals with the live
        fabric state (``prr.client_vm``).  Called after each handled
        request, so reclaim/release transitions close the old client's
        interval at the handling time."""
        if self._clock is None:
            return
        now = self._clock.now
        for prr in prrs:
            open_ = self._prr_open.get(prr.prr_id)
            current = prr.client_vm
            if open_ is not None and open_[0] != current:
                vm, t0 = self._prr_open.pop(prr.prr_id)
                self._vm(vm).prr_occupancy_cycles += now - t0
                open_ = None
            if open_ is None and current is not None:
                self._prr_open[prr.prr_id] = (current, now)

    def close_prr_occupancy(self) -> None:
        """Accrue every still-open occupancy interval up to now (done by
        snapshots, so 'holds a PRR at the end of the run' is counted)."""
        if self._clock is None:
            return
        now = self._clock.now
        for prr_id, (vm, t0) in list(self._prr_open.items()):
            self._vm(vm).prr_occupancy_cycles += now - t0
            self._prr_open[prr_id] = (vm, now)

    # -- reading the books -------------------------------------------------------

    def total_accounted(self) -> int:
        """Sum of every ledger: equals ``clock.now - start_cycle`` after
        :meth:`settle` (the invariant the tests pin)."""
        return (self.kernel_cycles + self.idle_cycles
                + sum(a.cpu_cycles for a in self.vms.values()))

    def virq_latency_samples(self) -> list[int]:
        """All retained injection-to-delivery samples across VMs."""
        out: list[int] = []
        for acct in self.vms.values():
            out.extend(acct.virq_latency)
        return out

    def counts(self, vm_id: int) -> dict[str, int]:
        """``vm_id``'s event counts, summed from the registry."""
        return {key: self._metrics.total(metric, vm=vm_id)
                for key, metric in VM_COUNTS}

    def snapshot(self) -> dict[str, Any]:
        """Settle and return the full accounting state as plain data."""
        self.settle()
        self.close_prr_occupancy()
        vms = []
        for vm in sorted(self.vms):
            a = self.vms[vm]
            vms.append({
                "vm_id": a.vm_id, "name": a.name,
                "guest_kernel_cycles": a.guest_kernel_cycles,
                "guest_user_cycles": a.guest_user_cycles,
                "kernel_cycles": a.kernel_cycles,
                "cpu_cycles": a.cpu_cycles,
                **self.counts(vm),
                "prr_occupancy_cycles": a.prr_occupancy_cycles,
            })
        return {
            "start_cycle": self.start_cycle,
            "kernel_cycles": self.kernel_cycles,
            "idle_cycles": self.idle_cycles,
            "total_accounted": self.total_accounted(),
            "vms": vms,
        }

    def render(self) -> str:
        """Plain-text per-VM table (the report / `--metrics` companion)."""
        self.settle()
        self.close_prr_occupancy()
        head = (f"{'vm':>3} {'name':16} {'guest-kern':>12} {'guest-user':>12} "
                f"{'kernel':>10} {'hc':>6} {'virq':>6} {'sw-in':>6} "
                f"{'prr-occ':>12}")
        lines = ["=== per-VM accounting (cycles) ===", head]
        for vm in sorted(self.vms):
            a, n = self.vms[vm], self.counts(vm)
            lines.append(
                f"{a.vm_id:>3} {a.name:16.16} {a.guest_kernel_cycles:>12} "
                f"{a.guest_user_cycles:>12} {a.kernel_cycles:>10} "
                f"{n['hypercalls']:>6} {n['virqs_injected']:>6} "
                f"{n['switches_in']:>6} {a.prr_occupancy_cycles:>12}")
        lines.append(f"kernel (unattributed): {self.kernel_cycles} cycles, "
                     f"idle: {self.idle_cycles} cycles")
        return "\n".join(lines)
