"""Preemptive priority-based round-robin scheduler (Section III-D, Fig. 3).

Domains live in either the *run queue* (a circular deque per priority
level — the paper's double-linked circles of Fig. 3) or the *suspend
queue*.  The scheduler always dispatches the highest-priority runnable PD;
same-level PDs round-robin with a fixed time quantum, and a preempted PD
keeps its remaining quantum so its total slice stays constant.  The
Hardware Task Manager sits one priority level above the guests and is
resumed at the *front* of its circle, which is what makes its requests
preempt guests immediately (Section IV-E).

Observability: preemptions and per-VM rotations are counted in the
machine's :class:`~repro.obs.metrics.MetricsRegistry` (``sched.preemptions``,
``sched.rotations{vm}``), the only book of either, plus a
``sched.runnable`` gauge tracking the run-queue population.  The dispatch
events themselves (``vm_switch``) are traced by the kernel core — see
docs/OBSERVABILITY.md.
"""

from __future__ import annotations

from collections import deque

from ..common.errors import SimulationError
from ..obs.metrics import MetricsRegistry
from .pd import PdState, ProtectionDomain


class Scheduler:
    """Run/suspend queues plus the quantum accounting of Section III-D."""

    #: Priority levels; higher levels dispatch first.
    n_priorities = 8

    def __init__(self, quantum_cycles: int, metrics: MetricsRegistry) -> None:
        self.quantum_cycles = quantum_cycles
        self._run: list[deque[ProtectionDomain]] = [
            deque() for _ in range(self.n_priorities)]
        self._suspended: set[ProtectionDomain] = set()
        self._metrics = metrics
        self._m_preemptions = metrics.counter("sched.preemptions")
        self._m_runnable = metrics.gauge("sched.runnable")

    def _update_runnable(self) -> None:
        self._m_runnable.set(self.runnable_count())

    # -- queue management -----------------------------------------------------

    def add(self, pd: ProtectionDomain, *, runnable: bool = True) -> None:
        """Enqueue a new PD into its priority circle (or the suspend
        queue) with a full quantum."""
        if not 0 <= pd.priority < self.n_priorities:
            raise SimulationError(f"priority {pd.priority} out of range")
        if pd.quantum_remaining <= 0:
            pd.quantum_remaining = self.quantum_cycles
        if runnable:
            pd.state = PdState.RUN
            self._run[pd.priority].append(pd)
        else:
            pd.state = PdState.SUSPENDED
            self._suspended.add(pd)
        self._update_runnable()

    def suspend(self, pd: ProtectionDomain) -> None:
        """Move a PD to the suspend queue (e.g. the manager parking itself)."""
        if pd.state is PdState.RUN:
            try:
                self._run[pd.priority].remove(pd)
            except ValueError:
                pass
        pd.state = PdState.SUSPENDED
        self._suspended.add(pd)
        self._update_runnable()

    def resume(self, pd: ProtectionDomain, *, front: bool = True) -> None:
        """Move a PD from the suspend queue back into its level's circle.

        Services resume at the *front* (with a higher priority level they
        preempt guests immediately, Section IV-E); ``front=False`` models
        the ablation where the manager takes a normal turn instead.
        """
        if pd.state is PdState.RUN:
            return
        self._suspended.discard(pd)
        pd.state = PdState.RUN
        if pd.quantum_remaining <= 0:
            pd.quantum_remaining = self.quantum_cycles
        if front:
            self._run[pd.priority].appendleft(pd)
        else:
            self._run[pd.priority].append(pd)
        self._update_runnable()

    def remove(self, pd: ProtectionDomain) -> None:
        """Take a PD out of both queues for good (shutdown / panic)."""
        if pd.state is PdState.RUN:
            try:
                self._run[pd.priority].remove(pd)
            except ValueError:
                pass
        self._suspended.discard(pd)
        pd.state = PdState.DEAD
        self._update_runnable()

    # -- dispatch ------------------------------------------------------------------

    def pick(self) -> ProtectionDomain | None:
        """Highest-priority runnable PD (no state change)."""
        for level in range(self.n_priorities - 1, -1, -1):
            if self._run[level]:
                return self._run[level][0]
        return None

    def quantum_expired(self, pd: ProtectionDomain) -> None:
        """Rotate ``pd`` to the back of its circle and refill its slice."""
        q = self._run[pd.priority]
        if q and q[0] is pd:
            q.rotate(-1)
            self._metrics.counter("sched.rotations", vm=pd.vm_id).inc()
        pd.quantum_remaining = self.quantum_cycles

    def charge(self, pd: ProtectionDomain, cycles: int) -> None:
        """Consume quantum; at the preemption point the kernel saves the
        remaining time so the PD's total slice is preserved."""
        pd.quantum_remaining = max(0, pd.quantum_remaining - cycles)

    def note_preemption(self) -> None:
        """Count a quantum-expiry preemption (timer fired mid-slice)."""
        self._m_preemptions.inc()

    # -- introspection ------------------------------------------------------------

    def runnable_count(self) -> int:
        return sum(len(q) for q in self._run)

    def run_queue_at(self, priority: int) -> list[ProtectionDomain]:
        return list(self._run[priority])

    @property
    def suspended(self) -> set[ProtectionDomain]:
        return set(self._suspended)
