"""Brownout mode: degrade best-effort hardware work under pressure.

When the fabric is saturated — PRR occupancy or the manager's request
queue past a configured threshold — *best-effort* hardware tasks should
not queue for reconfiguration at all: the adaptive FFT/QAM guest APIs
already carry a bit-identical software fallback (PR 4), so routing a
best-effort task straight to software sheds fabric load without changing
a single output byte (overload invariant O5).  Critical tasks are
untouched: they keep their hardware path and its latency (the
mixed-criticality contract of docs/FLEET.md §11).

A :class:`BrownoutController` is attached as ``kernel.brownout``
(default ``None`` — the mode costs nothing when absent).  The manager
service observes pressure after every drained request; the guest API
consults :func:`repro.guest.api._brownout_reroute` before starting a
best-effort hardware task.  Enter/exit use distinct thresholds
(hysteresis), so pressure flapping at the boundary cannot thrash tasks
between substrates.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BrownoutConfig:
    """Pressure thresholds; enter must be strictly above exit so the
    controller has a hysteresis band to rest in."""

    #: Enter brownout when the allocated-PRR fraction >= this ...
    enter_occupancy: float = 0.75
    #: ... or manager queue depth >= this.
    enter_queue_depth: int = 4
    #: Leave brownout only when occupancy <= this ...
    exit_occupancy: float = 0.25
    #: ... and queue depth <= this.
    exit_queue_depth: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.exit_occupancy < self.enter_occupancy <= 1.0:
            raise ValueError(
                f"need 0 <= exit_occupancy < enter_occupancy <= 1, got "
                f"{self.exit_occupancy} / {self.enter_occupancy}")
        if self.enter_queue_depth < 1:
            raise ValueError(f"enter_queue_depth must be >= 1, got "
                             f"{self.enter_queue_depth}")
        if not 0 <= self.exit_queue_depth < self.enter_queue_depth:
            raise ValueError(
                f"need 0 <= exit_queue_depth < enter_queue_depth, got "
                f"{self.exit_queue_depth} / {self.enter_queue_depth}")


class BrownoutController:
    """Hysteresis state machine over fabric pressure.

    ``observe(kernel)`` recomputes pressure from ground truth — the
    allocated fraction of ``kernel.machine.prrs`` (the same ownership
    signal :meth:`~repro.obs.acct.Accountant.sync_prr_occupancy`
    tracks) and the depth of the manager mailbox — and flips the mode
    when a threshold is crossed;
    ``active`` is what the guest API consults.  All inputs are
    deterministic simulation state, so brownout windows are
    byte-reproducible.
    """

    def __init__(self, config: BrownoutConfig | None = None) -> None:
        self.cfg = config or BrownoutConfig()
        self.active = False

    def pressure(self, kernel) -> tuple[float, int]:
        prrs = kernel.machine.prrs
        held = sum(1 for p in prrs if p.client_vm is not None)
        occupancy = held / len(prrs) if prrs else 0.0
        return occupancy, len(kernel.manager_queue)

    def observe(self, kernel) -> bool:
        """Recompute pressure; returns the (possibly new) mode."""
        occupancy, depth = self.pressure(kernel)
        if not self.active:
            if (occupancy >= self.cfg.enter_occupancy
                    or depth >= self.cfg.enter_queue_depth):
                self.active = True
                kernel.metrics.counter("hwmgr.brownout.entries").inc()
                kernel.metrics.gauge("hwmgr.brownout.active").set(1)
        else:
            if (occupancy <= self.cfg.exit_occupancy
                    and depth <= self.cfg.exit_queue_depth):
                self.active = False
                kernel.metrics.counter("hwmgr.brownout.exits").inc()
                kernel.metrics.gauge("hwmgr.brownout.active").set(0)
        return self.active
