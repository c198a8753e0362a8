"""Discrete-event core: integer-cycle clock, cancellable events, dispatcher.

The simulation is *CPU-driven*: the machine advances the clock while the
modelled CPU executes, then asks the engine to fire every event that became
due.  When the CPU idles, the engine fast-forwards the clock to the next
event.  All times are integer CPU cycles (see :mod:`repro.common.units`).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable

from ..common.errors import SimulationError
from ..obs.metrics import MetricsRegistry


class Clock:
    """Monotonic integer cycle counter."""

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now: int = 0

    def advance(self, dcycles: int) -> int:
        """Move time forward by ``dcycles`` (>= 0) and return the new time."""
        if dcycles < 0:
            raise SimulationError(f"clock cannot move backwards ({dcycles})")
        self.now += dcycles
        return self.now

    def advance_to(self, t: int) -> int:
        """Move time forward to absolute cycle ``t`` (>= now)."""
        if t < self.now:
            raise SimulationError(f"clock cannot move backwards (to {t}, now {self.now})")
        self.now = t
        return self.now


@dataclass(order=True)
class _QueuedEvent:
    time: int
    seq: int
    handle: "EventHandle" = field(compare=False)


class EventHandle:
    """Returned by :meth:`Simulator.schedule`; supports cancellation."""

    __slots__ = ("time", "fn", "args", "cancelled", "fired", "label")

    def __init__(self, time: int, fn: Callable[..., Any], args: tuple,
                 label: str = "") -> None:
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.fired = False
        self.label = label

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent; no-op if already fired)."""
        self.cancelled = True

    @property
    def pending(self) -> bool:
        return not (self.cancelled or self.fired)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "fired" if self.fired else ("cancelled" if self.cancelled else "pending")
        return f"<Event {self.label or self.fn.__name__} @{self.time} {state}>"


class Simulator:
    """Clock + event queue.  One instance per simulated machine."""

    def __init__(self, metrics: MetricsRegistry) -> None:
        self.clock = Clock()
        self._queue: list[_QueuedEvent] = []
        self._seq = itertools.count()
        # Engine activity in the machine's registry (docs/OBSERVABILITY.md
        # §6): events scheduled/fired, idle fast-forwards and their cycles.
        self._m_scheduled = metrics.counter("sim.events_scheduled")
        self._m_fired = metrics.counter("sim.events_fired")
        self._m_idle = metrics.counter("sim.idle_advances")
        self._m_idle_cycles = metrics.counter("sim.idle_cycles")
        # Optional per-VM accountant (attached by the kernel at boot): its
        # idle ledger is fed from here, because only the engine knows how
        # far an idle fast-forward jumped.
        self._accounting = None
        # Optional telemetry stream (repro.obs.stream): an *observational*
        # tap consulted after dispatch.  It never schedules events, so the
        # queue, the idle jump targets and every cycle-exact series are
        # identical with streaming on or off.
        self._stream = None

    def attach_accounting(self, accounting) -> None:
        """Report idle fast-forwards to a
        :class:`~repro.obs.accounting.VmAccounting` (``charge_idle``)."""
        self._accounting = accounting

    def attach_stream(self, stream) -> None:
        """Attach a :class:`~repro.obs.stream.TelemetryStream` tap.

        The dispatcher calls ``stream.on_tick(now)`` whenever the clock
        has crossed ``stream.next_due`` — a cadence check, not an event:
        emission consumes zero simulated cycles.
        """
        self._stream = stream

    def detach_stream(self, stream) -> None:
        """Remove the tap (idempotent; ignores a stale stream)."""
        if self._stream is stream:
            self._stream = None

    # -- scheduling ----------------------------------------------------

    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any,
                 label: str = "") -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` cycles from now."""
        return self.schedule_at(self.clock.now + delay, fn, *args, label=label)

    def schedule_at(self, t: int, fn: Callable[..., Any], *args: Any,
                    label: str = "") -> EventHandle:
        """Schedule ``fn(*args)`` at absolute cycle ``t`` (>= now)."""
        if t < self.clock.now:
            raise SimulationError(f"cannot schedule event in the past ({t} < {self.clock.now})")
        handle = EventHandle(t, fn, args, label)
        heapq.heappush(self._queue, _QueuedEvent(t, next(self._seq), handle))
        self._m_scheduled.inc()
        return handle

    def defer(self, handle: EventHandle, extra: int) -> EventHandle:
        """Reschedule a pending event ``extra`` cycles later.

        Cancels ``handle`` and returns a fresh handle for the same
        ``fn(*args)`` at ``max(handle.time + extra, now)``.  Used by fault
        injection to model stalls (e.g. a hung PCAP transfer) without the
        device code knowing how its completion was delayed.
        """
        if not handle.pending:
            raise SimulationError(f"cannot defer non-pending event {handle!r}")
        handle.cancel()
        t = max(handle.time + extra, self.clock.now)
        return self.schedule_at(t, handle.fn, *handle.args, label=handle.label)

    # -- dispatching ---------------------------------------------------

    def _pop_due(self, t: int) -> EventHandle | None:
        while self._queue and self._queue[0].time <= t:
            ev = heapq.heappop(self._queue).handle
            if not ev.cancelled:
                return ev
        return None

    def dispatch_due(self) -> int:
        """Fire every pending event with time <= now; return count fired.

        Events fired may schedule further events; those are honoured within
        the same call if already due.
        """
        n = 0
        while (ev := self._pop_due(self.clock.now)) is not None:
            ev.fired = True
            self._m_fired.inc()
            ev.fn(*ev.args)
            n += 1
        s = self._stream
        if s is not None and self.clock.now >= s.next_due:
            s.on_tick(self.clock.now)
        return n

    def next_due(self) -> int | float:
        """The earliest clock value at which :meth:`dispatch_due` could do
        anything: the head of the event queue (cancelled or not) or the
        telemetry tap's next emission; ``inf`` when there is neither.
        Advancing the clock short of it without dispatching is
        unobservable (``GuestExecutor.spin``)."""
        t = self._queue[0].time if self._queue else math.inf
        s = self._stream
        if s is not None and s.next_due < t:
            t = s.next_due
        return t

    def next_event_time(self) -> int | None:
        """Time of the earliest pending event, or None when queue is empty."""
        while self._queue and self._queue[0].handle.cancelled:
            heapq.heappop(self._queue)
        return self._queue[0].time if self._queue else None

    def advance_to_next_event(self) -> bool:
        """Idle fast-forward: jump the clock to the next event and fire it.

        Returns False when no events remain (simulation is quiescent).
        """
        t = self.next_event_time()
        if t is None:
            return False
        self._m_idle.inc()
        skipped = max(0, t - self.clock.now)
        if skipped:
            self._m_idle_cycles.inc(skipped)
            if self._accounting is not None:
                # Before the jump, so the accountant settles the open
                # context first and books the gap as idle.
                self._accounting.charge_idle(skipped)
        self.clock.advance_to(max(t, self.clock.now))
        self.dispatch_due()
        return True

    def run_until(self, t: int) -> None:
        """Fire events in order up to absolute cycle ``t`` (clock ends at t)."""
        while True:
            nxt = self.next_event_time()
            if nxt is None or nxt > t:
                break
            self.clock.advance_to(max(nxt, self.clock.now))
            self.dispatch_due()
        self.clock.advance_to(max(t, self.clock.now))

    @property
    def now(self) -> int:
        return self.clock.now

    @property
    def pending_count(self) -> int:
        return sum(1 for e in self._queue if e.handle.pending)
