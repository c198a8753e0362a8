"""Structured kernel tracing: the measurement substrate for Table III / Fig. 9.

The kernel marks named events with the current cycle count; the eval layer
pairs them into intervals (HW-Manager entry/exit, PL-IRQ entry, ...) and
the exporters turn them into Chrome trace-event JSON.  Compared with the
original unbounded event list this tracer adds:

* a **bounded ring buffer** (:class:`EventRing`) — long runs cannot grow
  memory without limit; overflow drops the *oldest* events and counts them
  in :attr:`EventRing.dropped`;
* an **O(1) name index** — :meth:`Tracer.find` / :meth:`Tracer.count` walk
  only the events of the requested name instead of the whole buffer;
* **span context managers** — ``with tracer.span("mgr_exec", vm=1):``
  emits the paired ``mgr_exec_start`` / ``mgr_exec_end`` events the eval
  protocol is written in terms of;
* **per-event categories** (``sched``, ``vgic``, ``hypercall``, ``hwmgr``,
  ``pcap``, ``sim``, ``fault``) so exporters and queries can slice by
  subsystem;
* **nesting-safe interval pairing** — :meth:`Tracer.intervals` keeps a
  *stack* per key, so nested same-key spans pair inside-out instead of the
  outer start being silently overwritten (a bug in the original tracer).

Every event name the kernel guarantees to emit is documented in
``docs/OBSERVABILITY.md``; treat that catalog as the API.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

#: Recognized event categories (see docs/OBSERVABILITY.md).
CATEGORIES = ("sched", "vgic", "hypercall", "hwmgr", "pcap", "sim", "fault",
              "misc")

#: Default ring capacity: generous for every bundled scenario (a full
#: Table III sweep emits well under this many events) while bounding a
#: pathological run to ~100 MB of event objects.
DEFAULT_RING_CAPACITY = 1 << 20

#: Span events are named ``<span>_start`` / ``<span>_end`` — the naming
#: convention the pre-existing eval protocol already used.
SPAN_START_SUFFIX = "_start"
SPAN_END_SUFFIX = "_end"


@dataclass
class TraceEvent:
    """One trace record: cycle timestamp, name, info dict, category."""

    t: int
    name: str
    info: dict[str, Any]
    cat: str = "misc"


class EventRing:
    """Bounded FIFO of :class:`TraceEvent` with a per-name index.

    Appending beyond ``capacity`` evicts the oldest event (and its index
    entry) and increments :attr:`dropped`.  Iteration yields events oldest
    first; equality against plain lists is supported so existing tests and
    notebooks that compare ``tracer.events == [...]`` keep working.
    """

    __slots__ = ("capacity", "dropped", "_q", "_by_name")

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"ring capacity must be positive ({capacity})")
        self.capacity = capacity
        self.dropped = 0
        self._q: deque[TraceEvent] = deque()
        self._by_name: dict[str, deque[TraceEvent]] = {}

    def append(self, e: TraceEvent) -> None:
        if len(self._q) >= self.capacity:
            old = self._q.popleft()
            self.dropped += 1
            bucket = self._by_name.get(old.name)
            if bucket:
                # The evicted event is by construction the oldest of its
                # name, so the index stays consistent with one popleft.
                bucket.popleft()
                if not bucket:
                    del self._by_name[old.name]
        self._q.append(e)
        self._by_name.setdefault(e.name, deque()).append(e)

    def by_name(self, name: str) -> Sequence[TraceEvent]:
        """All retained events called ``name``, oldest first (O(1) lookup)."""
        return tuple(self._by_name.get(name, ()))

    def names(self) -> set[str]:
        """The distinct event names currently retained."""
        return set(self._by_name)

    def clear(self) -> None:
        self._q.clear()
        self._by_name.clear()
        self.dropped = 0

    # -- container protocol -------------------------------------------------

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._q)

    def __len__(self) -> int:
        return len(self._q)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self._q)[i]
        return self._q[i]

    def __bool__(self) -> bool:
        return bool(self._q)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EventRing):
            return list(self._q) == list(other._q)
        if isinstance(other, (list, tuple)):
            return list(self._q) == list(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<EventRing {len(self._q)}/{self.capacity} events, "
                f"{self.dropped} dropped>")


class _Span:
    """Context manager emitting ``<name>_start`` / ``<name>_end`` marks."""

    __slots__ = ("_tracer", "_name", "_cat", "_info")

    def __init__(self, tracer: "Tracer", name: str, cat: str,
                 info: dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._info = info

    def __enter__(self) -> "_Span":
        self._tracer.mark(self._name + SPAN_START_SUFFIX, cat=self._cat,
                          **self._info)
        return self

    def __exit__(self, *exc) -> None:
        self._tracer.mark(self._name + SPAN_END_SUFFIX, cat=self._cat,
                          **self._info)


class _NoopSpan:
    """Zero-cost stand-in returned when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class Tracer:
    """Bounded, name-indexed event tracer bound to a cycle clock.

    ``enabled=False`` turns every probe into a no-op; ``verbose`` gates the
    high-rate events (per-hypercall, per-vIRQ-injection — see the Level
    column in docs/OBSERVABILITY.md) that would otherwise dominate the
    ring on long runs.
    """

    def __init__(self, enabled: bool = True,
                 capacity: int = DEFAULT_RING_CAPACITY,
                 verbose: bool = False) -> None:
        self.enabled = enabled
        self.verbose = verbose
        self.events = EventRing(capacity)
        self._clock_ref: Any = None   # object with .now (set by the kernel)

    def bind(self, clock_like: Any) -> None:
        """Attach the clock the timestamps are read from (kernel boot)."""
        self._clock_ref = clock_like

    # -- recording ----------------------------------------------------------

    def mark(self, name: str, *, cat: str = "misc", **info: Any) -> None:
        """Record an instant event at the current cycle."""
        if self.enabled and self._clock_ref is not None:
            self.events.append(TraceEvent(self._clock_ref.now, name, info, cat))

    def mark_at(self, t: int, name: str, *, cat: str = "misc",
                **info: Any) -> None:
        """Record an event with an explicit timestamp (e.g. the PL-IRQ
        exception-vector time captured before routing work began)."""
        if self.enabled:
            self.events.append(TraceEvent(t, name, info, cat))

    def span(self, name: str, *, cat: str = "misc", **info: Any):
        """Context manager emitting ``<name>_start``/``<name>_end`` marks
        around its body — the span pairing the eval layer consumes."""
        if not (self.enabled and self._clock_ref is not None):
            return _NOOP_SPAN
        return _Span(self, name, cat, info)

    def clear(self) -> None:
        self.events.clear()

    @property
    def dropped(self) -> int:
        """Events lost to ring overflow since the last :meth:`clear`."""
        return self.events.dropped

    # -- queries -------------------------------------------------------------

    def find(self, name: str, **match: Any) -> list[TraceEvent]:
        """Events called ``name`` whose info matches ``match`` (name lookup
        is O(1); only same-name events are scanned)."""
        out = []
        for e in self.events.by_name(name):
            if all(e.info.get(k) == v for k, v in match.items()):
                out.append(e)
        return out

    def count(self, name: str) -> int:
        """Number of retained events called ``name`` (O(1) name lookup)."""
        return len(self.events.by_name(name))

    def names(self) -> set[str]:
        """Distinct event names currently retained in the ring."""
        return self.events.names()

    def intervals(self, start_name: str, end_name: str,
                  key: str | None = None) -> list[tuple[int, TraceEvent, TraceEvent]]:
        """Pair start/end events in order; when ``key`` is given, events
        pair only when their ``info[key]`` matches.  Nested same-key spans
        pair inside-out (a stack per key — the original tracer silently
        dropped the outer start).  Returns (duration, start_event,
        end_event) triples in end-event order."""
        open_: dict[Any, list[TraceEvent]] = {}
        out: list[tuple[int, TraceEvent, TraceEvent]] = []
        for e in self.events:
            if e.name == start_name:
                open_.setdefault(e.info.get(key) if key else None, []).append(e)
            elif e.name == end_name:
                stack = open_.get(e.info.get(key) if key else None)
                if stack:
                    s = stack.pop()
                    out.append((e.t - s.t, s, e))
        return out

    def spans(self, name: str,
              key: str | None = None) -> list[tuple[int, TraceEvent, TraceEvent]]:
        """Intervals of the ``<name>_start``/``<name>_end`` span pair."""
        return self.intervals(name + SPAN_START_SUFFIX,
                              name + SPAN_END_SUFFIX, key=key)
