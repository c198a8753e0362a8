"""Overload control plane: admission, retry budgets, breakers, shedding.

The fleet survives *crashes*; this module makes it survive *load*
(docs/FLEET.md §11).  Four deterministic mechanisms compose, armed in
every fleet run.  A :class:`FleetConfig` without an
:class:`OverloadConfig` gets :data:`NO_LIMITS`, whose limits can never
bind: nothing is refused, expired, degraded, denied or tripped, and
goodput equals served.

* **Token-bucket admission** (:class:`AdmissionController`) — each
  tenant's requests pass a per-tenant :class:`TokenBucket` and a bounded,
  deadline-aware queue.  Requests are refused *at admission* with a
  recorded reason (``rate_limited``, ``queue_full``) or expired out of
  the queue head (``deadline_exceeded``) instead of rotting; queues can
  never exceed ``queue_bound`` (invariant O1).
* **Progressive load shedding** (:class:`LoadShedder`) — queue pressure
  on a *best-effort* tenant halves its admitted rate level by level
  (×1 → ×1/2 → ×1/4 → ×0, :data:`DEGRADE_LEVELS`); the final level
  admits nothing but never kills the VM.  Critical tenants are never
  degraded (invariant O2: priority-ordered shedding).
* **Retry budget** (:class:`RetryBudget`) — fleet-wide, retries may
  never exceed ``floor + ratio × fresh`` calls: the metastable-failure
  guard (a surge cannot turn into a self-sustaining retry storm).
* **Circuit breaker** (:class:`CircuitBreaker`) — per board link, a
  deterministic CLOSED → OPEN → HALF_OPEN state machine with a single
  half-open probe per call slot; every transition is logged and audited
  against the legal transition set (invariant O4).

Overload invariants O1-O5 (:func:`check_overload_invariants`) ride the
same flight-recorder funnel as F1-F6.  O5 — brownout reroutes are
bit-identical — is board-local and proven by
:func:`repro.fleet.harness.run_brownout_demo` (docs/FLEET.md §11).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Any

#: Admission drop reasons (the only values a tenant's ``dropped`` dict
#: may carry; ``deadline_exceeded`` is the post-admission queue expiry).
DROP_RATE_LIMITED = "rate_limited"
DROP_QUEUE_FULL = "queue_full"
DROP_DEADLINE = "deadline_exceeded"
DROP_REASONS = (DROP_DEADLINE, DROP_QUEUE_FULL, DROP_RATE_LIMITED)

#: Shedder degrade levels: level k admits at rate × 2^-k; the final
#: level admits nothing (multiplier 0.0).
DEGRADE_LEVELS = 3

#: Circuit-breaker states (O4's alphabet).
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

#: The legal transition set: anything else is an O4 violation.
BREAKER_TRANSITIONS = frozenset({
    (BREAKER_CLOSED, BREAKER_OPEN),
    (BREAKER_OPEN, BREAKER_HALF_OPEN),
    (BREAKER_HALF_OPEN, BREAKER_CLOSED),
    (BREAKER_HALF_OPEN, BREAKER_OPEN),
})


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


@dataclass(frozen=True)
class OverloadConfig:
    """Every knob of the overload plane, validated at construction
    (the ``validate_spec_params`` fail-fast convention: a config that
    can never work is rejected before it silently misbehaves)."""

    #: Token-bucket refill per tick per tenant / bucket capacity.
    admit_rate: float = 1.0
    admit_burst: float = 4.0
    #: Hard per-tenant queue bound (O1).
    queue_bound: int = 8
    #: Queued requests older than this many ticks are expired with
    #: reason ``deadline_exceeded``; also the goodput deadline.
    deadline_ticks: int = 8
    #: Shedder watermarks on best-effort queue depth, with hysteresis.
    degrade_high_water: int = 4
    degrade_low_water: int = 1
    degrade_hysteresis_ticks: int = 2
    #: Fleet-wide retry budget: retries <= floor + ratio × fresh calls.
    retry_ratio: float = 0.1
    retry_floor: int = 4
    #: Breaker: consecutive logical-call failures to open; ticks open
    #: before the half-open probe.
    breaker_threshold: int = 2
    breaker_cooldown_ticks: int = 2
    #: ``traffic.surge`` shape: offered-load multiplier and the default
    #: duration when the KillSpec leaves ``duration_ticks`` at 0.
    surge_factor: float = 8.0
    surge_duration_ticks: int = 8

    def __post_init__(self) -> None:
        _require(self.admit_rate >= 0,
                 f"admit_rate must be >= 0, got {self.admit_rate}")
        _require(self.admit_burst >= 1,
                 f"admit_burst must be >= 1, got {self.admit_burst}")
        _require(self.queue_bound >= 1,
                 f"queue_bound must be >= 1, got {self.queue_bound}")
        _require(self.deadline_ticks >= 1,
                 f"deadline_ticks must be >= 1, got {self.deadline_ticks}")
        _require(0 <= self.degrade_low_water < self.degrade_high_water,
                 f"need 0 <= degrade_low_water < degrade_high_water, got "
                 f"{self.degrade_low_water} / {self.degrade_high_water}")
        _require(self.degrade_hysteresis_ticks >= 1,
                 f"degrade_hysteresis_ticks must be >= 1, got "
                 f"{self.degrade_hysteresis_ticks}")
        _require(self.retry_ratio >= 0,
                 f"retry_ratio must be >= 0, got {self.retry_ratio}")
        _require(self.retry_floor >= 0,
                 f"retry_floor must be >= 0, got {self.retry_floor}")
        _require(self.breaker_threshold >= 1,
                 f"breaker_threshold must be >= 1, got "
                 f"{self.breaker_threshold}")
        _require(self.breaker_cooldown_ticks >= 1,
                 f"breaker_cooldown_ticks must be >= 1, got "
                 f"{self.breaker_cooldown_ticks}")
        _require(self.surge_factor >= 1,
                 f"surge_factor must be >= 1, got {self.surge_factor}")
        _require(self.surge_duration_ticks >= 1,
                 f"surge_duration_ticks must be >= 1, got "
                 f"{self.surge_duration_ticks}")

    def as_dict(self) -> dict[str, Any]:
        return {
            "admit_rate": self.admit_rate,
            "admit_burst": self.admit_burst,
            "queue_bound": self.queue_bound,
            "deadline_ticks": self.deadline_ticks,
            "degrade_high_water": self.degrade_high_water,
            "degrade_low_water": self.degrade_low_water,
            "degrade_hysteresis_ticks": self.degrade_hysteresis_ticks,
            "retry_ratio": self.retry_ratio,
            "retry_floor": self.retry_floor,
            "breaker_threshold": self.breaker_threshold,
            "breaker_cooldown_ticks": self.breaker_cooldown_ticks,
            "surge_factor": self.surge_factor,
            "surge_duration_ticks": self.surge_duration_ticks,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "OverloadConfig":
        return cls(**d)

    def scaled_surge(self, factor: float) -> "OverloadConfig":
        """The same plane with a different surge multiplier (the surge
        series escalates loads this way)."""
        return replace(self, surge_factor=float(factor))

    def breaker(self) -> "CircuitBreaker":
        """A fresh per-link breaker with this plane's limits."""
        return CircuitBreaker(threshold=self.breaker_threshold,
                              cooldown_ticks=self.breaker_cooldown_ticks)

    def retry_budget(self) -> "RetryBudget":
        """A fresh fleet-wide retry budget with this plane's limits."""
        return RetryBudget(ratio=self.retry_ratio, floor=self.retry_floor)


#: The plane of a fleet run configured without one: every limit is out
#: of reach, so it reproduces an unguarded fleet exactly.  The integer
#: limits are ``sys.maxsize`` rather than ``inf`` because the breaker and
#: the retry budget hold them as ints.  Surges keep the default 8x for
#: 8 ticks.
NO_LIMITS = OverloadConfig(
    admit_rate=math.inf, admit_burst=math.inf, queue_bound=sys.maxsize,
    deadline_ticks=sys.maxsize, degrade_high_water=sys.maxsize,
    degrade_low_water=0, retry_floor=sys.maxsize,
    breaker_threshold=sys.maxsize)


class TokenBucket:
    """Deterministic token bucket: refill once per tick, spend whole
    tokens at admission.  Pure float arithmetic in a fixed order, so
    same-seed runs agree to the bit."""

    __slots__ = ("rate", "burst", "tokens")

    def __init__(self, rate: float, burst: float) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)

    def refill(self, multiplier: float = 1.0) -> None:
        self.tokens = min(self.burst, self.tokens + self.rate * multiplier)

    def try_take(self) -> bool:
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class RetryBudget:
    """Retries may never exceed ``floor + ratio × fresh`` attempts.

    The metastable-failure guard: when every fresh call also retries,
    offered load multiplies by the retry limit and an overload outlives
    its trigger.  Tying the retry allowance to *fresh* traffic keeps the
    amplification factor bounded at ``1 + ratio`` (plus a constant
    floor so cold starts can still retry at all)."""

    __slots__ = ("ratio", "floor", "fresh", "retries", "denied")

    def __init__(self, *, ratio: float = 0.1, floor: int = 4) -> None:
        _require(ratio >= 0, f"ratio must be >= 0, got {ratio}")
        _require(floor >= 0, f"floor must be >= 0, got {floor}")
        self.ratio = float(ratio)
        self.floor = int(floor)
        self.fresh = 0
        self.retries = 0
        self.denied = 0

    def note_fresh(self) -> None:
        self.fresh += 1

    def allowance(self) -> float:
        return self.floor + self.ratio * self.fresh

    def try_retry(self) -> bool:
        if self.retries < self.allowance():
            self.retries += 1
            return True
        self.denied += 1
        return False


class CircuitBreaker:
    """Deterministic per-link breaker: CLOSED → OPEN after
    ``threshold`` consecutive logical-call failures, OPEN → HALF_OPEN
    after ``cooldown_ticks``, then a single probe call decides CLOSED or
    back to OPEN.  Every transition is recorded as ``(tick, from, to)``
    for the O4 audit."""

    __slots__ = ("threshold", "cooldown", "state", "failures",
                 "open_until", "transitions")

    def __init__(self, *, threshold: int = 2, cooldown_ticks: int = 2) -> None:
        _require(threshold >= 1, f"threshold must be >= 1, got {threshold}")
        _require(cooldown_ticks >= 1,
                 f"cooldown_ticks must be >= 1, got {cooldown_ticks}")
        self.threshold = int(threshold)
        self.cooldown = int(cooldown_ticks)
        self.state = BREAKER_CLOSED
        self.failures = 0
        self.open_until = -1
        self.transitions: list[tuple[int, str, str]] = []

    def _move(self, tick: int, to: str) -> None:
        self.transitions.append((tick, self.state, to))
        self.state = to

    def on_tick(self, tick: int) -> str | None:
        """Clock callback; returns ``"half_open"`` on that transition."""
        if self.state == BREAKER_OPEN and tick >= self.open_until:
            self._move(tick, BREAKER_HALF_OPEN)
            return "half_open"
        return None

    def allow(self) -> bool:
        """May a call go out right now?  HALF_OPEN allows the probe."""
        return self.state != BREAKER_OPEN

    def on_success(self, tick: int) -> str | None:
        self.failures = 0
        if self.state == BREAKER_HALF_OPEN:
            self._move(tick, BREAKER_CLOSED)
            return "closed"
        return None

    def on_failure(self, tick: int) -> str | None:
        if self.state == BREAKER_HALF_OPEN:
            self._move(tick, BREAKER_OPEN)
            self.open_until = tick + self.cooldown
            return "opened"
        self.failures += 1
        if self.state == BREAKER_CLOSED and self.failures >= self.threshold:
            self._move(tick, BREAKER_OPEN)
            self.open_until = tick + self.cooldown
            return "opened"
        return None


class AdmissionController:
    """Per-tenant token buckets + bounded deadline-aware queues.

    ``begin_tick`` refills every bucket (scaled by the shedder's degrade
    multiplier) and expires overdue queue heads; ``admit`` gates one
    arriving request and returns ``None`` (admitted) or a drop reason.
    All counters land on the dispatcher's registry as
    ``fleet.admission.*`` (docs/OBSERVABILITY.md §6)."""

    def __init__(self, cfg: OverloadConfig, metrics,
                 tenant_names) -> None:
        self.cfg = cfg
        self.m = metrics
        self.buckets = {name: TokenBucket(cfg.admit_rate, cfg.admit_burst)
                        for name in tenant_names}
        # Registered up front so idle-plane payload totals are stable 0s.
        self._c_admitted = metrics.counter("fleet.admission.admitted")
        self._c_dropped = metrics.counter("fleet.admission.dropped")

    def begin_tick(self, t: int, tenants: dict[str, Any],
                   multipliers: dict[str, float]) -> None:
        for name in sorted(self.buckets):
            self.buckets[name].refill(multipliers.get(name, 1.0))
            rec = tenants[name]
            # Expire overdue queue heads (FIFO ⇒ the head is oldest).
            while rec.queue and t - rec.queue[0] >= self.cfg.deadline_ticks:
                rec.queue.popleft()
                rec.dropped[DROP_DEADLINE] = \
                    rec.dropped.get(DROP_DEADLINE, 0) + 1
                self.m.counter("fleet.admission.dropped",
                               reason=DROP_DEADLINE).inc()

    def admit(self, rec, t: int) -> str | None:
        """Gate one arrival; returns None when admitted, else the drop
        reason (the caller records it on the tenant)."""
        name = rec.spec.name
        if not self.buckets[name].try_take():
            self.m.counter("fleet.admission.dropped",
                           reason=DROP_RATE_LIMITED).inc()
            return DROP_RATE_LIMITED
        if len(rec.queue) >= self.cfg.queue_bound:
            self.m.counter("fleet.admission.dropped",
                           reason=DROP_QUEUE_FULL).inc()
            return DROP_QUEUE_FULL
        self._c_admitted.inc()
        return None


class LoadShedder:
    """Progressive, priority-ordered degradation of best-effort tenants.

    Sustained queue depth >= ``degrade_high_water`` bumps a best-effort
    tenant one degrade level (its admitted rate halves, down to zero at
    :data:`DEGRADE_LEVELS`); sustained depth <= ``degrade_low_water``
    steps it back.  Critical tenants are never touched (O2)."""

    def __init__(self, cfg: OverloadConfig, metrics) -> None:
        self.cfg = cfg
        self.m = metrics
        self.levels: dict[str, int] = {}
        self._over: dict[str, int] = {}
        self._under: dict[str, int] = {}
        #: Transition log for the telemetry stream + payload.
        self.events: list[dict[str, Any]] = []
        self._c_degraded = metrics.counter("fleet.admission.degraded")
        self._c_restored = metrics.counter("fleet.admission.restored")

    def multiplier(self, rec) -> float:
        from .tenant import CRITICAL
        if rec.spec.tclass == CRITICAL:
            return 1.0
        level = self.levels.get(rec.spec.name, 0)
        if level >= DEGRADE_LEVELS:
            return 0.0
        return 2.0 ** -level

    def step(self, t: int, tenants: dict[str, Any]) -> None:
        """Advance every best-effort tenant's watermark state machine."""
        from .tenant import BESTEFFORT, RUNNING
        for name, rec in sorted(tenants.items()):
            if rec.spec.tclass != BESTEFFORT or rec.state != RUNNING:
                continue
            depth = len(rec.queue)
            level = self.levels.get(name, 0)
            if depth >= self.cfg.degrade_high_water:
                self._over[name] = self._over.get(name, 0) + 1
                self._under[name] = 0
                if (self._over[name] >= self.cfg.degrade_hysteresis_ticks
                        and level < DEGRADE_LEVELS):
                    level += 1
                    self.levels[name] = level
                    self._over[name] = 0
                    self._c_degraded.inc()
                    self.events.append({"tick": t, "kind": "degrade",
                                        "tenant": name, "level": level})
            elif depth <= self.cfg.degrade_low_water:
                self._under[name] = self._under.get(name, 0) + 1
                self._over[name] = 0
                if (self._under[name] >= self.cfg.degrade_hysteresis_ticks
                        and level > 0):
                    level -= 1
                    self.levels[name] = level
                    self._under[name] = 0
                    self._c_restored.inc()
                    self.events.append({"tick": t, "kind": "restore",
                                        "tenant": name, "level": level})
            else:
                self._over[name] = 0
                self._under[name] = 0


# -- invariants O1-O5 ---------------------------------------------------------


def check_overload_invariants(disp) -> list[str]:
    """O1-O4 against a live dispatcher (O5 — brownout reroutes are
    bit-identical — is board-local, proven by the brownout demo harness
    and gated by the surge series):

    O1  **Queues always bounded.**  No tenant queue ever exceeds
        ``queue_bound``.
    O2  **Priority-ordered shedding.**  The overload plane never
        degrades a critical tenant — best-effort traffic is always
        degraded (down to zero admission) first.
    O3  **Exact admission accounting.**  Per tenant:
        arrived == admitted + pre-queue drops + arrival-shed, and
        admitted == served + expired + queue-shed + queued.
    O4  **Breaker transitions legal.**  Every recorded transition is in
        :data:`BREAKER_TRANSITIONS` and the log chains state to state.
    """
    from .tenant import CRITICAL
    out: list[str] = []
    bound = disp.overload.queue_bound

    for name, rec in sorted(disp.tenants.items()):
        if len(rec.queue) > bound:
            out.append(f"O1: tenant {name} queue {len(rec.queue)} "
                       f"exceeds bound {bound}")

    levels = disp.shedder.levels
    for name, rec in sorted(disp.tenants.items()):
        if rec.spec.tclass == CRITICAL and levels.get(name, 0) != 0:
            out.append(f"O2: critical tenant {name} degraded to "
                       f"level {levels[name]}")

    for name, rec in sorted(disp.tenants.items()):
        dropped = sum(rec.dropped.values())
        expired = rec.dropped.get(DROP_DEADLINE, 0)
        pre_queue = dropped - expired
        arrival_shed = rec.shed_requests - rec.queue_shed
        if rec.arrived != rec.admitted + pre_queue + arrival_shed:
            out.append(f"O3: tenant {name} admission leak: arrived "
                       f"{rec.arrived} != admitted {rec.admitted} + "
                       f"dropped {pre_queue} + shed {arrival_shed}")
        if rec.admitted != (rec.served + expired + rec.queue_shed
                            + len(rec.queue)):
            out.append(f"O3: tenant {name} queue leak: admitted "
                       f"{rec.admitted} != served {rec.served} + expired "
                       f"{expired} + shed {rec.queue_shed} + queued "
                       f"{len(rec.queue)}")

    for link in disp.links:
        prev = BREAKER_CLOSED
        for tick, frm, to in link.breaker.transitions:
            if (frm, to) not in BREAKER_TRANSITIONS:
                out.append(f"O4: board {link.board_id} illegal breaker "
                           f"transition {frm} -> {to} at t{tick}")
            if frm != prev:
                out.append(f"O4: board {link.board_id} breaker log breaks "
                           f"the chain at t{tick}: expected from {prev}, "
                           f"got {frm}")
            prev = to

    return out
