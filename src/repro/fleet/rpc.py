"""Dispatcher→board RPC: fault state, fencing, bounded retry+backoff.

A :class:`BoardLink` is the dispatcher's only way to talk to a board.
It layers the board fault domain over the board's host:

* ``board.crash``      — the link is marked crashed, then the host is
  killed (its board dropped); every later call raises
  :class:`BoardUnreachable` without touching the host.
* ``board.hang``       — the board freezes: the link refuses calls until
  the hang expires, modelling a deadline timeout on every attempt.  The
  board makes no progress while hung (it is only ever advanced by
  dispatcher steps).
* ``board.partition``  — the dispatcher cannot reach the board until the
  partition heals; distinguished from a hang in the fault accounting and
  in rejoin semantics (a healed partition rejoins silently, a healed
  hang is indistinguishable from a slow board).

Unreachability is modelled **deterministically**: rather than wait out
a real timeout, the link short-circuits the call and charges the
configured deadline to the retry budget, so same-seed fleet runs produce
byte-identical outcomes.

Every dispatcher call goes through :meth:`BoardLink.call`, which retries
up to :data:`RETRY_LIMIT` times with exponential backoff (modelled
cycles, counted in ``fleet.rpc.backoff_cycles``) before letting
:class:`BoardUnreachable` escape to the failure detector.  Once the
detector declares a board dead the dispatcher **fences** it: any further
call attempt is a bug, counted in ``fleet.fencing_violations`` (F6
demands the counter stays zero).
"""

from __future__ import annotations

from typing import Any

from ..faults.plan import (BOARD_CRASH, BOARD_HANG, BOARD_PARTITION,
                           RETRY_STORM)

#: Attempts per logical RPC before the failure escapes to the detector.
RETRY_LIMIT = 3

#: Modelled backoff charged per failed attempt: BASE << attempt cycles.
BACKOFF_BASE_CYCLES = 10_000

#: Modelled deadline charged when a hung/partitioned board eats a call.
DEADLINE_CYCLES = 50_000


class BoardUnreachable(Exception):
    """An RPC could not reach the board (crash/hang/partition/fenced)."""

    def __init__(self, board_id: int, reason: str) -> None:
        super().__init__(f"board {board_id} unreachable: {reason}")
        self.board_id = board_id
        self.reason = reason


class BoardLink:
    """Fault-aware RPC endpoint for one board."""

    def __init__(self, board_id: int, host, metrics, *,
                 breaker, retry_budget) -> None:
        self.board_id = board_id
        self.host = host
        self.m = metrics
        self.crashed = False
        self.fenced = False
        #: Tick the current hang/partition heals at (exclusive), or None.
        self.hung_until: int | None = None
        self.partitioned_until: int | None = None
        #: ``retry.storm``: the board answers nothing until this tick,
        #: but unlike a hang it never "rejoins" — it never left, it was
        #: merely slow, which is exactly what trips retry amplification.
        self.storming_until: int | None = None
        #: The dispatcher's clock, advanced once per tick.
        self.now_tick = 0
        #: The overload plane (docs/FLEET.md §11): a per-link
        #: :class:`~repro.fleet.overload.CircuitBreaker` and the
        #: fleet-wide shared :class:`~repro.fleet.overload.RetryBudget`.
        self.breaker = breaker
        self.retry_budget = retry_budget

    # -- fault state -------------------------------------------------------

    def inject(self, site: str, *, duration_ticks: int = 0) -> None:
        """Apply a board fault site to this link (docs/FLEET.md §4)."""
        if site == BOARD_CRASH:
            self.crashed = True
            self.host.kill()
            self.m.counter("fleet.boards.crashed").inc()
        elif site == BOARD_HANG:
            self.hung_until = self.now_tick + max(1, duration_ticks)
            self.m.counter("fleet.boards.hung").inc()
        elif site == BOARD_PARTITION:
            self.partitioned_until = self.now_tick + max(1, duration_ticks)
            self.m.counter("fleet.boards.partitioned").inc()
        elif site == RETRY_STORM:
            self.storming_until = self.now_tick + max(1, duration_ticks)
            self.m.counter("fleet.boards.stormed").inc()
        else:
            raise ValueError(f"not a board fault site: {site!r}")

    def fence(self) -> None:
        """Declared dead: no RPC may ever reach this board again (F6)."""
        self.fenced = True

    def tick(self, t: int) -> bool:
        """Advance the link clock; returns True when a hang/partition
        healed on this tick (the board rejoins, unless already fenced)."""
        self.now_tick = t
        if self.breaker.on_tick(t) == "half_open":
            self.m.counter("fleet.breaker.half_opens").inc()
        if self.storming_until is not None and t >= self.storming_until:
            # A healed storm is not a rejoin: the board never left.
            self.storming_until = None
        healed = False
        if self.hung_until is not None and t >= self.hung_until:
            self.hung_until = None
            healed = True
        if self.partitioned_until is not None \
                and t >= self.partitioned_until:
            self.partitioned_until = None
            healed = True
        return healed and not self.fenced and not self.crashed

    @property
    def reachable(self) -> bool:
        return not (self.fenced or self.crashed
                    or self.hung_until is not None
                    or self.partitioned_until is not None
                    or self.storming_until is not None
                    or not self.breaker.allow())

    def _unreachable_reason(self) -> str | None:
        if self.fenced:
            return "fenced"
        if self.crashed:
            return "crash"
        if self.hung_until is not None:
            return "hang"
        if self.partitioned_until is not None:
            return "partition"
        if self.storming_until is not None:
            return "storm"
        return None

    # -- calls -------------------------------------------------------------

    def call(self, op: str, *args: Any) -> Any:
        """One logical RPC: at most :data:`RETRY_LIMIT` attempts with
        exponential backoff."""
        if self.fenced:
            # Fenced boards must never be contacted; this is accounted as
            # a fencing violation (F6) and refused without touching the
            # host — the caller has a dispatcher bug.
            self.m.counter("fleet.fencing_violations").inc()
            raise BoardUnreachable(self.board_id, "fenced")
        if not self.breaker.allow():
            # Open breaker: fail fast without touching the host or the
            # retry machinery — the whole point is shedding this load.
            self.m.counter("fleet.breaker.short_circuits").inc()
            raise BoardUnreachable(self.board_id, "breaker_open")
        self.retry_budget.note_fresh()
        last_reason = "unknown"
        attempt = 0
        while attempt < RETRY_LIMIT:
            self.m.counter("fleet.rpc.calls").inc()
            reason = self._unreachable_reason()
            if reason is None:
                result = self.host.call(op, *args)
                self._breaker_success()
                return result
            self.m.counter("fleet.rpc.failures").inc()
            last_reason = reason
            if reason in ("hang", "partition", "storm"):
                self.m.counter("fleet.rpc.backoff_cycles").inc(
                    DEADLINE_CYCLES)
            attempt += 1
            if attempt >= RETRY_LIMIT:
                break
            if not self.retry_budget.try_retry():
                # Budget exhausted: retries may not exceed their fixed
                # fraction of fresh traffic (metastable-failure guard).
                self.m.counter("fleet.rpc.retries_denied").inc()
                break
            self.m.counter("fleet.rpc.retries").inc()
            self.m.counter("fleet.rpc.backoff_cycles").inc(
                BACKOFF_BASE_CYCLES << (attempt - 1))
        self._breaker_failure()
        raise BoardUnreachable(self.board_id, last_reason)

    def _breaker_success(self) -> None:
        if self.breaker.on_success(self.now_tick) == "closed":
            self.m.counter("fleet.breaker.closes").inc()

    def _breaker_failure(self) -> None:
        if self.breaker.on_failure(self.now_tick) == "opened":
            self.m.counter("fleet.breaker.opens").inc()

    def close(self) -> None:
        self.host.close()
