"""The fleet dispatcher: placement, failure detection, live migration.

One :class:`Dispatcher` supervises N boards through their
:class:`~repro.fleet.rpc.BoardLink` endpoints and advances the whole
fleet in lock-step **ticks** of ``tick_ms`` simulated milliseconds
(docs/FLEET.md §2).  Per tick, in a fixed order so same-seed runs are
byte-identical:

1. link clocks advance (hangs/partitions heal, boards rejoin);
2. open-loop traffic arrives per tenant (seeded, fixed draws);
3. scheduled board faults fire through the
   :class:`~repro.faults.plan.FaultPlan` gating;
4. every non-fenced board is stepped to the tick's absolute cycle — the
   step doubles as the heartbeat carrier, its outcome feeds the
   :class:`~repro.fleet.detector.FailureDetector`;
5. newly declared-dead boards are fenced and their tenants recovered:
   migrate from the latest pulled checkpoint, restart fresh if none,
   shedding best-effort tenants first when capacity runs out;
6. periodic checkpoint pulls refresh the migration store (a board
   ships a snapshot only when it is newer than the one held);
7. request queues are served against frame-progress deltas (high-water
   marked, so checkpoint-replayed frames never double-serve);
8. fleet invariants F1-F6 are checked; the first violation dumps a
   flight-recorder bundle from a reachable board.

Recovery policy: **critical** tenants are re-placed at all costs — onto
the least-loaded live board, evicting best-effort tenants if the
surviving capacity is short — and only declared dead when no board can
hold them.  **Best-effort** tenants are shed instead, their queued and
future requests counted as shed (F4 stays exact either way).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..common.params import DEFAULT_PARAMS
from ..common.units import ms_to_cycles
from ..faults.plan import (BOARD_CRASH, BOARD_HANG, BOARD_PARTITION,
                           RETRY_STORM, TRAFFIC_SURGE, UNLIMITED,
                           FaultPlan, FaultSpec)
from ..obs.metrics import MetricsRegistry
from .detector import DEFAULT_DEADLINE_TICKS, FailureDetector
from .invariants import check_fleet_invariants
from .overload import (NO_LIMITS, AdmissionController, LoadShedder,
                       OverloadConfig, _require, check_overload_invariants)
from .rpc import BoardLink, BoardUnreachable
from .tenant import (BESTEFFORT, CRITICAL, DEAD, MIGRATING, RUNNING, SHED,
                     TenantRecord, TenantSpec)
from .traffic import TrafficModel
from .workers import InlineHost

#: Sites applied to one board's link (``retry.storm`` included: the
#: board stays nominally up but its link eats every call).
BOARD_SITES = (BOARD_CRASH, BOARD_HANG, BOARD_PARTITION)
LINK_SITES = BOARD_SITES + (RETRY_STORM,)
#: Everything a KillSpec may name; ``traffic.surge`` is fleet-global
#: (it multiplies offered load, no link is involved).
FLEET_FAULT_SITES = LINK_SITES + (TRAFFIC_SURGE,)


@dataclass(frozen=True)
class KillSpec:
    """One scheduled board fault: fire ``site`` on ``board`` at ``tick``."""

    tick: int
    board: int
    site: str
    duration_ticks: int = 0     # hang/partition heal time; 0 for crash

    def __post_init__(self) -> None:
        if self.site not in FLEET_FAULT_SITES:
            raise ValueError(f"KillSpec site must be a fleet fault domain "
                             f"(valid: {', '.join(FLEET_FAULT_SITES)}), "
                             f"got {self.site!r}")

    def as_dict(self) -> dict[str, Any]:
        return {"tick": self.tick, "board": self.board, "site": self.site,
                "duration_ticks": self.duration_ticks}


@dataclass(frozen=True)
class FleetConfig:
    """Shape of one fleet run.  Boards install
    :data:`~repro.fleet.board.BOARD_TASKS` and arrivals follow
    :class:`~repro.fleet.traffic.TrafficModel`'s default burst wave."""

    boards: int = 4
    tenants_per_board: int = 2
    seed: int = 1
    ticks: int = 32
    tick_ms: float = 2.0
    deadline_ticks: int = DEFAULT_DEADLINE_TICKS
    checkpoint_every_ticks: int = 4
    max_tenants_per_board: int = 4
    #: Board hosting; ``"inline"`` (:class:`InlineHost`) is the only
    #: value.  Kept, out of the payload, for callers that still name it.
    workers: str = "inline"
    rate_per_tick: float = 0.1
    #: The overload control plane's limits (docs/FLEET.md §11); None
    #: arms :data:`~repro.fleet.overload.NO_LIMITS`, which never binds.
    overload: OverloadConfig | None = None

    def __post_init__(self) -> None:
        """Fail fast on configs that can never work (the
        ``validate_spec_params`` convention: a bad knob is rejected at
        construction, not discovered as a hung or absurd run)."""
        _require(self.boards >= 1, "need at least one board")
        _require(self.tenants_per_board >= 0,
                 f"tenants_per_board must be >= 0, got "
                 f"{self.tenants_per_board}")
        _require(self.ticks >= 0, f"ticks must be >= 0, got {self.ticks}")
        _require(self.tick_ms > 0, f"tick_ms must be > 0, got {self.tick_ms}")
        _require(self.deadline_ticks > 0,
                 f"deadline_ticks must be > 0, got {self.deadline_ticks}")
        _require(self.checkpoint_every_ticks >= 0,
                 f"checkpoint_every_ticks must be >= 0, got "
                 f"{self.checkpoint_every_ticks}")
        _require(self.max_tenants_per_board >= 1,
                 f"max_tenants_per_board must be >= 1, got "
                 f"{self.max_tenants_per_board}")
        _require(self.workers == "inline",
                 f"workers must be 'inline', got {self.workers!r}")
        _require(self.rate_per_tick >= 0,
                 f"rate_per_tick must be >= 0, got {self.rate_per_tick}")

    def as_dict(self) -> dict[str, Any]:
        return {"boards": self.boards,
                "tenants_per_board": self.tenants_per_board,
                "seed": self.seed, "ticks": self.ticks,
                "tick_ms": self.tick_ms,
                "deadline_ticks": self.deadline_ticks,
                "checkpoint_every_ticks": self.checkpoint_every_ticks,
                "max_tenants_per_board": self.max_tenants_per_board,
                "rate_per_tick": self.rate_per_tick,
                "overload": (None if self.overload is None
                             else self.overload.as_dict())}


def default_tenants(cfg: FleetConfig) -> list[TenantSpec]:
    """The standard tenant population: alternating critical FFT and
    best-effort QAM tenants, ``tenants_per_board`` per board."""
    specs = []
    for i in range(cfg.boards * cfg.tenants_per_board):
        critical = i % 2 == 0
        specs.append(TenantSpec(
            name=f"tn{i:02d}",
            tclass=CRITICAL if critical else BESTEFFORT,
            kind="fft" if critical else "qam",
            seed=cfg.seed * 100 + i))
    return specs


class Dispatcher:
    """Supervises the boards; owns all fleet-level state."""

    def __init__(self, cfg: FleetConfig,
                 tenants: list[TenantSpec] | None = None,
                 kills: tuple[KillSpec, ...] = ()) -> None:
        for ks in kills:
            if not 0 <= ks.board < cfg.boards:
                raise ValueError(f"kill names unknown board {ks.board}")
        self.cfg = cfg
        self.metrics = MetricsRegistry()
        self.tick_cycles = ms_to_cycles(cfg.tick_ms, DEFAULT_PARAMS.cpu.hz)
        #: The overload plane's limits (docs/FLEET.md §11).
        ov = self.overload = cfg.overload or NO_LIMITS
        self.retry_budget = ov.retry_budget()
        self.links = [
            BoardLink(b, InlineHost(b, seed=cfg.seed * 1000 + b),
                      self.metrics, breaker=ov.breaker(),
                      retry_budget=self.retry_budget)
            for b in range(cfg.boards)]
        self.detector = FailureDetector(range(cfg.boards),
                                        deadline_ticks=cfg.deadline_ticks)
        specs = default_tenants(cfg) if tenants is None else tenants
        self.tenants: dict[str, TenantRecord] = {
            s.name: TenantRecord(spec=s) for s in specs}
        self.traffic = TrafficModel([s.name for s in specs], seed=cfg.seed,
                                    rate_per_tick=cfg.rate_per_tick)
        self.admission = AdmissionController(ov, self.metrics,
                                             [s.name for s in specs])
        self.shedder = LoadShedder(ov, self.metrics)
        #: Fleet-fault gating: one spec per site present in the schedule.
        self.plan = FaultPlan(
            [FaultSpec(site, max_fires=UNLIMITED)
             for site in FLEET_FAULT_SITES
             if any(k.site == site for k in kills)],
            seed=cfg.seed)
        self.kills = tuple(sorted(kills, key=lambda k: (k.tick, k.board)))
        self.kills_fired: list[dict[str, Any]] = []
        #: Latest pulled checkpoint per tenant (the migration store).
        self.ckpts: dict[str, dict[str, Any]] = {}
        #: Placement epoch each held checkpoint was pulled at: a pull at
        #: the same epoch asks the board only for a newer snapshot.
        self._ckpt_epoch: dict[str, int] = {}
        #: Every epoch each tenant was ever placed at, in order (F5).
        self.epoch_log: dict[str, list[int]] = {s.name: [] for s in specs}
        self.violations: list[str] = []
        self.flight_bundle: dict[str, Any] | None = None
        #: Request-latency samples in cycles, by class + overall.
        self.latency: dict[str, list[int]] = {
            "all": [], CRITICAL: [], BESTEFFORT: []}
        self.now_tick = -1

    # -- placement ---------------------------------------------------------

    def place_initial(self) -> None:
        """Round-robin every tenant across the boards (tick -1)."""
        for i, (name, rec) in enumerate(sorted(self.tenants.items())):
            board = i % self.cfg.boards
            res = self.links[board].call("place", rec.spec.as_dict())
            rec.board, rec.vm_id = board, res["vm_id"]
            rec.state = RUNNING
            self.epoch_log[name].append(rec.epoch)
            self.metrics.counter("fleet.placements").inc()

    def _load(self, board_id: int) -> int:
        return sum(1 for r in self.tenants.values()
                   if r.state == RUNNING and r.board == board_id)

    def _pick_target(self, exclude: set[int]) -> int | None:
        cands = [(self._load(link.board_id), link.board_id)
                 for link in self.links
                 if link.reachable and link.board_id not in exclude
                 and self._load(link.board_id)
                 < self.cfg.max_tenants_per_board]
        return min(cands)[1] if cands else None

    # -- tick loop ---------------------------------------------------------

    def tick(self, t: int) -> None:
        self.now_tick = t
        for link in self.links:
            if link.tick(t):
                self.metrics.counter("fleet.boards.rejoined").inc()
        multipliers = {name: self.shedder.multiplier(rec)
                       for name, rec in self.tenants.items()}
        self.admission.begin_tick(t, self.tenants, multipliers)
        self._arrive(t)
        self._inject(t)
        self._step_all(t)
        for board_id in self.detector.sweep(t):
            link = self.links[board_id]
            link.fence()
            self.metrics.counter("fleet.boards.declared_dead").inc()
            self._recover_board(board_id, t)
        self._pull_checkpoints(t)
        self.shedder.step(t, self.tenants)
        self._update_gauges()
        vs = check_fleet_invariants(self) + check_overload_invariants(self)
        if vs:
            self.violations.extend(f"t{t}: {v}" for v in vs)
            self.metrics.counter("fleet.invariant_violations").inc(len(vs))
            self._flight_on_violation(vs, t)

    def _arrive(self, t: int) -> None:
        for name, n in sorted(self.traffic.arrivals(t).items()):
            if n <= 0:
                continue
            rec = self.tenants[name]
            rec.arrived += n
            self.metrics.counter("fleet.requests.arrived").inc(n)
            if rec.state in (SHED, DEAD):
                rec.shed_requests += n
                self.metrics.counter("fleet.requests.shed").inc(n)
            else:
                for _ in range(n):
                    reason = self.admission.admit(rec, t)
                    if reason is None:
                        rec.admitted += 1
                        rec.queue.append(t)
                    else:
                        rec.dropped[reason] = \
                            rec.dropped.get(reason, 0) + 1

    def _inject(self, t: int) -> None:
        for ks in self.kills:
            if ks.tick != t:
                continue
            if ks.site == TRAFFIC_SURGE:
                # Fleet-global: offered load multiplies for a window —
                # no link is involved, the admission plane has to cope.
                if self.plan.should_fire(ks.site) is None:
                    continue
                dur = ks.duration_ticks or self.overload.surge_duration_ticks
                self.traffic.schedule_surge(t, dur,
                                            self.overload.surge_factor)
                self.metrics.counter("fleet.traffic.surges").inc()
                self.kills_fired.append({"tick": t, **ks.as_dict()})
                continue
            link = self.links[ks.board]
            if link.fenced or link.crashed:
                continue                   # already out of the fleet
            if self.plan.should_fire(ks.site) is None:
                continue
            link.inject(ks.site, duration_ticks=ks.duration_ticks)
            self.kills_fired.append({"tick": t, **ks.as_dict()})

    def _step_all(self, t: int) -> None:
        target = (t + 1) * self.tick_cycles
        for link in self.links:
            if link.fenced:
                continue
            try:
                res = link.call("step", target)
            except BoardUnreachable:
                self.detector.observe(link.board_id, ok=False, tick=t)
                self.metrics.counter("fleet.heartbeats.missed").inc()
                continue
            self.detector.observe(link.board_id, ok=True, tick=t)
            self.metrics.counter("fleet.heartbeats.ok").inc()
            self._serve(link.board_id, res["progress"], t)

    def _serve(self, board_id: int, progress: dict[int, int],
               t: int) -> None:
        """Fold a board's frame progress into request accounting.

        ``rec.progress`` is a high-water mark: an adopted incarnation
        replaying the frames since its checkpoint stays below it and
        serves nothing twice (F4)."""
        hist = self.metrics.histogram("fleet.request_latency_cycles")
        served_c = self.metrics.counter("fleet.requests.served")
        goodput_c = self.metrics.counter("fleet.goodput")
        deadline = self.overload.deadline_ticks
        for name, rec in sorted(self.tenants.items()):
            if rec.state != RUNNING or rec.board != board_id:
                continue
            frame = progress.get(rec.vm_id)
            if frame is None or frame <= rec.progress:
                continue
            delta = frame - rec.progress
            rec.progress = frame
            for _ in range(min(delta, len(rec.queue))):
                arrived_t = rec.queue.popleft()
                lat_ticks = t - arrived_t + 1
                lat = lat_ticks * self.tick_cycles
                rec.served += 1
                served_c.inc()
                if lat_ticks <= deadline:
                    rec.goodput += 1
                    goodput_c.inc()
                hist.observe(lat)
                self.latency["all"].append(lat)
                self.latency[rec.spec.tclass].append(lat)

    def _pull_checkpoints(self, t: int) -> None:
        every = self.cfg.checkpoint_every_ticks
        if every <= 0 or (t + 1) % every != 0:
            return
        for name, rec in sorted(self.tenants.items()):
            if rec.state != RUNNING:
                continue
            link = self.links[rec.board]
            if not link.reachable:
                continue
            since = (self.ckpts[name]["seq"]
                     if self._ckpt_epoch.get(name) == rec.epoch else None)
            try:
                ckpt = link.call("checkpoint", rec.vm_id, False, since)
            except BoardUnreachable:
                continue
            if ckpt is not None:
                self.ckpts[name] = ckpt
                self._ckpt_epoch[name] = rec.epoch
                state = ckpt.get("runner_state") or {}
                rec.checkpointed = int(
                    state.get("persist", {}).get("frame", 0))
            self.metrics.counter("fleet.checkpoints.pulled").inc()

    def _update_gauges(self) -> None:
        self.metrics.gauge("fleet.boards.live").set(
            sum(1 for link in self.links
                if not link.fenced and not link.crashed))
        self.metrics.gauge("fleet.tenants.running").set(
            sum(1 for r in self.tenants.values() if r.state == RUNNING))

    # -- recovery ----------------------------------------------------------

    def _recover_board(self, board_id: int, t: int) -> None:
        """Re-place every tenant of a declared-dead board, criticals
        first (they may evict best-effort tenants for room)."""
        victims = sorted(
            (rec for rec in self.tenants.values()
             if rec.state == RUNNING and rec.board == board_id),
            key=lambda r: (r.spec.tclass != CRITICAL, r.spec.name))
        for rec in victims:
            rec.state = MIGRATING if rec.spec.name in self.ckpts else DEAD
            rec.board, rec.vm_id = None, None
            self._replace(rec, t, exclude={board_id})

    def _replace(self, rec: TenantRecord, t: int,
                 exclude: set[int]) -> None:
        name = rec.spec.name
        ckpt = self.ckpts.get(name)
        tried = set(exclude)
        while True:
            target = self._pick_target(tried)
            if target is None and rec.spec.tclass == CRITICAL:
                target = self._make_room(tried)
            if target is None:
                self._give_up(rec)
                return
            link = self.links[target]
            try:
                if ckpt is not None:
                    res = link.call("restore", rec.spec.as_dict(), ckpt)
                    rec.migrations += 1
                    self.metrics.counter("fleet.migrations").inc()
                else:
                    res = link.call("place", rec.spec.as_dict())
                    rec.restarts += 1
                    # A fresh incarnation starts at frame 0; the
                    # high-water mark keeps its replay from re-serving.
                    self.metrics.counter("fleet.restarts.fresh").inc()
            except BoardUnreachable:
                tried.add(target)
                continue
            rec.board, rec.vm_id = target, res["vm_id"]
            rec.state = RUNNING
            rec.epoch += 1
            self.epoch_log[name].append(rec.epoch)
            self.metrics.counter("fleet.placements").inc()
            return

    def _make_room(self, exclude: set[int]) -> int | None:
        """Evict one best-effort tenant to make room for a critical one:
        pick the most-loaded eligible board, shed its lowest-named
        best-effort tenant.  Returns the freed board, or None."""
        cands = []
        for link in self.links:
            if not link.reachable or link.board_id in exclude:
                continue
            be = sorted(r.spec.name for r in self.tenants.values()
                        if r.state == RUNNING and r.board == link.board_id
                        and r.spec.tclass == BESTEFFORT)
            if be:
                cands.append((-self._load(link.board_id), link.board_id,
                              be[0]))
        if not cands:
            return None
        _, board_id, victim = min(cands)
        self._shed(self.tenants[victim], reason="capacity")
        return board_id

    def _shed(self, rec: TenantRecord, *, reason: str) -> None:
        if rec.board is not None and rec.state == RUNNING:
            link = self.links[rec.board]
            if link.reachable:
                try:
                    link.call("kill", rec.vm_id, f"shed:{reason}")
                except BoardUnreachable:
                    pass
        rec.state = SHED
        rec.board, rec.vm_id = None, None
        dropped = len(rec.queue)
        rec.shed_requests += dropped
        rec.queue_shed += dropped
        rec.queue.clear()
        self.metrics.counter("fleet.tenants.shed").inc()
        if dropped:
            self.metrics.counter("fleet.requests.shed").inc(dropped)

    def _give_up(self, rec: TenantRecord) -> None:
        """No board can hold the tenant: best-effort ones are shed,
        critical ones are accounted dead (the terminal F1 state)."""
        if rec.spec.tclass == BESTEFFORT:
            self._shed(rec, reason="no_capacity")
            return
        rec.state = DEAD
        rec.board, rec.vm_id = None, None
        dropped = len(rec.queue)
        rec.shed_requests += dropped
        rec.queue_shed += dropped
        rec.queue.clear()
        self.metrics.counter("fleet.tenants.dead").inc()
        if dropped:
            self.metrics.counter("fleet.requests.shed").inc(dropped)

    # -- planned migration (docs/FLEET.md §7) ------------------------------

    def migrate_planned(self, name: str, target_board: int) -> dict[str, Any]:
        """Synchronous live migration of a healthy tenant: checkpoint on
        the source, kill the source VM, adopt on the target.  Returns
        the restore result (including the frame resumed at)."""
        rec = self.tenants[name]
        if rec.state != RUNNING:
            raise ValueError(f"tenant {name} is not running")
        src = self.links[rec.board]
        ckpt = src.call("checkpoint", rec.vm_id, True)
        self.ckpts[name] = ckpt
        self._ckpt_epoch[name] = rec.epoch
        src.call("kill", rec.vm_id, "migrate")
        res = self.links[target_board].call("restore", rec.spec.as_dict(),
                                            ckpt)
        rec.board, rec.vm_id = target_board, res["vm_id"]
        rec.epoch += 1
        rec.migrations += 1
        self.epoch_log[name].append(rec.epoch)
        self.metrics.counter("fleet.migrations").inc()
        self.metrics.counter("fleet.placements").inc()
        return res

    # -- telemetry + teardown ----------------------------------------------

    def board_snapshots(self) -> list[tuple[int, dict[str, Any]]]:
        """Final per-board registry images from every reachable board."""
        out = []
        for link in self.links:
            if not link.reachable:
                continue
            try:
                out.append((link.board_id, link.call("snapshot")))
            except BoardUnreachable:
                continue
        return out

    def _flight_on_violation(self, violations: list[str], t: int) -> None:
        if self.flight_bundle is not None:
            return
        for link in self.links:
            if not link.reachable:
                continue
            try:
                self.flight_bundle = link.call(
                    "flight_dump", "fleet_invariant_violation",
                    {"tick": t, "violations": violations[:8]})
                return
            except BoardUnreachable:
                continue

    def close(self) -> None:
        for link in self.links:
            link.close()
