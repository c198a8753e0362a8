"""Dispatcher: placement, failure recovery, shedding, F1-F6 detection."""

import pytest

from repro.faults.plan import BOARD_CRASH, BOARD_HANG
from repro.fleet.board import BoardServer, encode_checkpoint
from repro.fleet.dispatcher import (Dispatcher, FleetConfig, KillSpec,
                                    default_tenants)
from repro.fleet.invariants import check_fleet_invariants, check_ledger
from repro.fleet.overload import BREAKER_HALF_OPEN, CircuitBreaker
from repro.fleet.rpc import BoardUnreachable
from repro.fleet.tenant import (BESTEFFORT, CRITICAL, DEAD, RUNNING, SERVED,
                                SHED, SHED_ON_ARRIVAL, TenantSpec)


def run_fleet_ticks(cfg, kills=(), tenants=None):
    disp = Dispatcher(cfg, tenants=tenants, kills=kills)
    disp.place_initial()
    for t in range(cfg.ticks):
        disp.tick(t)
    return disp


def test_healthy_fleet_has_zero_violations():
    cfg = FleetConfig(boards=2, tenants_per_board=2, seed=3, ticks=8)
    disp = run_fleet_ticks(cfg)
    try:
        assert disp.violations == []
        assert check_fleet_invariants(disp) == []
        assert all(r.state == RUNNING for r in disp.tenants.values())
        assert disp.metrics.total("fleet.placements") == 4
        assert disp.metrics.total("fleet.heartbeats.missed") == 0
        # Round-robin initial placement, ordered by name.
        boards = [r.board for _, r in sorted(disp.tenants.items())]
        assert boards == [0, 1, 0, 1]
    finally:
        disp.close()


def test_empty_board_steps_to_each_tick_boundary():
    """A board with no tenant idles exactly to the tick boundary, like
    its busy peers, instead of stalling or jumping ticks ahead."""
    cfg = FleetConfig(boards=2, tenants_per_board=0, seed=3, ticks=6)
    spec = TenantSpec(name="only", tclass=CRITICAL, kind="fft", seed=3)
    disp = Dispatcher(cfg, tenants=[spec])
    try:
        disp.place_initial()
        assert disp.tenants["only"].board == 0
        for t in range(cfg.ticks):
            disp.tick(t)
            # A step to a past cycle runs nothing; its reply is the
            # board's clock and progress.
            hb = disp.links[1].call("step", 0)
            assert hb["progress"] == {}
            assert hb["now"] == (t + 1) * disp.tick_cycles
        assert disp.violations == []
    finally:
        disp.close()


def test_crash_migrates_tenant_with_checkpoint():
    cfg = FleetConfig(boards=2, tenants_per_board=1, seed=3, ticks=14,
                      checkpoint_every_ticks=2, deadline_ticks=2)
    kills = (KillSpec(tick=7, board=0, site=BOARD_CRASH),)
    disp = run_fleet_ticks(cfg, kills=kills)
    try:
        assert disp.violations == []
        assert disp.kills_fired and disp.kills_fired[0]["board"] == 0
        assert disp.links[0].fenced
        assert 0 in disp.detector.declared
        rec = disp.tenants["tn00"]          # was on board 0
        assert rec.state == RUNNING and rec.board == 1
        assert rec.migrations == 1 and rec.epoch == 1
        assert disp.metrics.total("fleet.migrations") == 1
        assert disp.metrics.total("fleet.boards.declared_dead") == 1
        # The survivor keeps serving; progress never went backwards.
        assert rec.progress >= rec.checkpointed
    finally:
        disp.close()


def test_capacity_pressure_sheds_besteffort_first():
    # Two boards, both full (max 2): killing board 0 forces its critical
    # tenant to evict a best-effort tenant from board 1.
    cfg = FleetConfig(boards=2, tenants_per_board=2, seed=3, ticks=14,
                      max_tenants_per_board=2, checkpoint_every_ticks=2,
                      deadline_ticks=2)
    kills = (KillSpec(tick=7, board=0, site=BOARD_CRASH),)
    disp = run_fleet_ticks(cfg, kills=kills)
    try:
        assert disp.violations == []
        states = {n: r.state for n, r in disp.tenants.items()}
        classes = {n: r.spec.tclass for n, r in disp.tenants.items()}
        # Every critical tenant survives (running somewhere).
        for name, cls in classes.items():
            if cls == CRITICAL:
                assert states[name] == RUNNING, (name, states)
        # At least one best-effort tenant paid for it.
        assert any(states[n] == SHED for n, c in classes.items()
                   if c == BESTEFFORT)
        assert disp.metrics.total("fleet.tenants.shed") >= 1
        # Request accounting stays exact through the shed (F4).
        for rec in disp.tenants.values():
            assert check_ledger(rec, disp.overload.deadline_ticks) == []
    finally:
        disp.close()


def test_hang_heal_rejoins_without_declaration():
    # A 1-tick hang heals well inside the 3-tick deadline: no migration.
    cfg = FleetConfig(boards=2, tenants_per_board=1, seed=3, ticks=12,
                      deadline_ticks=3)
    kills = (KillSpec(tick=4, board=0, site=BOARD_HANG, duration_ticks=1),)
    disp = run_fleet_ticks(cfg, kills=kills)
    try:
        assert disp.violations == []
        assert disp.detector.declared == set()
        assert disp.metrics.total("fleet.boards.rejoined") == 1
        assert disp.metrics.total("fleet.migrations") == 0
        assert disp.tenants["tn00"].board == 0      # never moved
    finally:
        disp.close()


def test_unchanged_pulls_ship_nothing(monkeypatch):
    """Versioned checkpoint pulls through a crash and a hang: a board
    answers ``None`` only while the dispatcher already holds the board's
    latest snapshot of the VM, and the first pull from each new placement
    ships a snapshot in full."""
    real = BoardServer.checkpoint
    fleet = []
    pulls = []          # (tenant, placement epoch, since, shipped)

    def spy(self, vm_id, since=None):
        out = real(self, vm_id, since)
        disp = fleet[0]
        name = next(n for n, r in disp.tenants.items()
                    if (r.board, r.vm_id) == (self.board_id, vm_id))
        pulls.append((name, disp.tenants[name].epoch, since,
                      out is not None))
        if out is None:
            latest = self.kernel.lifecycle.latest(vm_id)
            assert encode_checkpoint(latest) == disp.ckpts[name]
        return out

    monkeypatch.setattr(BoardServer, "checkpoint", spy)
    cfg = FleetConfig(boards=3, tenants_per_board=2, seed=1, ticks=120,
                      rate_per_tick=0.05)
    kills = (KillSpec(tick=36, board=1, site=BOARD_CRASH),
             KillSpec(tick=72, board=2, site=BOARD_HANG, duration_ticks=2))
    disp = Dispatcher(cfg, kills=kills)
    fleet.append(disp)
    try:
        disp.place_initial()
        for t in range(cfg.ticks):
            disp.tick(t)
        assert disp.violations == []
        assert disp.metrics.total("fleet.migrations") >= 2
        assert disp.metrics.total("fleet.checkpoints.pulled") == len(pulls)
        unchanged = sum(1 for *_, shipped in pulls if not shipped)
        assert unchanged >= 0.8 * len(pulls), (unchanged, len(pulls))
        first = {}
        for name, epoch, since, shipped in pulls:
            first.setdefault((name, epoch), (since, shipped))
        assert any(epoch > 0 for _, epoch in first)
        for key, (since, shipped) in first.items():
            assert since is None and shipped, key
    finally:
        disp.close()


def test_fleet_invariant_checks_catch_corruption():
    cfg = FleetConfig(boards=2, tenants_per_board=1, seed=3, ticks=4)
    disp = run_fleet_ticks(cfg)
    try:
        assert check_fleet_invariants(disp) == []
        r0, r1 = (disp.tenants["tn00"], disp.tenants["tn01"])
        # F4, three ways, on two freshly queued requests.
        for _ in range(2):
            r0.arrive(disp.now_tick, None)
        assert check_fleet_invariants(disp) == []

        def f4():
            return any(v.startswith("F4")
                       for v in check_fleet_invariants(disp))

        # A request leaves the queue with no outcome.
        rid = r0.queue.pop()
        assert f4()
        r0.queue.append(rid)
        # An ended request stays queued.
        r0.ledger[rid][1:] = [SERVED, disp.now_tick]
        assert f4()
        r0.ledger[rid][1:] = [None, None]
        # The queue falls out of arrival order.
        r0.queue.reverse()
        assert f4()
        r0.queue.reverse()
        assert check_fleet_invariants(disp) == []
        # F2: duplicate placement slot.
        old_board, old_vm = r1.board, r1.vm_id
        r1.board, r1.vm_id = r0.board, r0.vm_id
        assert any(v.startswith("F2")
                   for v in check_fleet_invariants(disp))
        r1.board, r1.vm_id = old_board, old_vm
        # F5: a regressed epoch log.
        disp.epoch_log["tn00"].append(0)
        assert any(v.startswith("F5")
                   for v in check_fleet_invariants(disp))
        disp.epoch_log["tn00"].pop()
        # F1: running tenant with no placement.
        r0.board = None
        assert any(v.startswith("F1")
                   for v in check_fleet_invariants(disp))
    finally:
        disp.close()


def test_invariant_sweep_is_not_fleet_traffic():
    """The F3 probe reads every reachable board's PRR grants without the
    link's books: a sweep counts no RPC, raises no retry allowance and
    moves no breaker, not even a half-open one a real call would close."""
    cfg = FleetConfig(boards=2, tenants_per_board=1, seed=3, ticks=4)
    disp = run_fleet_ticks(cfg)
    try:
        link = disp.links[1]
        link.breaker = CircuitBreaker(threshold=1, cooldown_ticks=1)
        link.breaker.on_failure(disp.now_tick)
        link.breaker.on_tick(disp.now_tick + 1)
        assert link.breaker.state == BREAKER_HALF_OPEN and link.reachable

        def books():
            budget = disp.retry_budget
            return (disp.metrics.total("fleet.rpc.calls"),
                    disp.metrics.total("fleet.rpc.retries_denied"),
                    (budget.fresh, budget.retries),
                    [(ln.breaker.state, ln.breaker.failures,
                      list(ln.breaker.transitions)) for ln in disp.links])

        before = books()
        assert check_fleet_invariants(disp) == []
        assert books() == before
    finally:
        disp.close()


def test_fencing_violation_detected_as_f6():
    cfg = FleetConfig(boards=2, tenants_per_board=1, seed=3, ticks=4)
    disp = run_fleet_ticks(cfg)
    try:
        disp.links[0].fence()
        with pytest.raises(BoardUnreachable):
            disp.links[0].call("prr_grants")        # the dispatcher bug
        vs = check_fleet_invariants(disp)
        assert any(v.startswith("F6") for v in vs)
    finally:
        disp.close()


def test_kill_validation():
    cfg = FleetConfig(boards=2)
    with pytest.raises(ValueError):
        Dispatcher(cfg, kills=(KillSpec(tick=1, board=9,
                                        site=BOARD_CRASH),))
    with pytest.raises(ValueError):
        Dispatcher(cfg, kills=(KillSpec(tick=1, board=0,
                                        site="vm.kill"),))


def test_default_tenants_alternate_classes():
    cfg = FleetConfig(boards=2, tenants_per_board=2, seed=3)
    specs = default_tenants(cfg)
    assert len(specs) == 4
    assert [s.tclass for s in specs] == [CRITICAL, BESTEFFORT] * 2
    assert len({s.seed for s in specs}) == 4    # decorrelated frame seeds


def test_dead_tenant_arrivals_are_shed():
    # One board only: a crash leaves the critical tenant nowhere to go.
    cfg = FleetConfig(boards=1, tenants_per_board=1, seed=3, ticks=12,
                      deadline_ticks=2, rate_per_tick=1.0)
    kills = (KillSpec(tick=3, board=0, site=BOARD_CRASH),)
    disp = run_fleet_ticks(cfg, kills=kills)
    try:
        rec = disp.tenants["tn00"]
        assert rec.state == DEAD
        assert disp.metrics.total("fleet.tenants.dead") == 1
        # F4 even when dead: nothing stays queued, later arrivals are
        # shed on arrival.
        assert check_ledger(rec, disp.overload.deadline_ticks) == []
        assert not rec.queue
        assert rec.ledger[-1][1] == SHED_ON_ARRIVAL
        assert disp.violations == []
    finally:
        disp.close()


def test_service_queue_is_fifo_deque():
    # Regression: the per-tenant queue used to be a list served with
    # O(n) pop(0); it is now a deque of request IDs and must keep strict
    # FIFO order — a served request's latency is measured from the
    # *oldest* queued arrival, and F4 still holds afterwards.
    from collections import deque

    cfg = FleetConfig(boards=1, tenants_per_board=1, seed=3, ticks=1,
                      rate_per_tick=0.0)
    disp = run_fleet_ticks(cfg)
    try:
        rec = disp.tenants["tn00"]
        assert isinstance(rec.queue, deque)
        for t in range(3):                      # arrival ticks, in order
            rec.arrive(t, None)
        before = len(disp.latency["all"])
        disp._serve(rec.board, {rec.vm_id: rec.progress + 2}, t=5)
        # Two served, oldest first: latency (5-0+1) then (5-1+1) ticks.
        lats = [lat // disp.tick_cycles
                for lat in disp.latency["all"][before:]]
        assert lats == [6, 5]
        assert list(rec.queue) == [2]           # youngest still queued
        assert [row[1] for row in rec.ledger] == [SERVED, SERVED, None]
        assert check_ledger(rec, disp.overload.deadline_ticks) == []  # F4
        assert check_fleet_invariants(disp) == []
    finally:
        disp.close()
