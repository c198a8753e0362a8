"""Overload control plane: admission, shedding, budgets, breakers, O1-O5."""

import json

import pytest

from repro.faults.plan import (BOARD_CRASH, BOARD_HANG, RETRY_STORM,
                               TRAFFIC_SURGE)
from repro.fleet.dispatcher import Dispatcher, FleetConfig, KillSpec
from repro.fleet.harness import run_brownout_demo, run_fleet
from repro.fleet.overload import (BREAKER_CLOSED, BREAKER_HALF_OPEN,
                                  BREAKER_OPEN, BREAKER_TRANSITIONS,
                                  DEGRADE_LEVELS, DROP_DEADLINE,
                                  DROP_QUEUE_FULL, DROP_RATE_LIMITED,
                                  NO_LIMITS,
                                  AdmissionController, CircuitBreaker,
                                  LoadShedder, OverloadConfig, RetryBudget,
                                  TokenBucket, check_overload_invariants)
from repro.fleet.tenant import BESTEFFORT, CRITICAL, TenantRecord, TenantSpec
from repro.obs.metrics import MetricsRegistry


class TestOverloadConfig:
    def test_defaults_valid_and_round_trip(self):
        cfg = OverloadConfig()
        assert OverloadConfig.from_dict(cfg.as_dict()) == cfg

    def test_scaled_surge_changes_only_the_factor(self):
        cfg = OverloadConfig(surge_factor=4.0)
        up = cfg.scaled_surge(16.0)
        assert up.surge_factor == 16.0
        assert up.as_dict() | {"surge_factor": 4.0} == cfg.as_dict()

    @pytest.mark.parametrize("bad", [
        {"admit_rate": -0.1},
        {"admit_burst": 0.5},
        {"queue_bound": 0},
        {"deadline_ticks": 0},
        {"deadline_ticks": -3},
        {"degrade_high_water": 1, "degrade_low_water": 1},
        {"degrade_hysteresis_ticks": 0},
        {"retry_ratio": -0.5},
        {"retry_floor": -1},
        {"breaker_threshold": 0},
        {"breaker_cooldown_ticks": 0},
        {"surge_factor": 0.5},
        {"surge_duration_ticks": 0},
    ])
    def test_fail_fast_on_bad_knobs(self, bad):
        with pytest.raises(ValueError):
            OverloadConfig(**bad)


class TestFleetConfigValidation:
    @pytest.mark.parametrize("bad", [
        {"boards": 0},
        {"tenants_per_board": -1},
        {"ticks": -1},
        {"tick_ms": 0.0},
        {"deadline_ticks": 0},
        {"deadline_ticks": -2},
        {"checkpoint_every_ticks": -1},
        {"max_tenants_per_board": 0},
        {"workers": "threads"},
        {"rate_per_tick": -0.1},
    ])
    def test_fail_fast_on_bad_knobs(self, bad):
        with pytest.raises(ValueError):
            FleetConfig(**bad)

    def test_error_names_the_knob(self):
        with pytest.raises(ValueError, match="deadline_ticks"):
            FleetConfig(deadline_ticks=-1)
        with pytest.raises(ValueError, match="workers"):
            FleetConfig(workers="bogus")
        with pytest.raises(ValueError, match="workers"):
            FleetConfig(workers="process")      # no second board host


class TestTokenBucket:
    def test_starts_full_and_spends_whole_tokens(self):
        b = TokenBucket(rate=1.0, burst=2.0)
        assert b.try_take() and b.try_take()
        assert not b.try_take()             # empty

    def test_refill_caps_at_burst(self):
        b = TokenBucket(rate=5.0, burst=3.0)
        b.refill()
        assert b.tokens == 3.0

    def test_degrade_multiplier_scales_refill(self):
        b = TokenBucket(rate=1.0, burst=8.0)
        for _ in range(8):
            b.try_take()
        b.refill(0.5)
        assert b.tokens == 0.5
        assert not b.try_take()             # half a token is not a token
        b.refill(0.5)
        assert b.try_take()


class TestRetryBudget:
    def test_floor_admits_cold_start_retries(self):
        rb = RetryBudget(ratio=0.0, floor=2)
        assert rb.try_retry() and rb.try_retry()
        assert not rb.try_retry()
        assert rb.denied == 1

    def test_allowance_tracks_fresh_traffic(self):
        rb = RetryBudget(ratio=0.5, floor=0)
        assert not rb.try_retry()           # no fresh traffic yet
        for _ in range(4):
            rb.note_fresh()
        assert rb.allowance() == 2.0
        assert rb.try_retry() and rb.try_retry()
        assert not rb.try_retry()           # 2 < floor 0 + 0.5*4 fails

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryBudget(ratio=-0.1)
        with pytest.raises(ValueError):
            RetryBudget(floor=-1)


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        br = CircuitBreaker(threshold=2, cooldown_ticks=3)
        assert br.on_failure(1) is None
        assert br.on_failure(2) == "opened"
        assert br.state == BREAKER_OPEN and not br.allow()

    def test_success_resets_the_streak(self):
        br = CircuitBreaker(threshold=2, cooldown_ticks=3)
        br.on_failure(1)
        br.on_success(2)
        assert br.on_failure(3) is None     # streak restarted
        assert br.state == BREAKER_CLOSED

    def test_half_open_probe_closes_on_success(self):
        br = CircuitBreaker(threshold=1, cooldown_ticks=2)
        br.on_failure(1)
        assert br.on_tick(2) is None        # cooldown not elapsed
        assert br.on_tick(3) == "half_open"
        assert br.allow()                   # the probe may go out
        assert br.on_success(3) == "closed"
        assert br.state == BREAKER_CLOSED

    def test_half_open_probe_reopens_on_failure(self):
        br = CircuitBreaker(threshold=1, cooldown_ticks=1)
        br.on_failure(1)
        br.on_tick(2)
        assert br.state == BREAKER_HALF_OPEN
        assert br.on_failure(2) == "opened"
        assert br.state == BREAKER_OPEN
        assert br.open_until == 3           # cooldown restarted

    def test_transition_log_is_legal_and_chained(self):
        br = CircuitBreaker(threshold=1, cooldown_ticks=1)
        br.on_failure(1)
        br.on_tick(2)
        br.on_failure(2)
        br.on_tick(3)
        br.on_success(3)
        prev = BREAKER_CLOSED
        for _, frm, to in br.transitions:
            assert (frm, to) in BREAKER_TRANSITIONS
            assert frm == prev
            prev = to
        assert prev == BREAKER_CLOSED


def _rec(name="t0", tclass=BESTEFFORT):
    return TenantRecord(spec=TenantSpec(name=name, tclass=tclass))


class TestAdmissionController:
    def _make(self, **kw):
        cfg = OverloadConfig(**kw)
        m = MetricsRegistry()
        rec = _rec()
        adm = AdmissionController(cfg, m, [rec.spec.name])
        return cfg, m, rec, adm

    def test_rate_limit_then_queue_full(self):
        _, m, rec, adm = self._make(admit_rate=0.0, admit_burst=2.0,
                                    queue_bound=1)
        assert adm.admit(rec, t=0) is None
        rec.queue.append(0)
        assert adm.admit(rec, t=0) == DROP_QUEUE_FULL
        assert adm.admit(rec, t=0) == DROP_RATE_LIMITED   # bucket empty
        assert m.total("fleet.admission.admitted") == 1
        assert m.total("fleet.admission.dropped") == 2

    def test_begin_tick_expires_overdue_heads(self):
        _, m, rec, adm = self._make(deadline_ticks=3)
        rec.queue.extend([0, 1, 5])
        adm.begin_tick(4, {rec.spec.name: rec}, {})
        assert list(rec.queue) == [5]       # 0 and 1 are >= 3 ticks old
        assert rec.dropped[DROP_DEADLINE] == 2
        assert m.total("fleet.admission.dropped") == 2


class TestLoadShedder:
    def _shedder(self):
        cfg = OverloadConfig(degrade_high_water=2, degrade_low_water=1,
                             degrade_hysteresis_ticks=2)
        return LoadShedder(cfg, MetricsRegistry())

    def test_degrade_needs_sustained_pressure(self):
        sh = self._shedder()
        rec = _rec()
        rec.queue.extend([0, 0, 0])
        sh.step(0, {rec.spec.name: rec})
        assert sh.multiplier(rec) == 1.0    # one hot tick: not yet
        sh.step(1, {rec.spec.name: rec})
        assert sh.multiplier(rec) == 0.5    # two hysteresis ticks: level 1
        sh.step(2, {rec.spec.name: rec})
        sh.step(3, {rec.spec.name: rec})
        assert sh.multiplier(rec) == 0.25   # level 2
        for t in range(4, 10):
            sh.step(t, {rec.spec.name: rec})
        # The final level (DEGRADE_LEVELS) admits nothing, and stays:
        # a backed-up tenant is never killed by the shedder.
        assert sh.levels[rec.spec.name] == DEGRADE_LEVELS == 3
        assert sh.multiplier(rec) == 0.0
        assert [e["kind"] for e in sh.events] == ["degrade"] * 3

    def test_restore_on_sustained_calm(self):
        sh = self._shedder()
        rec = _rec()
        sh.levels[rec.spec.name] = 1
        rec.queue.clear()
        sh.step(0, {rec.spec.name: rec})
        sh.step(1, {rec.spec.name: rec})
        assert sh.levels[rec.spec.name] == 0
        assert [e["kind"] for e in sh.events] == ["restore"]

    def test_critical_tenants_untouchable(self):
        sh = self._shedder()
        rec = _rec(tclass=CRITICAL)
        rec.queue.extend([0] * 10)
        for t in range(6):
            sh.step(t, {rec.spec.name: rec})
        assert sh.multiplier(rec) == 1.0
        assert sh.events == []              # O2: no degrade, ever


ARMED = OverloadConfig(admit_rate=0.2, admit_burst=2.0, queue_bound=4,
                       deadline_ticks=4, degrade_high_water=2,
                       degrade_low_water=1, degrade_hysteresis_ticks=1,
                       retry_ratio=0.0, retry_floor=1,
                       breaker_threshold=2, breaker_cooldown_ticks=1,
                       surge_factor=12.0, surge_duration_ticks=6)


def _armed_cfg(**kw):
    return FleetConfig(boards=2, tenants_per_board=2, seed=5, ticks=20,
                       rate_per_tick=0.2, overload=ARMED, **kw)


SURGE_KILLS = (KillSpec(tick=4, board=0, site=TRAFFIC_SURGE,
                        duration_ticks=6),
               KillSpec(tick=12, board=1, site=RETRY_STORM,
                        duration_ticks=2))


class TestArmedFleet:
    def test_loaded_run_is_clean_and_engaged(self):
        payload = run_fleet(_armed_cfg(), kills=SURGE_KILLS)
        assert payload["violations"] == []
        f = payload["fleet"]
        assert f["admission_dropped"] >= 1          # surge hit the bucket
        assert f["rpc_retries_denied"] >= 1         # storm hit the budget
        assert f["breaker_opens"] >= 1
        assert f["traffic_surges"] == 1
        assert f["boards_stormed"] == 1
        assert payload["config"]["overload"] == ARMED.as_dict()
        ov = payload["overload"]
        assert sum(ov["drops_by_reason"].values()) == f["admission_dropped"]
        # O3 holds in the payload's own terms: goodput <= served.
        for td in payload["tenants"].values():
            assert td["goodput"] <= td["served"]

    def test_same_seed_runs_are_byte_identical(self):
        one = run_fleet(_armed_cfg(), kills=SURGE_KILLS)
        two = run_fleet(_armed_cfg(), kills=SURGE_KILLS)
        assert (json.dumps(one, sort_keys=True)
                == json.dumps(two, sort_keys=True))

    def test_live_invariant_sweep_is_clean(self):
        disp = Dispatcher(_armed_cfg(), kills=SURGE_KILLS)
        disp.place_initial()
        try:
            for t in range(20):
                disp.tick(t)
                assert check_overload_invariants(disp) == []
        finally:
            disp.close()

    def test_idle_plane_changes_nothing(self):
        # An unconfigured run arms NO_LIMITS, which never binds: the
        # config still reads null, the overload block stays empty and
        # every served request counts as goodput.
        base = FleetConfig(boards=2, tenants_per_board=2, seed=5, ticks=20,
                           rate_per_tick=0.2)
        one = run_fleet(base)
        two = run_fleet(base)
        assert one["config"]["overload"] is None
        assert one["overload"] == {"events": [], "breaker_transitions": [],
                                   "drops_by_reason": {}}
        assert one["fleet"]["admission_dropped"] == 0
        assert one["fleet"]["goodput"] == one["requests"]["served"]
        assert (json.dumps(one, sort_keys=True)
                == json.dumps(two, sort_keys=True))


class TestNoLimits:
    """The plane every unconfigured fleet run arms."""

    CALLS = 10_000

    def test_config_is_the_unconfigured_plane(self):
        disp = Dispatcher(FleetConfig(boards=1, tenants_per_board=0,
                                      ticks=0))
        try:
            assert disp.overload is NO_LIMITS
            assert disp.links[0].retry_budget is disp.retry_budget
        finally:
            disp.close()
        assert (NO_LIMITS.surge_factor,
                NO_LIMITS.surge_duration_ticks) == (8.0, 8)

    def test_admission_never_refuses_or_expires(self):
        m = MetricsRegistry()
        rec = _rec()
        adm = AdmissionController(NO_LIMITS, m, [rec.spec.name])
        for t in range(self.CALLS):
            adm.begin_tick(t, {rec.spec.name: rec}, {rec.spec.name: 1.0})
            assert adm.admit(rec, t) is None
            rec.queue.append(t)
        assert len(rec.queue) == self.CALLS     # the tick-0 head survives
        assert rec.dropped == {}
        assert m.total("fleet.admission.admitted") == self.CALLS
        assert m.total("fleet.admission.dropped") == 0

    def test_shedder_never_degrades_or_kills(self):
        sh = LoadShedder(NO_LIMITS, MetricsRegistry())
        rec = _rec()
        rec.queue.extend([0] * self.CALLS)
        for t in range(self.CALLS // 10):
            sh.step(t, {rec.spec.name: rec})
        assert sh.multiplier(rec) == 1.0
        assert sh.levels == {} and sh.events == []

    def test_retry_budget_never_denies(self):
        rb = NO_LIMITS.retry_budget()
        assert all(rb.try_retry() for _ in range(self.CALLS))
        assert rb.denied == 0

    def test_breaker_never_trips(self):
        br = NO_LIMITS.breaker()
        for t in range(self.CALLS):
            br.on_tick(t)
            assert br.on_failure(t) is None
            assert br.allow()
        assert br.state == BREAKER_CLOSED and br.transitions == []

    def test_unconfigured_fleet_under_faults_never_binds(self):
        # Crash, hang, storm and surge on an unconfigured fleet: nothing
        # is dropped, denied or tripped, goodput equals served, every
        # non-shed arrival is admitted, and O1-O4 hold on every tick.
        cfg = FleetConfig(boards=3, tenants_per_board=2, seed=3, ticks=40,
                          rate_per_tick=0.3)
        kills = (KillSpec(tick=4, board=0, site=TRAFFIC_SURGE),
                 KillSpec(tick=8, board=1, site=RETRY_STORM,
                          duration_ticks=3),
                 KillSpec(tick=14, board=2, site=BOARD_HANG,
                          duration_ticks=2),
                 KillSpec(tick=20, board=1, site=BOARD_CRASH))
        disp = Dispatcher(cfg, kills=kills)
        disp.place_initial()
        try:
            for t in range(cfg.ticks):
                disp.tick(t)
                assert check_overload_invariants(disp) == []
            assert disp.violations == []
            assert len(disp.kills_fired) == len(kills)
            m = disp.metrics
            assert m.total("fleet.rpc.failures") > 0
            assert m.total("fleet.goodput") \
                == m.total("fleet.requests.served") > 0
            for name in ("fleet.admission.dropped", "fleet.admission.degraded",
                         "fleet.rpc.retries_denied", "fleet.breaker.opens",
                         "fleet.breaker.short_circuits"):
                assert m.total(name) == 0, name
            for link in disp.links:
                assert link.breaker.transitions == []
            for rec in disp.tenants.values():
                assert rec.dropped == {}
                assert rec.goodput == rec.served
                arrival_shed = rec.shed_requests - rec.queue_shed
                assert rec.admitted == rec.arrived - arrival_shed
        finally:
            disp.close()


def test_brownout_demo_is_bit_identical():
    # O5 acceptance: under fabric pressure the best-effort task runs in
    # software, returns to hardware when pressure clears, and every
    # iteration's output matches the golden model bit for bit.
    demo = run_brownout_demo(seed=9)
    assert demo["ok"], demo
    assert demo["checks"]["first_iter_software"]
    assert demo["checks"]["returned_to_hardware"]
    assert demo["checks"]["bit_identical"]
    assert demo["entries"] >= 1 and demo["exits"] >= 1
    # Every iteration that ran in software was a brownout reroute.
    assert demo["reroutes"] == sum(it["software"] for it in demo["iters"])
