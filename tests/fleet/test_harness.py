"""Fleet harnesses: byte-identity, board chaos, migration proof, bench."""

import json

from repro.eval.bench import SCHEMA_VERSION
from repro.faults.explore import BOARD_SITES, run_explore
from repro.faults.plan import BOARD_CRASH
from repro.fleet.dispatcher import FleetConfig, KillSpec
from repro.fleet.harness import (FLEET_SCHEMA_VERSION, make_kill_schedule,
                                 run_fleet, run_fleet_bench,
                                 run_migration_demo)

SMALL = FleetConfig(boards=2, tenants_per_board=2, seed=3, ticks=10,
                    checkpoint_every_ticks=2, deadline_ticks=2)


def test_kill_schedule_is_seeded_and_sorted():
    a = make_kill_schedule(SMALL, kills=5)
    b = make_kill_schedule(SMALL, kills=5)
    assert a == b
    assert list(a) == sorted(a, key=lambda k: (k.tick, k.board, k.site))
    assert all(0 <= k.board < SMALL.boards for k in a)
    assert all(1 <= k.tick < SMALL.ticks for k in a)
    c = make_kill_schedule(SMALL, kills=5, seed=99)
    assert c != a                           # a different seed reshuffles


def test_run_fleet_payload_is_byte_identical():
    kills = make_kill_schedule(SMALL, kills=2)
    a = run_fleet(SMALL, kills=kills)
    b = run_fleet(SMALL, kills=kills)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["schema_version"] == FLEET_SCHEMA_VERSION
    assert a["ok"] and a["violations"] == []
    assert a["tenants_accounted"]


def test_run_fleet_under_crash_stays_clean():
    kills = (KillSpec(tick=4, board=0, site=BOARD_CRASH),)
    p = run_fleet(SMALL, kills=kills)
    assert p["ok"], p["violations"]
    assert p["boards"]["0"]["declared_dead"]
    assert p["fleet"]["boards_declared_dead"] == 1
    assert p["fleet"]["migrations"] + p["fleet"]["fresh_restarts"] >= 1
    assert p["requests"]["arrived"] == (p["requests"]["served"]
                                        + p["requests"]["shed"]
                                        + sum(t["queued"]
                                              for t in p["tenants"].values()))


def _board_chaos(target, max_runs=None):
    """Random mode over the board sites (the fleet chaos soak)."""
    return run_explore(budget=0, seed=2, random_target=target,
                       random_sites=BOARD_SITES, max_runs=max_runs)


def test_small_soak_is_clean_and_reports_incident_none():
    p = _board_chaos(3)
    assert p == _board_chaos(3)         # byte-identical run sequence
    assert p["ok"], p["failures"]
    assert p["incident"] is None
    assert p["random"]["reached_target"]
    assert p["random"]["faults_fired"] >= 3
    for run in p["schedules"]:
        assert run["ok"], run
        assert run["kind"] == "fleet"
        assert set(run["fired_sites"]) <= set(BOARD_SITES)


def test_soak_missing_target_is_checks_failed():
    p = _board_chaos(50, max_runs=1)
    assert not p["ok"]
    assert p["incident"] == "checks_failed"
    assert not p["random"]["reached_target"]


def test_migration_demo_is_bit_exact():
    demo = run_migration_demo(seed=7)
    assert demo["ok"], demo
    assert demo["bit_exact"] and demo["finished"]
    assert demo["migrations"] == 1
    assert demo["source_board"] != demo["target_board"]
    assert demo["resumed_from_frame"] <= demo["progress_at_kill"]
    assert demo["violations"] == []


def test_bench_artifact_shape():
    p = run_fleet_bench(seed=1)
    assert p["schema_version"] == SCHEMA_VERSION    # the eval.bench schema
    assert p["name"] == "fleet_quick"
    s = p["series"]
    assert set(s) == {"fleet_request_latency_cycles",
                      "fleet_critical_latency_cycles",
                      "fleet_besteffort_latency_cycles"}
    for summary in s.values():
        assert summary["count"] > 0
        assert summary["p50"] <= summary["p99"]
    t = p["totals"]
    assert s["fleet_request_latency_cycles"]["count"] == t["served"]
    assert 0 < t["goodput"] <= t["served"]
    assert t["migrations"] >= 1


def test_bench_latency_series_deterministic():
    assert run_fleet_bench(seed=1) == run_fleet_bench(seed=1)
