"""The fault-schedule runner: tracker units, pilot shape, the shared
oracle, named-schedule expectations, the surge SLO gates, and same-seed
byte-identity (docs/FAULTS.md §5)."""

import json

import pytest

from repro.faults.coverage import CoverageTracker, paths_fired
from repro.faults.explore import (
    EXIT_COVERAGE_FLOOR,
    NAMED,
    Schedule,
    _expect_checks,
    _inline_singles,
    _windows,
    classify_incident,
    incident_exit_code,
    run_explore,
    run_inline_schedule,
    run_pilot,
    surge_gates,
)
from repro.faults.registry import ALL_SITES, RECOVERY_PATHS


class TestCoverageTracker:
    def test_first_observation_is_novel(self):
        t = CoverageTracker()
        assert t.observe(["prr.hang"], ["watchdog_reclaim"]) is True

    def test_repeat_observation_is_not_novel(self):
        t = CoverageTracker()
        t.observe(["prr.hang"], ["watchdog_reclaim"])
        assert t.observe(["prr.hang"], ["watchdog_reclaim"]) is False

    def test_new_pair_on_known_path_is_novel(self):
        t = CoverageTracker()
        t.observe(["prr.hang"], ["watchdog_reclaim"])
        assert t.observe(["service.crash"], ["watchdog_reclaim"]) is True

    def test_predicted_gain_prefers_uncovered_paths(self):
        t = CoverageTracker()
        before = t.predicted_gain(["prr.hang"])
        t.observe(["prr.hang"], ["watchdog_reclaim"])
        assert t.predicted_gain(["prr.hang"]) < before

    def test_report_floor_requires_all_sites(self):
        t = CoverageTracker()
        for s in ALL_SITES:
            t.observe([s], list(RECOVERY_PATHS))
        r = t.report(floor=0.9)
        assert r["floor_ok"] and r["site_fraction"] == 1.0
        assert r["uncovered_sites"] == [] and r["uncovered_paths"] == []

    def test_report_floor_fails_on_missing_site(self):
        t = CoverageTracker()
        for s in ALL_SITES[:-1]:
            t.observe([s], list(RECOVERY_PATHS))
        assert not t.report(floor=0.9)["floor_ok"]


def test_paths_fired_reads_registry_metrics():
    totals = {"recovery.watchdog_reclaims": 2, "supervisor.restarts": 1}
    fired = paths_fired(lambda n: totals.get(n, 0))
    assert fired == ("manager_respawn", "watchdog_reclaim")


def test_windows_are_sorted_within_budget():
    assert _windows(0) == (0,)
    assert _windows(1) == (0,)
    assert _windows(6) == (0, 2, 4)
    for w in _windows(36):
        assert 0 <= w < 36


def test_schedule_sites_sorted_unique():
    s = Schedule("s000", "inline",
                 ({"site": "prr.hang"}, {"site": "pcap.hang"},
                  {"site": "prr.hang"}))
    assert s.sites() == ("pcap.hang", "prr.hang")
    assert s.as_dict()["id"] == "s000"


def test_coverage_floor_exit_classification():
    incident = classify_incident([], True, True, coverage_ok=False)
    assert incident == "coverage_floor"
    assert incident_exit_code({"incident": incident}) == \
        EXIT_COVERAGE_FLOOR == 3
    # Corruption and failed checks still dominate a missed floor.
    assert classify_incident(["I1: bad"], True, True,
                             coverage_ok=False) == "invariant_violation"
    assert classify_incident([], False, True,
                             coverage_ok=False) == "checks_failed"


@pytest.fixture(scope="module")
def pilot():
    return run_pilot(3)


def test_pilot_counts_every_consulted_site(pilot):
    occ = pilot["occurrences"]
    for site in ("pcap.transfer_error", "prr.hang", "service.crash",
                 "service.hang"):
        assert occ[site] >= 1, site


def test_pilot_landmarks_inside_the_run(pilot):
    lm = pilot["landmarks"]
    assert 0 < lm["reconfig_mid"] < lm["exec_mid"] < pilot["cycles"]
    assert 0 < lm["mid_run"] <= pilot["cycles"]


def test_unknown_mutation_rejected():
    with pytest.raises(ValueError, match="watchdog_reclaim"):
        run_explore(budget=1, seed=1, mutate="nonsense")


def test_inline_schedule_result_is_json_stable():
    res = run_inline_schedule(
        ({"site": "pcap.transfer_error", "probability": 1.0, "after": 0,
          "every": 1, "max_fires": 1, "params": {}},), seed=5)
    blob = json.dumps(res, sort_keys=True)
    assert json.loads(blob) == res
    assert res["ok"] and "pcap.transfer_error" in res["fired_sites"]
    assert "pcap_retry" in res["paths"]


def test_small_budget_explore_is_byte_identical():
    """The acceptance property at test scale: same (budget, seed) ⇒
    byte-identical payload, including the coverage report and metrics."""
    kw = dict(budget=4, seed=3, include_fleet=False)
    p1, p2 = run_explore(**kw), run_explore(**kw)
    b1 = json.dumps(p1, sort_keys=True, separators=(",", ":"))
    b2 = json.dumps(p2, sort_keys=True, separators=(",", ":"))
    assert b1 == b2
    assert p1["totals"]["executed"] == 4
    assert p1["totals"]["failures"] == 0
    # A 4-schedule run cannot cover 14 sites: the floor gate must trip.
    assert p1["incident"] == "coverage_floor" and not p1["ok"]
    assert p1["metrics"]["explore.schedules"] == 4


def _crash_at(point):
    return {"site": "service.crash", "probability": 1.0, "after": 0,
            "every": 1, "max_fires": 1, "params": {"point": point}}


def test_armed_site_that_never_fires_fails_the_oracle():
    """reclaim.pre_commit is consulted only after a watchdog expiry or a
    client death: armed alone in a clean run it never fires, and the
    ``faults_fired`` check must refuse to count that as a pass."""
    res = run_inline_schedule((_crash_at("reclaim.pre_commit"),), seed=7)
    assert res["fired_sites"] == []
    assert res["checks"]["faults_fired"] is False and not res["ok"]


def test_reclaim_crashpoint_enumerated_with_a_hang_trigger(pilot):
    faults = next(f for f, note in _inline_singles(pilot)
                  if note == "service.crash @reclaim.pre_commit")
    assert [f["site"] for f in faults] == ["service.crash", "prr.hang"]
    res = run_inline_schedule(faults, seed=7)
    assert res["ok"], res["checks"]
    assert res["fired_sites"] == ["prr.hang", "service.crash"]
    assert {"journal_replay", "manager_respawn"} <= set(res["paths"])


class TestExpectations:
    """Named-schedule expectations are data evaluated into checks."""

    COUNTS = {"pcap_retry": 2, "watchdog_reclaim": 1}

    def _checks(self, expect, extra=None):
        return _expect_checks(expect, lambda p: self.COUNTS.get(p, 0),
                              lambda s: {"prr.hang": 2}.get(s, 0),
                              extra or {})

    def test_at_least_once_and_exact_counts(self):
        c = self._checks({"paths": {"pcap_retry": None,
                                    "watchdog_reclaim": 1,
                                    "pcap_abort": None}})
        assert c == {"path:pcap_retry": True, "path:watchdog_reclaim": True,
                     "path:pcap_abort": False}
        assert self._checks({"paths": {"pcap_retry": 1}}) \
            == {"path:pcap_retry": False}

    def test_forbidden_fires_and_extra_checks(self):
        c = self._checks({"forbid": ["pcap_retry", "pcap_abort"],
                          "fires": {"prr.hang": 2},
                          "checks": ["drained"]},
                         extra={"drained": lambda: False})
        assert c == {"forbid:pcap_retry": False, "forbid:pcap_abort": True,
                     "fires:prr.hang": True, "drained": False}

    def test_forbidden_path_that_fires_fails_the_run(self):
        """pcap-fail's fault under pcap-retry's expectations: the
        forbidden pcap_abort path fires, so the schedule fails."""
        res = run_inline_schedule(NAMED["pcap-fail"][1], seed=7,
                                  expect=NAMED["pcap-retry"][2])
        assert res["checks"]["forbid:pcap_abort"] is False
        assert res["checks"]["invariants_hold"] and not res["ok"]


def _fleet_result(p99, crit=(9, 20), be=(4, 10), **fleet):
    counters = {"admission_dropped": 5, "admission_degraded": 1,
                "breaker_opens": 1, "rpc_retries_denied": 1, **fleet}
    return {"critical_p99": p99, "fleet": counters,
            "classes": {"critical": {"goodput": crit[0],
                                     "admitted": crit[1]},
                        "besteffort": {"goodput": be[0], "arrived": be[1]}}}


class TestSurgeGates:
    BASE = _fleet_result(100.0, crit=(10, 20), be=(8, 10))
    DEMO = {"checks": {"bit_identical": True}, "ok": True}

    def _gates(self, runs, demo=DEMO):
        return surge_gates(self.BASE, runs, demo)

    def test_all_gates_hold(self):
        g = self._gates([_fleet_result(105.0, be=(6, 10)),
                         _fleet_result(110.0, be=(4, 10))])
        assert all(gate["ok"] for gate in g.values()), g
        assert g["critical_goodput_floor"]["min_ratio"] == 0.275

    def test_p99_slack(self):
        g = self._gates([_fleet_result(110.5)])
        assert not g["critical_p99"]["ok"]
        assert g["critical_p99"]["worst"] == 110.5

    def test_relative_goodput_floor(self):
        # 0.55 x the baseline ratio 0.5 = 0.275: 5/20 = 0.25 breaches.
        g = self._gates([_fleet_result(100.0, crit=(5, 20))])
        assert not g["critical_goodput_floor"]["ok"]
        # Below 8 admitted the ratio is meaningless and never counts.
        g = self._gates([_fleet_result(100.0, crit=(0, 7))])
        assert g["critical_goodput_floor"]["worst"] is None

    def test_besteffort_fraction_must_not_increase(self):
        g = self._gates([_fleet_result(100.0, be=(4, 10)),
                         _fleet_result(100.0, be=(5, 10))])
        assert not g["besteffort_degrades"]["ok"]
        assert g["besteffort_degrades"]["fractions"] == [0.4, 0.5]
        g = self._gates([_fleet_result(100.0, be=(8, 10))])
        assert not g["besteffort_degrades"]["ok"]   # never fell below base

    def test_every_control_and_the_demo(self):
        g = self._gates([_fleet_result(100.0, breaker_opens=0)],
                        demo={"checks": {"entered": False}, "ok": False})
        assert not g["controls_engaged"]["ok"]
        assert not g["controls_engaged"]["breaker"]
        assert not g["brownout_demo"]["ok"]

    def test_breach_classifies_as_slo_breach_exit_3(self):
        g = self._gates([_fleet_result(200.0)])
        incident = classify_incident(
            [], True, True, slo_ok=all(x["ok"] for x in g.values()))
        assert incident == "slo_breach"
        assert incident_exit_code({"incident": incident}) == 3


def test_random_mode_rejects_sites_without_a_draw_rule():
    with pytest.raises(ValueError, match="prr.hang"):
        run_explore(budget=0, random_target=1, random_sites=("prr.hang",))


def test_flight_rule_first_failure_replaces_first_fired(tmp_path):
    """One bundle per invocation: the first schedule in which a fault
    fired, until a schedule fails — its bundle replaces that one."""
    path = tmp_path / "flight.json"
    kw = dict(budget=0, seed=7, max_shrinks=0, flight_path=str(path))
    run_explore(named=["pcap-retry"], **kw)
    assert json.loads(path.read_text())["reason"] == "fault_replay"
    p = run_explore(named=["pcap-retry", "hw-hang"],
                    mutate="watchdog_reclaim", **kw)
    assert [f["id"] for f in p["failures"]] == ["hw-hang"]
    bundle = json.loads(path.read_text())
    assert bundle["reason"] == "explore_failure"
    assert "prr.hang" in bundle["fault_plan"]["sites"]


def test_cli_lists_sites_and_rejects_bad_mode_arguments(capsys):
    from repro.__main__ import main
    assert main(["explore", "--list"]) == 0
    out = capsys.readouterr().out
    assert "service.crash" in out and "[--random]" in out
    for name in (*NAMED, "surge"):
        assert f"  {name} " in out
    assert main(["explore", "--random", "3"]) == 2
    assert main(["explore", "--sites", "vm.kill"]) == 2
    assert main(["explore", "--named", "nope"]) == 2
    assert "unknown named schedule 'nope'" in capsys.readouterr().err


def test_cli_rejects_bad_numbers_with_exit_2(tmp_path, capsys):
    """A non-positive stream cadence fails at parse time, before any
    stream file exists; an invalid fleet shape prints ``error:``."""
    from repro.__main__ import main
    out = tmp_path / "stream.jsonl"
    for argv in (["run", "--stream-interval-ms", "0"],
                 ["bench", "--quick", "--stream-interval-ms", "-5"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--stream-out", str(out)])
        assert exc.value.code == 2
        assert "--stream-interval-ms" in capsys.readouterr().err
    assert main(["fleet", "--boards", "0", "--stream-out", str(out)]) == 2
    assert "error: need at least one board" in capsys.readouterr().err
    assert main(["fleet", "--ticks", "-1"]) == 2
    assert "error: ticks must be >= 0" in capsys.readouterr().err
    assert not out.exists()
