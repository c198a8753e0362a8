"""Random mode over the manager sites: deterministic, clean over a small
fire target, and a missed target fails (exit 1)."""

from repro.faults.explore import (EXIT_CHECKS_FAILED, EXIT_INVARIANT_VIOLATION,
                                  MANAGER_SITES, NAMED, classify_incident,
                                  incident_exit_code, run_explore,
                                  run_inline_schedule)


def _manager(target, max_runs, seed=11):
    return run_explore(budget=0, seed=seed, random_target=target,
                       random_sites=MANAGER_SITES, max_runs=max_runs)


def test_small_soak_is_clean_and_deterministic():
    a = _manager(2, 4)
    b = _manager(2, 4)
    assert a == b                       # byte-identical run sequence
    assert a["ok"]
    assert a["random"]["reached_target"]
    assert a["incident"] is None
    assert a["random"]["faults_fired"] >= 2
    for run in a["schedules"]:
        assert run["ok"], run
        assert run["kind"] == "inline"
        assert {"service.crash", "service.hang"} & set(run["fired_sites"])


def test_soak_payload_shape():
    p = _manager(1, 2)
    assert set(p) == {"schema_version", "seed", "budget", "mutate", "named",
                      "random", "pilot", "schedules", "totals", "coverage",
                      "slo", "failures", "repros", "metrics", "incident",
                      "ok"}
    assert p["pilot"] is None and p["slo"] is None
    assert set(p["random"]) == {"target", "sites", "runs", "faults_fired",
                                "reached_target"}
    r = p["schedules"][0]
    for key in ("id", "kind", "note", "faults", "seed", "fired_sites",
                "paths", "novel", "ok"):
        assert key in r
    # Each draw rides on a named inline schedule (the first is pcap-retry).
    assert r["note"].startswith("pcap-retry + service.")
    assert r["seed"] == 11


def test_unreached_target_is_checks_failed_not_ok():
    # One run cannot reach a 50-fault target: the run must be flagged as
    # checks_failed (exit 1), not as an invariant violation.
    p = _manager(50, 1)
    assert not p["ok"]
    assert not p["random"]["reached_target"]
    assert p["totals"]["failures"] == 0
    assert p["incident"] == "checks_failed"
    assert incident_exit_code(p) == EXIT_CHECKS_FAILED


class TestIncidentClassification:
    """The runner's exit-code contract (docs/RECOVERY.md §10)."""

    def test_violations_dominate(self):
        assert classify_incident(["I3: leaked PRR"], False, False) \
            == "invariant_violation"
        assert classify_incident(["x"], True, True) == "invariant_violation"

    def test_failed_checks_without_violations(self):
        assert classify_incident([], False, True) == "checks_failed"
        assert classify_incident([], True, False) == "checks_failed"

    def test_clean(self):
        assert classify_incident([], True, True) is None

    def test_exit_codes_distinct(self):
        assert incident_exit_code({"incident": None}) == 0
        assert incident_exit_code({"incident": "checks_failed"}) \
            == EXIT_CHECKS_FAILED == 1
        assert incident_exit_code({"incident": "invariant_violation"}) \
            == EXIT_INVARIANT_VIOLATION == 4
        # 4 is deliberately distinct from the SLO-breach exit (3).
        from repro.obs.slo import EXIT_SLO_BREACH
        assert EXIT_INVARIANT_VIOLATION != EXIT_SLO_BREACH
        assert incident_exit_code({"incident": "slo_breach"}) \
            == EXIT_SLO_BREACH


def test_a_draw_past_its_occurrence_budget_is_excused():
    """A drawn hang whose ``after`` outlasts the run's consults never
    fires: random mode lists it in ``may_miss``, so ``faults_fired``
    excuses it (it only adds nothing to the fire target)."""
    faults = (NAMED["pcap-retry"][1][0],
              {"site": "service.hang", "after": 7, "every": 1,
               "max_fires": 1, "probability": 1.0, "params": {}})
    strict = run_inline_schedule(faults, seed=8)
    assert strict["fired_sites"] == ["bitstream.corrupt"]
    assert not strict["checks"]["faults_fired"]
    lenient = run_inline_schedule(faults, seed=8,
                                  expect={"may_miss": ["service.hang"]})
    assert lenient["ok"], lenient["checks"]
