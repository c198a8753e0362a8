"""The named schedules end-to-end: every one passes the shared oracle and
its own expectations, and runs are deterministic (same seed →
byte-identical JSON).

These are the recovery classes of docs/FAULTS.md §3, run the way the CI
``explore`` job runs them (``python -m repro explore --named all``).
"""

import json

import pytest

from repro.faults.explore import (NAMED, execute_schedule, named_schedule,
                                  run_explore)


def _run(name, seed):
    s = named_schedule(name, seed)
    return execute_schedule(s.kind, s.faults, seed=seed, expect=s.expect)


@pytest.mark.parametrize("name", sorted(NAMED))
def test_scenario_passes_own_checks(name):
    r = _run(name, 1)
    failed = [k for k, v in r["checks"].items() if not v]
    assert r["ok"], f"{name}: failed checks {failed}; paths={r['paths']}"
    # Every named schedule actually injected something, and carries its
    # expectations into the check map.
    assert any(st["fires"] for st in r["fired"].values())
    assert any(":" in k for k in r["checks"])


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError, match="no-such-scenario"):
        run_explore(budget=0, named=["no-such-scenario"])


def test_scenario_deterministic_same_seed():
    a = _run("pcap-retry", 9)
    b = _run("pcap-retry", 9)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_scenario_seed_changes_trace():
    """Different seeds change at least the recorded seed/cycle budget —
    runs are reproducible per seed, not globally identical."""
    a = _run("pcap-retry", 1)
    b = _run("pcap-retry", 2)
    assert a["seed"] != b["seed"]
    assert a["ok"] and b["ok"]


def test_run_all_aggregates():
    payload = run_explore(budget=0, named=list(NAMED), seed=1)
    assert [s["id"] for s in payload["schedules"]] == list(NAMED)
    assert payload["ok"] and payload["incident"] is None
    # Named-only runs are not gated on the exploration coverage floor.
    assert payload["coverage"]["site_fraction"] < 1.0
