"""The delta-debugging shrinker, plus the explorer's mutation self-test:
plant a recovery regression, prove it is found, shrunk to a minimal
schedule, and replayed byte-identically (docs/FAULTS.md §5)."""

import json

from repro.faults.explore import (NAMED, execute_schedule, random_schedules,
                                  replay_repro, run_explore)
from repro.faults.shrink import (failed_checks, result_fingerprint,
                                 shrink_schedule)


def _fault(site, **kw):
    f = {"site": site, "probability": 1.0, "after": 0, "every": 1,
         "max_fires": 1, "params": {}}
    f.update(kw)
    return f


def test_fingerprint_ignores_key_order():
    a = {"ok": False, "checks": {"x": True}}
    b = {"checks": {"x": True}, "ok": False}
    assert result_fingerprint(a) == result_fingerprint(b)
    assert result_fingerprint(a) != result_fingerprint({"ok": True})


class TestSyntheticShrinks:
    """Pure-function runners: shrinker logic without scenario cost."""

    @staticmethod
    def _runner(culprit):
        def run(faults):
            bad = any(f["site"] == culprit for f in faults)
            return {"ok": not bad,
                    "checks": {"invariants_hold": not bad},
                    "violations": ["I8: stuck"] if bad else []}
        return run

    def test_two_fault_schedule_shrinks_to_the_culprit(self):
        faults = (_fault("pcap.hang"), _fault("prr.hang"))
        out = shrink_schedule(faults, runner=self._runner("prr.hang"))
        assert len(out["faults"]) == 1
        assert out["faults"][0]["site"] == "prr.hang"
        assert out["replayed_identical"]
        assert out["reasons"] == ["invariants_hold"]

    def test_output_never_grows(self):
        faults = (_fault("pcap.hang"), _fault("prr.hang"))
        out = shrink_schedule(faults, runner=self._runner("prr.hang"))
        assert len(out["faults"]) <= len(faults)

    def test_gating_tightened_when_failure_survives(self):
        faults = (_fault("prr.hang", after=5, max_fires=3,
                         probability=0.5),)
        out = shrink_schedule(faults, runner=self._runner("prr.hang"))
        f = out["faults"][0]
        assert (f["after"], f["max_fires"], f["probability"]) == (0, 1, 1.0)

    def test_single_irreducible_fault_survives(self):
        faults = (_fault("prr.hang"),)
        out = shrink_schedule(faults, runner=self._runner("prr.hang"))
        assert [f["site"] for f in out["faults"]] == ["prr.hang"]

    def test_reasons_keep_the_original_failure(self):
        """Dropping pcap.hang breaks an expectation instead of the
        original invariant: still failing, but not the same failure."""
        def run(faults):
            sites = {f["site"] for f in faults}
            checks = {"invariants_hold": sites != {"pcap.hang", "prr.hang"},
                      "path:pcap_retry": "pcap.hang" in sites}
            return {"ok": all(checks.values()), "checks": checks,
                    "violations": []}
        faults = (_fault("pcap.hang"), _fault("prr.hang"))
        assert len(shrink_schedule(faults, runner=run)["faults"]) == 1
        out = shrink_schedule(faults, runner=run,
                              reasons=["invariants_hold"])
        assert len(out["faults"]) == 2
        assert out["reasons"] == ["invariants_hold"]

    def test_nondeterministic_runner_is_flagged(self):
        flips = {"n": 0}

        def run(faults):
            flips["n"] += 1
            return {"ok": False, "checks": {}, "violations": [],
                    "noise": flips["n"]}
        out = shrink_schedule((_fault("prr.hang"),), runner=run)
        assert out["replayed_identical"] is False


def test_mutation_smoke_finds_and_shrinks_the_regression():
    """Disable the watchdog-reclaim path: the explorer must find the
    planted regression on its prr.hang schedules and shrink each failure
    to a <=2-fault, byte-identical repro."""
    payload = run_explore(budget=12, seed=7, include_fleet=False,
                          max_shrinks=1, mutate="watchdog_reclaim")
    assert payload["mutate"] == "watchdog_reclaim"
    assert payload["incident"] == "invariant_violation"
    assert payload["totals"]["failures"] >= 1
    repro = payload["repros"][0]
    assert len(repro["faults"]) <= 2
    assert repro["faults"][0]["site"] == "prr.hang"
    assert repro["replayed_identical"]
    assert "invariants_hold" in repro["reasons"]

    # The repro file round-trips: replaying it reproduces the failure
    # byte-for-byte against the recorded fingerprint.
    replay = replay_repro(json.loads(json.dumps(repro)))
    assert replay["reproduced"] and replay["still_failing"]
    assert replay["fingerprint"] == repro["fingerprint"]


def test_failing_named_schedule_shrinks_and_replays():
    """``explore --named hw-hang --mutate watchdog_reclaim``: the named
    schedule fails, shrinks to its single prr.hang fault, and the repro
    (expectations included) replays byte-identically."""
    payload = run_explore(budget=0, named=["hw-hang"], seed=7,
                          mutate="watchdog_reclaim")
    assert payload["incident"] == "invariant_violation"
    repro = payload["repros"][0]
    assert repro["from_schedule"] == "hw-hang"
    assert [f["site"] for f in repro["faults"]] == ["prr.hang"]
    assert repro["expect"] == NAMED["hw-hang"][2]
    assert repro["replayed_identical"]
    assert replay_repro(json.loads(json.dumps(repro)))["reproduced"]


def test_failing_random_schedule_shrinks_to_the_culprit():
    """A random service.crash stacked on hw-hang fails under the planted
    watchdog regression; the drawn crash is not the cause, so the
    shrinker drops it."""
    sched = next(s for s in random_schedules(7, ("service.crash",))
                 if s.note.startswith("hw-hang"))

    def runner(faults):
        return execute_schedule("inline", faults, seed=sched.seed,
                                mutate="watchdog_reclaim")

    first = runner(sched.faults)
    assert not first["ok"]
    out = shrink_schedule(sched.faults, runner=runner,
                          reasons=failed_checks(first))
    assert [f["site"] for f in out["faults"]] == ["prr.hang"]
    assert out["replayed_identical"]
