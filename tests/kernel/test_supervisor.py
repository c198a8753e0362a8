"""Manager supervision end-to-end: crash/hang detection, restart,
journal-driven recovery, and guest-transparent completion."""

import pytest

from repro.eval.report import scenario_report
from repro.eval.scenarios import build_virtualized
from repro.faults.plan import (
    FaultPlan,
    FaultSpec,
    PRR_HANG,
    SERVICE_CRASH,
    SERVICE_HANG,
)
from repro.hwmgr.invariants import check_invariants


def _scenario(specs, *, seed=1):
    plan = FaultPlan(list(specs), seed=seed)
    return build_virtualized(1, seed=seed, verify=True,
                             with_workloads=False, iterations=3,
                             task_set=("fft256",), fault_plan=plan)


def test_crash_restarts_manager_and_guest_completes():
    sc = _scenario([FaultSpec(SERVICE_CRASH, after=1, max_fires=1)])
    sc.run_until_completions(3)
    k = sc.kernel
    assert k.metrics.total("supervisor.crashes") == 1
    assert k.metrics.total("supervisor.restarts") == 1
    assert k.tracer.find("manager_restart")[0].info["n"] == 1
    # The in-flight request was bounced with MANAGER_RESTARTING and the
    # guest API retried it transparently: all work still completed,
    # nothing lost, nothing double-applied.
    assert sc.guests[0].thw_stats.completions >= 3
    assert sc.guests[0].thw_stats.verified_bad == 0
    assert k.metrics.total("recovery.bounced_requests") >= 1
    assert k.manager_journal.balanced()
    assert check_invariants(k) == []
    assert k.metrics.total("supervisor.invariant_violations") == 0


def test_crash_mid_act_rolls_back_journal():
    sc = _scenario([FaultSpec(SERVICE_CRASH, max_fires=1,
                              params={"point": "alloc.mid_act"})])
    sc.run_until_completions(3)
    k = sc.kernel
    assert k.metrics.total("supervisor.restarts") == 1
    assert k.metrics.total("recovery.journal_rollbacks") >= 1
    assert k.manager_journal.balanced()
    assert check_invariants(k) == []
    assert sc.guests[0].thw_stats.completions >= 3


def test_hang_trips_deadline_and_restarts():
    sc = _scenario([FaultSpec(SERVICE_HANG, max_fires=1)])
    sc.run_until_completions(3)
    k = sc.kernel
    assert k.metrics.total("supervisor.deadline_expiries") >= 1
    assert k.metrics.total("supervisor.restarts", reason="deadline") >= 1
    assert sc.guests[0].thw_stats.completions >= 3
    assert check_invariants(k) == []


def test_restart_preserves_journal_across_instances():
    sc = _scenario([FaultSpec(SERVICE_CRASH, after=2, max_fires=1)])
    journal_before = sc.kernel.manager_journal
    sc.run_until_completions(3)
    # The write-ahead log is kernel-owned and survives the respawn.
    assert sc.kernel.manager_journal is journal_before
    # The fresh instance's allocator writes to the same journal.
    assert sc.kernel.manager_pd.runner.allocator.journal is journal_before


def test_no_faults_means_no_supervisor_activity():
    """Timing neutrality: without an injector the supervisor arms no
    deadline events and never restarts (benchmarks stay untouched)."""
    sc = build_virtualized(1, verify=True, with_workloads=False,
                           iterations=2, task_set=("fft256",))
    sc.run_until_completions(2)
    k = sc.kernel
    assert k.faults is None
    assert k.metrics.total("supervisor.crashes") == 0
    assert k.supervisor._deadline_ev is None
    assert k.metrics.total("supervisor.restarts") == 0


def _crash_run(specs):
    """Two guests, no background load, 200 ms, with the manager crashed
    once; returns the scenario, the service it was built with, and the
    counts that had been booked when the supervisor restarted it."""
    sc = build_virtualized(2, seed=1, with_workloads=False,
                           fault_plan=FaultPlan(list(specs)))
    built = sc.manager
    m, k = sc.metrics, sc.kernel
    at_restart = {}
    respawn = k.restart_manager

    def restart_manager(**kw):
        at_restart.update(
            requests=m.total("hwmgr.requests"),
            allocations=m.total("hwmgr.allocations"),
            watchdog=m.total("hwmgr.reclaims", reason="watchdog"))
        return respawn(**kw)

    k.restart_manager = restart_manager
    sc.run_ms(200.0)
    assert m.total("supervisor.restarts") == 1
    return sc, built, at_restart


def test_report_counts_requests_of_every_manager_instance():
    """The report's manager line reads ``hwmgr.requests``, so it counts
    the requests the crashed instance handled too, and
    ``VirtScenario.manager`` is the respawned service."""
    sc, built, at_restart = _crash_run([FaultSpec(SERVICE_CRASH, after=12)])
    assert sc.manager is sc.kernel.manager_pd.runner
    assert sc.manager is not built
    assert 0 < at_restart["requests"] < 9
    assert sc.metrics.total("hwmgr.requests") == 9
    assert "manager: 9 requests (" in scenario_report(sc)


def test_allocator_and_reclaim_counts_span_a_restart():
    """A watchdog reclaim before the crash and the recovery reclaim the
    respawned service makes land in one book, and so do both instances'
    allocation outcomes: one per allocation request handled."""
    sc, _, at_restart = _crash_run([
        FaultSpec(PRR_HANG, every=10, max_fires=2),
        FaultSpec(SERVICE_CRASH, after=12)])
    m = sc.metrics
    assert at_restart["watchdog"] == 1
    assert m.total("hwmgr.reclaims", reason="watchdog") == 1
    assert m.total("hwmgr.reclaims", reason="recovery") == 1
    assert m.total("prr.hangs") == m.total("recovery.watchdog_reclaims") == 1
    assert 0 < at_restart["allocations"] < m.total("hwmgr.allocations")
    assert (m.total("hwmgr.allocations")
            == m.total("hwmgr.requests", kind="request"))
