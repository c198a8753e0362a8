"""Manager supervision end-to-end: crash/hang detection, restart,
journal-driven recovery, and guest-transparent completion."""

import pytest

from repro.eval.scenarios import build_virtualized
from repro.faults.plan import (
    FaultPlan,
    FaultSpec,
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
