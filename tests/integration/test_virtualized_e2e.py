"""End-to-end virtualized system: guests boot, request hardware tasks,
results verify against the DSP golden models through the whole stack."""

import pytest

from repro.eval.scenarios import build_native, build_virtualized
from repro.kernel.hypercalls import HcStatus


@pytest.mark.parametrize("use_irq", [True, False], ids=["irq", "poll"])
def test_single_guest_runs_and_verifies(use_irq):
    sc = build_virtualized(1, seed=3, use_irq=use_irq, verify=True,
                           iterations=4, with_workloads=False,
                           task_set=("fft256", "qam16"))
    sc.run_until_completions(4, max_ms=2000)
    st = sc.guests[0].thw_stats
    assert st.completions == 4
    assert st.verified_ok == 4
    assert st.verified_bad == 0


def test_two_guests_share_the_fabric():
    sc = build_virtualized(2, seed=4, verify=True, iterations=3,
                           with_workloads=False,
                           task_set=("fft512", "qam4"))
    sc.run_until_completions(6, max_ms=4000)
    for g in sc.guests:
        assert g.thw_stats.completions == 3
        assert g.thw_stats.verified_bad == 0
    # Both guests really used the PRRs.
    assert sc.metrics.total("prr.runs") >= 6


def test_reclaim_happens_under_contention():
    """Two guests fighting over the big PRRs for FFTs forces Fig. 5 moves."""
    sc = build_virtualized(2, seed=5, iterations=6, with_workloads=False,
                           task_set=("fft4096", "fft8192"))
    sc.run_until_completions(12, max_ms=8000)
    assert sc.metrics.total("hwmgr.reclaims", reason="request") >= 1
    for g in sc.guests:
        assert g.thw_stats.errors == 0


def test_manager_preempts_guests():
    """The manager PD runs at higher priority: requests are served even
    while every guest is CPU-bound."""
    sc = build_virtualized(2, seed=6, iterations=2, with_workloads=True,
                           task_set=("qam4",))
    sc.run_until_completions(4, max_ms=4000)
    assert sc.total_completions() == 4
    assert sc.metrics.total("hwmgr.requests") >= 4
    # Manager parked itself again afterwards.
    from repro.kernel.pd import PdState
    assert sc.kernel.manager_pd.state is PdState.SUSPENDED


def test_workloads_make_progress_alongside_hw_tasks():
    sc = build_virtualized(1, seed=7, iterations=3, with_workloads=True,
                           task_set=("qam16",))
    sc.run_until_completions(3, max_ms=4000)
    g = sc.guests[0]
    # Each task sleeps a tick after every 8 (GSM) or 12 (ADPCM) units, so
    # neither runs more than that many units per OS tick.
    ticks = g.os.stats.ticks
    assert 0 < g.gsm_stats.units <= 8 * (ticks + 1)
    assert 0 < g.adpcm_stats.units <= 12 * (ticks + 1)


def test_guest_ticks_advance_for_all_vms():
    sc = build_virtualized(2, seed=8, iterations=2, with_workloads=False,
                           task_set=("qam4",))
    sc.run_ms(150)
    for g in sc.guests:
        assert g.os.stats.ticks >= 3


def test_exception_stack_balanced_after_long_run():
    sc = build_virtualized(2, seed=9, iterations=3, with_workloads=False,
                           task_set=("fft256", "qam64"))
    sc.run_until_completions(6, max_ms=4000)
    assert sc.machine.cpu.exception_depth == 0


def test_native_and_virtualized_produce_identical_hw_results():
    """Same seed, same task set: the FFT/QAM outputs must match bit-for-bit
    between the native and virtualized builds (same golden path)."""
    nat = build_native(seed=11, verify=True, iterations=3,
                       with_workloads=False, task_set=("fft1024",))
    nat.run_until_completions(3, max_ms=2000)
    sc = build_virtualized(1, seed=11, verify=True, iterations=3,
                           with_workloads=False, task_set=("fft1024",))
    sc.run_until_completions(3, max_ms=2000)
    assert nat.guest.thw_stats.verified_ok == 3
    assert sc.guests[0].thw_stats.verified_ok == 3


def test_pcap_reconfigs_counted_and_bounded():
    sc = build_virtualized(1, seed=12, iterations=6, with_workloads=False,
                           task_set=("fft256", "fft512"))
    sc.run_until_completions(6, max_ms=4000)
    # Two tasks, two big PRRs: after both are resident, no more transfers.
    assert 2 <= sc.machine.pcap.transfers <= 4


def test_busy_status_when_fabric_saturated():
    """4 guests all wanting FFTs with only 2 FFT-capable PRRs: some BUSY
    responses are expected and are handled by retrying."""
    sc = build_virtualized(4, seed=13, iterations=3, with_workloads=False,
                           task_set=("fft8192",))
    sc.run_until_completions(8, max_ms=20000)
    total_busy = sum(g.thw_stats.busy for g in sc.guests)
    total_retries = sum(g.thw_stats.retries for g in sc.guests)
    assert sc.total_completions() >= 8
    assert total_busy == 0          # BUSY shows up as retries, not failures
    assert total_retries >= 0
