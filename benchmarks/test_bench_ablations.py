"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation flips exactly one design decision of the paper and measures
the consequence on the same workload, demonstrating *why* the paper's
choice is the right one:

* lazy vs. eager VFP switching (Table I)
* ASID-tagged TLB vs. flush-on-switch (Section III-C)
* non-blocking vs. blocking PCAP reconfiguration (Section IV-E stage 6)
* manager-preempts vs. manager-waits scheduling (Section IV-E)
* hwMMU check cost on the DMA path (Section IV-C)
"""

from __future__ import annotations

import pytest

from repro.common.params import DEFAULT_PARAMS, FpgaParams
from repro.common.units import cycles_to_us
from repro.eval.measures import extract_overheads
from repro.eval.scenarios import build_virtualized
from repro.hwmgr.service import ManagerService
from repro.kernel.core import KernelConfig
from repro.machine import MachineConfig
from repro.obs.analytics import request_events


def _mean_us(samples, hz):
    return cycles_to_us(sum(samples) / max(1, len(samples)), hz)


# --------------------------------------------------------------- abl-asid

def test_bench_ablation_asid(benchmark):
    """Without ASID tagging every VM switch flushes the TLB; the switch
    itself gets slower and the guests pay refill walks afterwards."""
    results = {}
    for use_asid in (True, False):
        sc = build_virtualized(2, seed=41, iterations=6, with_workloads=True,
                               task_set=("fft1024", "qam16"),
                               kernel_config=KernelConfig(use_asid=use_asid))
        sc.run_until_completions(12, max_ms=6000)
        hz = sc.machine.params.cpu.hz
        o = extract_overheads(sc.tracer)
        results[use_asid] = {
            "total_us": _mean_us(o.total, hz),
            "walks": sc.machine.mem.mmu.walks,
            "flushes": sc.machine.mem.mmu.tlb.stats.flushes,
        }
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info["asid_total_us"] = round(results[True]["total_us"], 2)
    benchmark.extra_info["noasid_total_us"] = round(results[False]["total_us"], 2)
    print()
    print("ABLATION — ASID-tagged TLB vs flush-on-switch")
    for k, label in ((True, "ASID (paper)"), (False, "flush-on-switch")):
        r = results[k]
        print(f"  {label:18s} total {r['total_us']:6.2f} us   walks {r['walks']:7d}"
              f"   flushes {r['flushes']:6d}")
    assert results[False]["walks"] > results[True]["walks"] * 1.2
    assert results[False]["total_us"] > results[True]["total_us"] * 0.95


# --------------------------------------------------------------- abl-lazy

def test_bench_ablation_lazy_vfp(benchmark):
    """Eager VFP switching moves 2x66 words on every switch whether or not
    anyone computes in floating point."""
    results = {}
    for lazy in (True, False):
        sc = build_virtualized(3, seed=42, iterations=4, with_workloads=True,
                               task_set=("qam4",),
                               kernel_config=KernelConfig(lazy_vfp=lazy))
        sc.run_until_completions(9, max_ms=6000)
        hz = sc.machine.params.cpu.hz
        ledger = sc.kernel.cpu.cycle_ledger
        per_switch = (ledger.get("vm_switch", 0)
                      / max(1, sc.kernel.vm_switch_count))
        results[lazy] = cycles_to_us(per_switch, hz)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info["lazy_switch_us"] = round(results[True], 3)
    benchmark.extra_info["eager_switch_us"] = round(results[False], 3)
    print()
    print("ABLATION — lazy vs eager VFP switch (mean VM-switch cost)")
    print(f"  lazy (paper): {results[True]:6.2f} us/switch")
    print(f"  eager:        {results[False]:6.2f} us/switch")
    assert results[False] > results[True]


# ------------------------------------------------------------ abl-overlap

def test_bench_ablation_pcap_overlap(benchmark):
    """Stage 6: the manager does not wait for PCAP.  Blocking inside the
    request inflates the response latency by the full reconfiguration
    time (milliseconds) while overlap keeps it in microseconds."""
    results = {}
    for blocking in (False, True):
        sc = build_virtualized(1, seed=43, iterations=5, with_workloads=False,
                               task_set=("fft2048", "fft4096"),
                               manager=ManagerService(block_on_pcap=blocking))
        sc.run_until_completions(5, max_ms=8000)
        hz = sc.machine.params.cpu.hz
        o = extract_overheads(sc.tracer)
        results[blocking] = _mean_us(o.total, hz)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info["overlap_response_us"] = round(results[False], 2)
    benchmark.extra_info["blocking_response_us"] = round(results[True], 2)
    print()
    print("ABLATION — PCAP overlap vs blocking (mean request response)")
    print(f"  non-blocking (paper): {results[False]:10.2f} us")
    print(f"  blocking:             {results[True]:10.2f} us")
    # Blocking pays milliseconds of PCAP time inside the response.
    assert results[True] > results[False] * 10


# --------------------------------------------------------------- abl-prio

def test_bench_ablation_manager_priority(benchmark):
    """The manager runs above the guests and is resumed at the front of
    its circle; making it take a normal round-robin turn delays the
    response by up to a whole quantum per competitor."""
    results = {}
    for front in (True, False):
        cfg = KernelConfig(service_resume_front=front,
                           service_priority=2 if front else 1)
        sc = build_virtualized(3, seed=44, iterations=3, with_workloads=True,
                               task_set=("qam16",), kernel_config=cfg)
        sc.run_until_completions(6, max_ms=30_000)
        hz = sc.machine.params.cpu.hz
        # Response = request queued to result posted, from the trace.
        lat = [done.t - queued.t for queued, done in request_events(
            sc.tracer, ("hwreq_queued", "hwreq_done"))]
        results[front] = _mean_us(lat, hz)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info["preempting_response_us"] = round(results[True], 2)
    benchmark.extra_info["waiting_response_us"] = round(results[False], 2)
    print()
    print("ABLATION — manager priority (request-to-result latency)")
    print(f"  preempting service (paper): {results[True]:12.2f} us")
    print(f"  equal-priority turn-taking: {results[False]:12.2f} us")
    assert results[False] > results[True] * 5


# -------------------------------------------------------------- abl-hwmmu

def test_bench_ablation_hwmmu_cost(benchmark):
    """Security is cheap: the hwMMU bounds check adds a constant couple of
    PL cycles per transfer — negligible against DMA + compute."""
    import numpy as np
    from repro.fpga.ip import make_core
    from repro.fpga.prr import CTRL_START, REG_CTRL, REG_DST, REG_LEN, REG_SRC
    from repro.machine import Machine

    lat = {}
    for check_cycles in (2, 0):
        params = DEFAULT_PARAMS.with_(
            fpga=FpgaParams(hwmmu_check_cycles=check_cycles))
        m = Machine(MachineConfig(params=params))
        m.prr_controller.finish_reconfig(0, make_core("fft1024"))
        base = m.mem.bus.dram.base + 0x0200_0000
        m.prrs[0].hwmmu.base = base
        m.prrs[0].hwmmu.limit = base + 0x10_0000
        x = (np.zeros(1024) + 1j).astype(np.complex64)
        m.mem.bus.dram.write_bytes(base, x.tobytes())
        ctl = m.prr_controller
        ctl.mmio_write(REG_SRC, base)
        ctl.mmio_write(REG_LEN, 1024 * 8)
        ctl.mmio_write(REG_DST, base + 0x8_0000)
        t0 = m.now
        ctl.mmio_write(REG_CTRL, CTRL_START)
        m.sim.advance_to_next_event()
        lat[check_cycles] = m.now - t0
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    overhead = (lat[2] - lat[0]) / lat[0]
    benchmark.extra_info["hwmmu_overhead_pct"] = round(overhead * 100, 4)
    print()
    print("ABLATION — hwMMU check on the DMA path")
    print(f"  with check:    {lat[2]} cycles")
    print(f"  without check: {lat[0]} cycles")
    print(f"  overhead:      {overhead * 100:.4f} %")
    assert lat[2] >= lat[0]
    assert overhead < 0.01       # under 1% of a task round trip
