"""Human-readable run reports: what happened inside a scenario.

Aggregates kernel, scheduler, memory-system, fabric and per-guest
statistics into one text block — the `/proc`-style view a hypervisor
developer wants after a run.  Used by the CLI (`python -m repro`) and
handy in notebooks/tests.
"""

from __future__ import annotations

from ..common.units import cycles_to_ms
from ..hwmgr.alloc import ALLOC_OUTCOMES, RECLAIM_REASONS
from .measures import extract_overheads
from .scenarios import NativeScenario, VirtScenario


def _cache_line(name: str, stats) -> str:
    return (f"  {name:5s} accesses {stats.accesses:>10d}   "
            f"misses {stats.misses:>8d}   miss-rate {stats.miss_rate:6.2%}")


def _by_label(m, name: str, label: str, values) -> str:
    """``name``'s total per ``label`` value: ``"a 1, b 0"``."""
    return ", ".join(f"{v} {m.total(name, **{label: v})}" for v in values)


def scenario_report(sc: VirtScenario | NativeScenario) -> str:
    machine = sc.machine
    m = machine.metrics
    hz = machine.params.cpu.hz
    lines: list[str] = []
    virt = isinstance(sc, VirtScenario)
    lines.append(f"=== {'virtualized' if virt else 'native'} scenario report ===")
    lines.append(f"simulated time: {cycles_to_ms(machine.now, hz):.2f} ms")

    if virt:
        lines.append(f"kernel: {m.total('kernel.vm_switches')} VM switches, "
                     f"{m.total('kernel.hypercalls')} hypercalls, "
                     f"{m.total('kernel.irq_entries')} IRQs, "
                     f"{m.total('sched.preemptions')} preemptions")
        lines.append(
            f"manager: {m.total('hwmgr.requests')} requests ("
            f"{_by_label(m, 'hwmgr.allocations', 'outcome', ALLOC_OUTCOMES)}"
            f"; reclaims "
            f"{_by_label(m, 'hwmgr.reclaims', 'reason', RECLAIM_REASONS)})")
        guests = sc.guests
    else:
        lines.append(f"native: {m.total('kernel.irq_entries')} IRQs")
        guests = [sc.guest]

    for g in guests:
        st = g.thw_stats
        os_ = g.os
        lines.append(
            f"guest {os_.name}: ticks {os_.stats.ticks}, "
            f"ctxsw {os_.stats.ctx_switches}, isr {os_.stats.isr_count} | "
            f"T_hw ok {st.completions}/{st.requests} "
            f"(busy {st.busy}, err {st.errors}, reconfig {st.reconfigs}, "
            f"verified {st.verified_ok}/{st.verified_ok + st.verified_bad})")
        if g.gsm_stats is not None:
            lines.append(f"  workloads: gsm {g.gsm_stats.units} frames, "
                         f"adpcm {g.adpcm_stats.units} blocks")

    lines.append("fabric:")
    for prr in machine.prrs:
        i = prr.prr_id
        lines.append(
            f"  PRR{i}: task {prr.core.name if prr.core else '-':8s} "
            f"client {prr.client_vm if prr.client_vm is not None else '-':>2} "
            f"runs {m.total('prr.runs', prr=i):>4d} "
            f"reconfigs {m.total('prr.reconfigs', prr=i):>3d} "
            f"violations {m.total('prr.violations', prr=i)}")
    lines.append(f"  PCAP: {m.total('pcap.transfers')} transfers, "
                 f"{m.total('pcap.bytes_moved') // 1024} KiB")

    mem = machine.mem
    lines.append("memory system:")
    lines.append(_cache_line("L1I", mem.caches.l1i.stats))
    lines.append(_cache_line("L1D", mem.caches.l1d.stats))
    lines.append(_cache_line("L2", mem.caches.l2.stats))
    t = mem.mmu.tlb.stats
    lines.append(f"  TLB   accesses {t.accesses:>10d}   misses {t.misses:>8d}"
                 f"   miss-rate {t.miss_rate:6.2%}   walks {mem.mmu.walks}")

    o = extract_overheads(sc.tracer)
    if o.n_requests:
        s = o.summary_us(hz)
        lines.append(
            f"hw-task management (mean over {o.n_requests} requests): "
            f"entry {s['entry']:.2f} us, exec {s['execution']:.2f} us, "
            f"exit {s['exit']:.2f} us, total {s['total']:.2f} us, "
            f"PL-IRQ {s['plirq']:.2f} us")
    if virt:
        lines.append(sc.kernel.acct.render())
    return "\n".join(lines)
