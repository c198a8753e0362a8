"""Per-layer metrics of one traced rep, read from outside the program.

Host time comes from the span totals of ``spans.py``; everything else is
read after the run from the program's own public registries: the
``MetricsRegistry`` and ``Tracer`` of every simulated kernel, its
``VmAccounting`` books, the cache/TLB/MMU statistics, the
``extract_overheads`` / ``dpr_chains`` stage samples and, for fleets, the
dispatcher's registry.  A metric whose layer a workload never reaches
reads 0.
"""

from __future__ import annotations

from repro.common.units import MB
from repro.eval.measures import OverheadSamples, extract_overheads
from repro.eval.table3 import PAPER_TABLE3
from repro.obs.analytics import dpr_chains, percentile_of_samples
from repro.obs.metrics import Histogram
from spans import ENTRY_POINTS, Totals

#: Per-layer metrics: name -> (unit, better).  ``<span>.calls`` and
#: ``<span>.self_s``, for a span name of ``spans.ENTRY_POINTS``, come from
#: that span's totals.
PER_LAYER = {
    "guest.bulk.calls": ("count", "lower"),
    "guest.bulk.self_s": ("s", "lower"),
    "guest.bulk.single_addr_share": ("ratio", "lower"),
    "guest.step.self_s": ("s", "lower"),
    "guest.code.self_s": ("s", "lower"),
    "mem.sample_block.calls": ("count", "lower"),
    "mem.sample_block.self_s": ("s", "lower"),
    "mem.sample_block.addrs": ("count", "lower"),
    "mem.touch.calls": ("count", "lower"),
    "mem.touch.self_s": ("s", "lower"),
    "cache.l1d_miss_ratio": ("ratio", "lower"),
    "cache.l2_miss_ratio": ("ratio", "lower"),
    "mem.tlb_miss_ratio": ("ratio", "lower"),
    "mem.walk_memo_hit_ratio": ("ratio", "higher"),
    "mem.dram_read.MB": ("MB", "lower"),
    "mem.dram_read.self_s": ("s", "lower"),
    "mem.dram_write.MB": ("MB", "lower"),
    "mem.dram_write.self_s": ("s", "lower"),
    "kernel.checkpoint.calls": ("count", "lower"),
    "kernel.checkpoint.self_s": ("s", "lower"),
    "kernel.adopt.calls": ("count", "lower"),
    "kernel.adopt.self_s": ("s", "lower"),
    "kernel.run.self_s": ("s", "lower"),
    "kernel.vm_switches": ("count", "lower"),
    "kernel.vm_switch_p50_cycles": ("cycles", "lower"),
    "kernel.hypercalls": ("count", "lower"),
    "kernel.hypercall_p50_cycles": ("cycles", "lower"),
    "kernel.virq_delivery_p50_cycles": ("cycles", "lower"),
    "kernel.overhead_share": ("ratio", "lower"),
    "fleet.board_checkpoint.calls": ("count", "lower"),
    "fleet.board_checkpoint.self_s": ("s", "lower"),
    "fleet.checkpoints_pulled": ("count", "lower"),
    "hwreq.entry_p50_cycles": ("cycles", "lower"),
    "hwreq.execution_p50_cycles": ("cycles", "lower"),
    "hwreq.exit_p50_cycles": ("cycles", "lower"),
    "hwreq.plirq_p50_cycles": ("cycles", "lower"),
    "hwreq.total_p50_cycles": ("cycles", "lower"),
    "hwreq.table3_error_pct": ("%", "lower"),
    "hwmgr.step.calls": ("count", "lower"),
    "hwmgr.step.self_s": ("s", "lower"),
    "hwmgr.requests": ("count", "higher"),
    "hwmgr.exec_p50_cycles": ("cycles", "lower"),
    "hwmgr.reuse_ratio": ("ratio", "higher"),
    "hwmgr.busy_ratio": ("ratio", "lower"),
    "dpr.entry_p50_cycles": ("cycles", "lower"),
    "dpr.decide_p50_cycles": ("cycles", "lower"),
    "dpr.pcap_p50_cycles": ("cycles", "lower"),
    "dpr.resume_p50_cycles": ("cycles", "lower"),
    "dpr.ready_p50_cycles": ("cycles", "lower"),
    "fpga.pcap_start.calls": ("count", "lower"),
    "fpga.pcap_start.self_s": ("s", "lower"),
    "fpga.pcap_transfers": ("count", "lower"),
    "fpga.pcap_MB": ("MB", "lower"),
    "fpga.prr_occupancy_share": ("ratio", "higher"),
    "sim.dispatch_due.calls": ("count", "lower"),
    "sim.dispatch_due.self_s": ("s", "lower"),
    "sim.advance.calls": ("count", "lower"),
    "sim.advance.self_s": ("s", "lower"),
    "sim.events_fired": ("count", "lower"),
    "sim.idle_share": ("ratio", "lower"),
    "obs.mark.calls": ("count", "lower"),
    "obs.mark.self_s": ("s", "lower"),
    "obs.observe.calls": ("count", "lower"),
    "obs.observe.self_s": ("s", "lower"),
    "obs.tracer_dropped": ("count", "lower"),
    "fleet.tick.self_s": ("s", "lower"),
    "fleet.request_p50_cycles": ("cycles", "lower"),
    "fleet.rpc.calls": ("count", "lower"),
    "fleet.rpc.self_s": ("s", "lower"),
    "fleet.rpc_retries": ("count", "lower"),
    "fleet.heartbeats_missed": ("count", "lower"),
    "fleet.migrations": ("count", "lower"),
    "fleet.backlog_end": ("count", "lower"),
    "fleet.admission_dropped": ("count", "lower"),
    "fleet.breaker_opens": ("count", "lower"),
    "fleet.retries_denied": ("count", "lower"),
    "sim.self_s": ("s", "lower"),
    "guest.self_s": ("s", "lower"),
    "mem.self_s": ("s", "lower"),
    "kernel.self_s": ("s", "lower"),
    "hwmgr.self_s": ("s", "lower"),
    "fpga.self_s": ("s", "lower"),
    "obs.self_s": ("s", "lower"),
    "fleet.self_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}

#: Layers whose self time is totalled as ``<layer>.self_s``.
LAYERS = ("sim", "guest", "mem", "kernel", "hwmgr", "fpga", "obs", "fleet")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _p50(samples) -> float:
    return percentile_of_samples(samples, 0.5) or 0.0


def _hist_p50(kernels, name: str) -> float:
    """p50 of one registry histogram merged across kernels (every kernel
    uses the same bucket ladder, so the merge is exact)."""
    hists = [k.metrics.histogram(name) for k in kernels]
    merged = Histogram(name, hists[0].buckets)
    for h in hists:
        if not h.count:
            continue
        merged.counts = [a + b for a, b in zip(merged.counts, h.counts)]
        merged.count += h.count
        merged.sum += h.sum
        merged.min = h.min if merged.min is None else min(merged.min, h.min)
        merged.max = h.max if merged.max is None else max(merged.max, h.max)
    return merged.percentile(0.5) or 0.0


def layer_metrics(run, outcome: dict, totals: dict, run_s: float,
                  table3_column: int | None) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_pct``, which needs
    the untraced reps and is added by ``run.py``."""
    kernels = run.kernels
    out: dict[str, float] = {}

    def total(metric: str) -> int:
        return sum(k.metrics.total(metric) for k in kernels)

    never = Totals()

    def span(name: str) -> Totals:
        return totals.get(name, never)

    spans = {name for *_, name in ENTRY_POINTS}
    for name in PER_LAYER:
        stem, _, field = name.rpartition(".")
        if stem in spans and field in ("calls", "self_s"):
            out[name] = getattr(span(stem), field)
    out["guest.bulk.single_addr_share"] = _ratio(
        span("mem.sample_block").singles, span("guest.bulk").calls)
    out["mem.sample_block.addrs"] = span("mem.sample_block").units
    out["mem.dram_read.MB"] = span("mem.dram_read").units / MB
    out["mem.dram_write.MB"] = span("mem.dram_write").units / MB

    # Modelled caches, TLB and walk memo, summed over every machine.
    caches = [k.mem.caches for k in kernels]
    mmus = [k.mem.mmu for k in kernels]
    for key, attr in (("cache.l1d_miss_ratio", "l1d"),
                      ("cache.l2_miss_ratio", "l2")):
        stats = [getattr(c, attr).stats for c in caches]
        out[key] = _ratio(sum(s.misses for s in stats),
                          sum(s.accesses for s in stats))
    out["mem.tlb_miss_ratio"] = _ratio(
        sum(m.tlb.stats.misses for m in mmus),
        sum(m.tlb.stats.accesses for m in mmus))
    out["mem.walk_memo_hit_ratio"] = _ratio(
        sum(m.walk_memo_hits for m in mmus), sum(m.walks for m in mmus))

    # Kernel: switches, hypercalls, vIRQ delivery, cycle books.
    out["kernel.vm_switches"] = sum(k.vm_switch_count for k in kernels)
    out["kernel.vm_switch_p50_cycles"] = _hist_p50(
        kernels, "kernel.vm_switch_cycles")
    out["kernel.hypercalls"] = sum(k.hypercall_count for k in kernels)
    out["kernel.hypercall_p50_cycles"] = _hist_p50(
        kernels, "kernel.hypercall_cycles")
    out["kernel.virq_delivery_p50_cycles"] = _p50(
        [s for k in kernels for s in k.acct.virq_latency_samples()])
    books = [k.acct.snapshot() for k in kernels]
    accounted = sum(b["total_accounted"] for b in books)
    out["kernel.overhead_share"] = _ratio(
        sum(b["kernel_cycles"] + sum(v["kernel_cycles"] for v in b["vms"])
            for b in books), accounted)
    out["sim.idle_share"] = _ratio(sum(b["idle_cycles"] for b in books),
                                   accounted)
    out["fpga.prr_occupancy_share"] = _ratio(
        sum(v["prr_occupancy_cycles"] for b in books for v in b["vms"]),
        sum(b["total_accounted"] * len(k.machine.prrs)
            for b, k in zip(books, kernels)))

    # Table III stages (trap -> manager -> resumed) and the DPR chains.
    stages = [extract_overheads(k.tracer) for k in kernels]
    for stage in ("entry", "execution", "exit", "plirq", "total"):
        out[f"hwreq.{stage}_p50_cycles"] = _p50(
            [s for o in stages for s in getattr(o, stage)])
    out["hwreq.table3_error_pct"] = 0.0
    if table3_column is not None:
        pooled = OverheadSamples(total=[s for o in stages for s in o.total])
        total_us = pooled.summary_us(kernels[0].machine.params.cpu.hz)["total"]
        paper = PAPER_TABLE3[table3_column]["total"]
        out["hwreq.table3_error_pct"] = 100.0 * abs(total_us - paper) / paper
    chains = [c for k in kernels for c in dpr_chains(k.tracer)]
    for stage in ("entry", "decide", "pcap", "resume", "ready"):
        out[f"dpr.{stage}_p50_cycles"] = _p50([getattr(c, stage)
                                               for c in chains])

    # Manager and fabric.
    out["hwmgr.requests"] = total("hwmgr.requests")
    out["hwmgr.exec_p50_cycles"] = _hist_p50(kernels, "hwmgr.exec_cycles")
    done = outcome.get("completions", 0)
    out["hwmgr.reuse_ratio"] = _ratio(done - outcome.get("reconfigs", 0),
                                      done)
    out["hwmgr.busy_ratio"] = _ratio(outcome.get("busy", 0),
                                     outcome["attempted"])
    out["fpga.pcap_transfers"] = total("pcap.transfers")
    out["fpga.pcap_MB"] = total("pcap.bytes_moved") / MB
    out["sim.events_fired"] = total("sim.events_fired")
    out["obs.tracer_dropped"] = sum(k.tracer.dropped for k in kernels)

    # Fleet control plane (zero on the single-machine workloads).
    fm = getattr(getattr(run, "disp", None), "metrics", None)
    out["fleet.request_p50_cycles"] = (_p50(outcome["latency"])
                                       if fm is not None else 0.0)
    for key, metric in (("fleet.checkpoints_pulled", "fleet.checkpoints.pulled"),
                        ("fleet.rpc_retries", "fleet.rpc.retries"),
                        ("fleet.heartbeats_missed", "fleet.heartbeats.missed"),
                        ("fleet.migrations", "fleet.migrations"),
                        ("fleet.admission_dropped", "fleet.admission.dropped"),
                        ("fleet.breaker_opens", "fleet.breaker.opens"),
                        ("fleet.retries_denied", "fleet.rpc.retries_denied")):
        out[key] = fm.total(metric) if fm is not None else 0
    out["fleet.backlog_end"] = outcome.get("backlog", 0)

    self_s = {name: t.self_s for name, t in totals.items()}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(s for name, s in self_s.items()
                                     if name.split(".")[0] == layer)
    out["trace.unattributed_s"] = run_s - sum(self_s.values())
    return out
