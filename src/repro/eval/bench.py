"""Benchmark-artifact pipeline: ``python -m repro bench`` → ``BENCH_*.json``.

Runs the paper scenario (Mini-NOVA + manager + n uC/OS-II guests against
the 4-PRR fabric, Fig. 8) and distils the run into one machine-readable,
schema-versioned artifact: percentile summaries (p50/p90/p99, mean,
min/max) of every latency axis the paper evaluates, plus the per-VM
accounting table.  The artifact is a pure function of (code, seed) —
it holds no host time — so same code and same seed give byte-identical
JSON, and a tier-1 test gates the committed baselines in
``benchmarks/baselines/`` by exact equality (docs/BENCHMARKS.md).

Series sources mix both measurement substrates on purpose: histogram
series exercise the bucket-estimated percentiles, exact series the
nearest-rank path — the same numbers the analytics layer serves
interactively.
"""

from __future__ import annotations

import json
from typing import Any

from ..obs.accounting import VmAccounting
from ..obs.analytics import (
    SeriesSummary,
    dpr_chains,
    dpr_stage_summaries,
    plirq_latency_samples,
)
from .measures import extract_overheads
from .scenarios import VirtScenario, build_virtualized

#: Bump when the artifact layout changes.
#: v3: drops the host-time value series; every field is simulated.
SCHEMA_VERSION = 3

#: Scenario shapes.  ``paper`` ~ the Section V setup; ``quick`` is the CI
#: smoke profile (same structure, shorter horizon).
PROFILES: dict[str, dict[str, Any]] = {
    "paper": {"guests": 3, "ms": 300.0},
    "quick": {"guests": 2, "ms": 120.0},
}


def collect_series(sc: VirtScenario) -> dict[str, SeriesSummary]:
    """Every latency series of the run, by stable artifact name."""
    k = sc.kernel
    series: dict[str, SeriesSummary] = {
        # Histogram-backed (bucket-estimated percentiles).
        "vm_switch_cycles": SeriesSummary.from_histogram(
            k.metrics.histogram("kernel.vm_switch_cycles")),
        "hypercall_cycles": SeriesSummary.from_histogram(
            k.metrics.histogram("kernel.hypercall_cycles")),
        "mgr_exec_cycles": SeriesSummary.from_histogram(
            k.metrics.histogram("hwmgr.exec_cycles")),
        # Exact-sample series (nearest-rank percentiles).
        "virq_delivery_cycles": SeriesSummary.from_samples(
            k.acct.virq_latency_samples()),
        "plirq_entry_cycles": SeriesSummary.from_samples(
            plirq_latency_samples(k.tracer)),
        # Fault-recovery latency (watchdog reclaim): zero-count in healthy
        # runs, populated when the scenario was built with a fault plan.
        "recovery_latency_cycles": SeriesSummary.from_histogram(
            k.metrics.histogram("recovery.latency_cycles")),
    }
    o = extract_overheads(k.tracer)           # Table III classes, exact
    series["hwreq_entry_cycles"] = SeriesSummary.from_samples(o.entry)
    series["hwreq_execution_cycles"] = SeriesSummary.from_samples(o.execution)
    series["hwreq_exit_cycles"] = SeriesSummary.from_samples(o.exit)
    series["hwreq_total_cycles"] = SeriesSummary.from_samples(o.total)
    chains = dpr_chains(k.tracer)             # DPR critical path, exact
    for stage, summary in dpr_stage_summaries(chains).items():
        name = ("reconfig_cycles" if stage == "ready"
                else f"dpr_{stage}_cycles")
        series[name] = summary
    return series


def bench_scenario(name: str, *, guests: int | None = None,
                   ms: float | None = None,
                   seed: int = 1) -> tuple[VirtScenario, float]:
    """Build bench profile ``name`` (``guests``/``ms`` override it);
    returns the scenario and the simulated milliseconds to run it for."""
    profile = PROFILES[name]
    guests = profile["guests"] if guests is None else guests
    ms = profile["ms"] if ms is None else ms
    return build_virtualized(guests, seed=seed), ms


def run_bench(name: str, *, seed: int, guests: int | None = None,
              ms: float | None = None) -> dict[str, Any]:
    """Run one bench profile and return the artifact payload."""
    sc, ms = bench_scenario(name, guests=guests, ms=ms, seed=seed)
    sc.run_ms(ms)
    return bench_payload(sc, name, ms=ms, seed=seed)


def bench_payload(sc: VirtScenario, name: str, *, ms: float,
                  seed: int) -> dict[str, Any]:
    """The artifact payload of bench scenario ``sc`` after its run."""
    k = sc.kernel
    acct: VmAccounting = k.acct
    series = {n: s.as_dict() for n, s in sorted(collect_series(sc).items())}
    return {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "scenario": {
            "guests": len(sc.guests),
            "ms": ms,
            "seed": seed,
            "cpu_hz": sc.machine.params.cpu.hz,
        },
        "totals": {
            "cycles": k.sim.now,
            "vm_switches": k.metrics.total("kernel.vm_switches"),
            "hypercalls": k.metrics.total("kernel.hypercalls"),
            "irqs": k.metrics.total("kernel.irq_entries"),
            "manager_requests": k.metrics.total("hwmgr.requests"),
            "pcap_transfers": k.metrics.total("pcap.transfers"),
            "completions": sc.total_completions(),
        },
        "series": series,
        # VM lifecycle accounting (docs/RECOVERY.md §9).  All-zero in
        # fault-free profiles — the lifecycle schedules nothing unless a
        # VM dies or a checkpoint period is armed, so these rows prove
        # the bench ran clean (and diff against a kill-plan bench).
        "vm_lifecycle": {
            "checkpoints": k.metrics.total("vm.lifecycle.checkpoints"),
            "restarts": k.metrics.total("vm.lifecycle.restarts"),
            "restores": k.metrics.total("vm.lifecycle.restores"),
            "halts": k.metrics.total("vm.lifecycle.halts"),
            "virqs_replayed": k.metrics.total("vm.lifecycle.virqs_replayed"),
            "virqs_dropped": k.metrics.total("vm.lifecycle.virqs_dropped"),
            "virqs_dead_epoch": k.metrics.total(
                "vm.lifecycle.virqs_dead_epoch"),
            "client_reclaims": k.metrics.total(
                "vm.lifecycle.client_reclaims"),
            "checkpoint_cycles": SeriesSummary.from_histogram(
                k.metrics.histogram("vm.lifecycle.checkpoint_cycles"))
            .as_dict(),
            "restore_cycles": SeriesSummary.from_histogram(
                k.metrics.histogram("vm.lifecycle.restore_cycles"))
            .as_dict(),
        },
        # Fault/recovery accounting (docs/FAULTS.md).  All-zero in the
        # default healthy-fabric profiles — the counters exist so a
        # fault-plan bench can be diffed against a healthy baseline.
        "faults": {
            "injected": k.metrics.total("fault.injected"),
            "pcap_errors": k.metrics.total("pcap.errors"),
            "pcap_retries": k.metrics.total("recovery.pcap_retries"),
            "pcap_giveups": k.metrics.total("recovery.pcap_giveups"),
            "watchdog_reclaims": k.metrics.total(
                "recovery.watchdog_reclaims"),
            "sw_fallbacks": k.metrics.total("recovery.sw_fallbacks"),
            "vm_kills": k.metrics.total("kernel.vm_kills"),
            "hypercall_faults": k.metrics.total("kernel.hypercall_faults"),
            "plirq_spurious": k.metrics.total("kernel.plirq_spurious"),
        },
        "accounting": acct.snapshot(),
    }


def write_bench(payload: dict[str, Any], path: str) -> None:
    """Write the artifact deterministically (sorted keys, stable floats)."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def default_artifact_path(name: str) -> str:
    return f"BENCH_{name}.json"
