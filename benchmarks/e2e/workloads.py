"""The four benchmark workloads: how each is built, run and checked.

A workload is built from a seed (the set-up phase), driven through its run
phase, then read back: the simulated-domain outcome of the rep and the
correctness-gate failures.  The run phase can be driven in slices
(``run_slice``); slicing changes nothing in the simulation, it only lets
``rep.py`` time the machine between slices.  This module runs inside one
rep's child process (see ``rep.py``); the parent never imports the
simulator.

Two families share one shape:

* ``VmWorkload`` — one Mini-NOVA machine running the paper's Section V
  scenario (``build_virtualized``), every T_hw result verified against the
  DSP golden models.
* ``FleetWorkload`` — a supervised multi-board fleet (``Dispatcher``) with
  a fixed board-fault schedule, boards hosted in-process so a rep never has
  more than one live simulation process.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.eval.measures import extract_overheads
from repro.eval.scenarios import build_virtualized
from repro.faults.plan import (BOARD_CRASH, BOARD_HANG, RETRY_STORM,
                               TRAFFIC_SURGE)
from repro.fleet.dispatcher import Dispatcher, FleetConfig, KillSpec
from repro.fleet.harness import SOAK_OVERLOAD
from repro.hwmgr.invariants import check_invariants, check_lifecycle_invariants


def kernel_failures(kernel, tag: str) -> list[str]:
    """Correctness checks every simulated machine must pass after a run:
    the per-VM cycle books balance exactly and no trace event was lost
    (a dropped event would silently shorten the latency series)."""
    out = []
    acct = kernel.acct
    acct.settle()
    elapsed = kernel.sim.now - acct.start_cycle
    if acct.total_accounted() != elapsed:
        out.append(f"{tag}: accounting {acct.total_accounted()} "
                   f"!= {elapsed} cycles")
    if kernel.tracer.dropped:
        out.append(f"{tag}: tracer dropped {kernel.tracer.dropped} events")
    return out


@dataclass(frozen=True)
class VmWorkload:
    """One machine: Mini-NOVA + manager + ``guests`` uC/OS-II guests."""

    guests: int
    with_workloads: bool
    tick_hz: int
    ms: float
    #: The paper's Table III column this setup reproduces, if any.
    table3_column: int | None = None

    def build(self, seed: int, scale: float = 1.0) -> "VmRun":
        sc = build_virtualized(self.guests, seed=seed,
                               with_workloads=self.with_workloads,
                               verify=True, tick_hz=self.tick_hz)
        return VmRun(sc, self.ms * scale)


class VmRun:
    def __init__(self, sc, ms: float) -> None:
        self.sc = sc
        self.ms = ms
        self.kernels = [sc.kernel]
        self.start_cycle = sc.machine.now
        self.cycles = int(ms * 1e-3 * sc.machine.params.cpu.hz)

    def run(self) -> None:
        self.sc.run_ms(self.ms)

    def run_slice(self, i: int, n: int) -> None:
        """Slice ``i`` of ``n`` of ``run``: the kernel loop keeps no state
        between iterations, so stopping at each slice deadline and going
        on is the same run."""
        self.sc.kernel.run(
            until_cycles=self.start_cycle + (i + 1) * self.cycles // n)

    def outcome(self) -> dict:
        sc = self.sc
        stats = [g.thw_stats for g in sc.guests]
        return {
            "cycles": sc.machine.now - self.start_cycle,
            "sim_s": self.ms / 1000.0,
            "attempted": sum(s.requests for s in stats),
            "ok": sum(s.verified_ok for s in stats),
            # Table III total: HW-task trap -> requester resumed.
            "latency": extract_overheads(sc.tracer).total,
            "completions": sum(s.completions for s in stats),
            "busy": sum(s.busy for s in stats),
            "errors": sum(s.errors for s in stats),
            "reconfigs": sum(s.reconfigs for s in stats),
            "pcap_transfers": sc.machine.pcap.transfers,
        }

    def failures(self) -> list[str]:
        sc = self.sc
        out = kernel_failures(sc.kernel, "kernel")
        for g in sc.guests:
            s = g.thw_stats
            if s.verified_bad:
                out.append(f"{g.os.name}: {s.verified_bad} results differ "
                           f"from the golden model")
            if s.verified_ok != s.completions:
                out.append(f"{g.os.name}: verified {s.verified_ok} of "
                           f"{s.completions} completions")
        out += [f"invariant: {v}" for v in check_invariants(sc.kernel)
                + check_lifecycle_invariants(sc.kernel)]
        return out

    def close(self) -> None:
        pass


@dataclass(frozen=True)
class FleetWorkload:
    """N boards behind one dispatcher, with a fixed fault schedule."""

    boards: int
    ticks: int
    rate_per_tick: float
    kills: tuple[KillSpec, ...]
    surge_factor: float | None = None

    def build(self, seed: int, scale: float = 1.0) -> "FleetRun":
        cfg = FleetConfig(
            boards=self.boards, tenants_per_board=2, seed=seed,
            ticks=max(1, round(self.ticks * scale)),
            rate_per_tick=self.rate_per_tick, workers="inline",
            overload=(None if self.surge_factor is None
                      else SOAK_OVERLOAD.scaled_surge(self.surge_factor)))
        disp = Dispatcher(cfg, kills=self.kills)
        # Inline hosting keeps every board in this process; hold on to the
        # servers so a board's books can still be read after it crashes.
        boards = [link.host._server for link in disp.links]
        disp.place_initial()
        return FleetRun(disp, boards)


class FleetRun:
    def __init__(self, disp: Dispatcher, boards: list) -> None:
        self.disp = disp
        self.boards = boards
        self.kernels = [b.kernel for b in boards]
        self.start_cycles = [k.sim.now for k in self.kernels]

    def run(self) -> None:
        for t in range(self.disp.cfg.ticks):
            self.disp.tick(t)

    def run_slice(self, i: int, n: int) -> None:
        """Slice ``i`` of ``n`` of ``run``, in whole ticks."""
        ticks = self.disp.cfg.ticks
        for t in range(i * ticks // n, (i + 1) * ticks // n):
            self.disp.tick(t)

    def outcome(self) -> dict:
        disp = self.disp
        m = disp.metrics
        cfg = disp.cfg
        return {
            "cycles": sum(k.sim.now - s for k, s in
                          zip(self.kernels, self.start_cycles)),
            "sim_s": cfg.ticks * cfg.tick_ms / 1000.0,
            # Every arrival is an attempt; only requests served within the
            # overload deadline count as OK, so admission drops, sheds and
            # the backlog left at the horizon are all failures.
            "attempted": m.total("fleet.requests.arrived"),
            "ok": m.total("fleet.goodput"),
            # Request arrival -> served, in cycles.
            "latency": list(disp.latency["all"]),
            "served": m.total("fleet.requests.served"),
            "backlog": sum(len(r.queue) for r in disp.tenants.values()),
            "admission_dropped": m.total("fleet.admission.dropped"),
            "shed": m.total("fleet.requests.shed"),
            "migrations": m.total("fleet.migrations"),
            "checkpoints_pulled": m.total("fleet.checkpoints.pulled"),
        }

    def failures(self) -> list[str]:
        disp = self.disp
        out = [f"fleet: {v}" for v in disp.violations]
        if len(disp.kills_fired) != len(disp.kills):
            out.append(f"fleet: {len(disp.kills_fired)} of "
                       f"{len(disp.kills)} scheduled faults fired")
        for link in disp.links:
            if link.reachable:
                out += [f"board {link.board_id}: {v}"
                        for v in link.call("invariants")]
        for i, k in enumerate(self.kernels):
            out += kernel_failures(k, f"board {i}")
        return out

    def close(self) -> None:
        self.disp.close()


#: Horizons keep the ``ROUNDS`` reps of one workload's run to about 13 s
#: (VM workloads) and 25 s (fleets) at the reference machine speed, so the
#: whole benchmark fits its time limit on a busy host.  The fleets are about
#: as short as the 200-sample p95 guard and their cross-seed spread allow;
#: the VM workloads pool about 300 (section5_mix) and 500 (dpr_hotpath)
#: latency samples.
WORKLOADS = {
    # The paper's Section V / Table III setup: GSM + ADPCM background load
    # plus T_hw over the 9-task set, so the hardware-task path runs out of
    # a polluted cache.
    "section5_mix": VmWorkload(guests=3, with_workloads=True, tick_hz=100,
                               ms=1400.0, table3_column=3),
    # Request-dense, no background load: the kernel -> manager -> PCAP path
    # carries most of the simulated work.
    "dpr_hotpath": VmWorkload(guests=4, with_workloads=False, tick_hz=1000,
                              ms=400.0),
    # Fleet failover: a crash and a hang under light traffic (below the
    # service rate), with periodic checkpoint pulls and two migrations.
    "fleet_failover": FleetWorkload(
        boards=3, ticks=240, rate_per_tick=0.05,
        kills=(KillSpec(tick=72, board=1, site=BOARD_CRASH),
               KillSpec(tick=144, board=2, site=BOARD_HANG,
                        duration_ticks=2))),
    # The same fleet layer under overload: surges, retry storms and a
    # crash, so admission drops happen beside serves.
    "fleet_surge": FleetWorkload(
        boards=4, ticks=176, rate_per_tick=0.1, surge_factor=8.0,
        kills=(KillSpec(tick=16, board=0, site=TRAFFIC_SURGE,
                        duration_ticks=12),
               KillSpec(tick=34, board=1, site=RETRY_STORM,
                        duration_ticks=2),
               KillSpec(tick=100, board=2, site=BOARD_CRASH),
               KillSpec(tick=144, board=0, site=TRAFFIC_SURGE,
                        duration_ticks=12),
               KillSpec(tick=162, board=3, site=RETRY_STORM,
                        duration_ticks=2))),
}
