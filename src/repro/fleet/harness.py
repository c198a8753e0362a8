"""Fleet run harnesses: traffic runs, migration proof, brownout proof, bench.

Entry points behind ``python -m repro fleet``:

* :func:`run_fleet` — one open-loop traffic run over a
  :class:`~repro.fleet.dispatcher.FleetConfig`, with an optional board
  kill schedule.  Returns a JSON-stable payload (byte-identical across
  same-seed reruns — the CI gate diffs two of them).
* :func:`run_migration_demo` — the acceptance proof: a restartable
  FFT/QAM tenant is killed mid-run with its board and must finish on
  another board with **bit-exact** final output, resuming from a frame
  no later than the one it had reached.

The fault-schedule runner (:mod:`repro.faults.explore`) drives board
chaos and the surge series through :func:`run_fleet`, with the
:data:`EXPLORE_OVERLOAD` / :data:`SOAK_OVERLOAD` planes defined here;
the surge series also gates on :func:`run_brownout_demo` (O5).

:func:`run_fleet_bench` produces the ``BENCH_fleet_quick.json`` bench
artifact, which a tier-1 test holds equal to its committed baseline.
"""

from __future__ import annotations

from typing import Any

from ..common.rng import make_rng
from ..eval.bench import SCHEMA_VERSION
from ..faults.coverage import paths_fired
from ..faults.plan import BOARD_CRASH, BOARD_HANG, BOARD_PARTITION
from ..obs.aggregate import MetricSnapshot
from ..obs.analytics import SeriesSummary
from ..obs.flight import write_bundle
from .dispatcher import Dispatcher, FleetConfig, KillSpec
from .overload import OverloadConfig
from .tenant import CRITICAL, DEAD, RUNNING, SHED, TenantSpec

#: Payload schema for fleet runs (independent of the bench schema).
FLEET_SCHEMA_VERSION = 3


def make_kill_schedule(cfg: FleetConfig, *, kills: int,
                       seed: int | None = None,
                       sites: tuple[str, ...] = (BOARD_CRASH, BOARD_HANG,
                                                 BOARD_PARTITION)
                       ) -> tuple[KillSpec, ...]:
    """A seeded board-fault schedule: ``kills`` candidate events, fixed
    draw count each, spread over the run's middle ticks."""
    rng = make_rng(cfg.seed if seed is None else seed, stream="fleet-kills")
    hi = max(3, cfg.ticks - cfg.deadline_ticks - 2)
    out = []
    for _ in range(kills):
        tick = int(rng.integers(1, hi))
        board = int(rng.integers(0, cfg.boards))
        site = sites[int(rng.integers(0, len(sites)))]
        duration = 1 + int(rng.integers(0, cfg.deadline_ticks + 2))
        out.append(KillSpec(tick=tick, board=board, site=site,
                            duration_ticks=duration))
    return tuple(sorted(out, key=lambda k: (k.tick, k.board, k.site)))


def run_fleet(cfg: FleetConfig, *, kills: tuple[KillSpec, ...] = (),
              tenants: list[TenantSpec] | None = None,
              stream=None, flight_path: str | None = None) -> dict[str, Any]:
    """One fleet run; returns the JSON-stable payload.

    ``stream`` (a record bus) receives one ``shard`` record per
    surviving board plus the dispatcher's own registry, and the merged
    ``aggregate`` view (the PR 8 merge law).  ``flight_path`` writes the
    first invariant-violation bundle, if any.
    """
    disp = Dispatcher(cfg, tenants=tenants, kills=kills)
    try:
        disp.place_initial()
        for t in range(cfg.ticks):
            disp.tick(t)
        # Per-board ground-truth sweep (I1-I8 + L1-L6) on every board
        # the fleet can still reach.
        board_violations: dict[str, list[str]] = {}
        for link in disp.links:
            if not link.reachable:
                continue
            vs = link.call("invariants")
            if vs:
                board_violations[str(link.board_id)] = vs
        # Fold per-board registries into the fleet aggregate.
        merged = MetricSnapshot.empty()
        shards = 0
        for board_id, snap_dict in disp.board_snapshots():
            snap = MetricSnapshot.from_dict(snap_dict)
            merged = merged.merge(snap)
            shards += 1
            if stream is not None:
                stream.emit_shard(f"board-{board_id}", snap,
                                  harness="fleet", seed=cfg.seed)
        fleet_snap = MetricSnapshot.of(disp.metrics)
        merged = merged.merge(fleet_snap)
        if stream is not None:
            stream.emit_shard("dispatcher", fleet_snap, harness="fleet",
                              seed=cfg.seed)
            stream.emit_aggregate(merged, shards=shards + 1,
                                  harness="fleet", seed=cfg.seed)
            _emit_overload_transitions(stream, disp)
        if flight_path and disp.flight_bundle is not None:
            write_bundle(disp.flight_bundle, flight_path)
        return _payload(disp, cfg, board_violations)
    finally:
        disp.close()


def _payload(disp: Dispatcher, cfg: FleetConfig,
             board_violations: dict[str, list[str]]) -> dict[str, Any]:
    m = disp.metrics
    tenants = {name: rec.as_dict()
               for name, rec in sorted(disp.tenants.items())}
    accounted = all(rec.state in (RUNNING, SHED, DEAD)
                    for rec in disp.tenants.values())
    ok = (not disp.violations and not board_violations and accounted)
    return {
        "schema_version": FLEET_SCHEMA_VERSION,
        "config": cfg.as_dict(),
        "kills_scheduled": [k.as_dict() for k in disp.kills],
        "kills_fired": disp.kills_fired,
        "fault_summary": disp.plan.summary(),
        "boards": {
            str(link.board_id): {
                "crashed": link.crashed,
                "fenced": link.fenced,
                "declared_dead":
                    link.board_id in disp.detector.declared,
            } for link in disp.links},
        "tenants": tenants,
        "requests": {
            "arrived": m.total("fleet.requests.arrived"),
            "served": m.total("fleet.requests.served"),
            "shed": m.total("fleet.requests.shed"),
            "latency": {cls: SeriesSummary.from_samples(s).as_dict()
                        for cls, s in sorted(disp.latency.items())},
        },
        "fleet": {
            "placements": m.total("fleet.placements"),
            "migrations": m.total("fleet.migrations"),
            "fresh_restarts": m.total("fleet.restarts.fresh"),
            "checkpoints_pulled": m.total("fleet.checkpoints.pulled"),
            "tenants_shed": m.total("fleet.tenants.shed"),
            "tenants_dead": m.total("fleet.tenants.dead"),
            "boards_declared_dead": m.total("fleet.boards.declared_dead"),
            "boards_rejoined": m.total("fleet.boards.rejoined"),
            "heartbeats_ok": m.total("fleet.heartbeats.ok"),
            "heartbeats_missed": m.total("fleet.heartbeats.missed"),
            "rpc_calls": m.total("fleet.rpc.calls"),
            "rpc_failures": m.total("fleet.rpc.failures"),
            "rpc_retries": m.total("fleet.rpc.retries"),
            "rpc_backoff_cycles": m.total("fleet.rpc.backoff_cycles"),
            "goodput": m.total("fleet.goodput"),
            "admission_admitted": m.total("fleet.admission.admitted"),
            "admission_dropped": m.total("fleet.admission.dropped"),
            "admission_degraded": m.total("fleet.admission.degraded"),
            "admission_restored": m.total("fleet.admission.restored"),
            "rpc_retries_denied": m.total("fleet.rpc.retries_denied"),
            "breaker_opens": m.total("fleet.breaker.opens"),
            "breaker_half_opens": m.total("fleet.breaker.half_opens"),
            "breaker_closes": m.total("fleet.breaker.closes"),
            "breaker_short_circuits":
                m.total("fleet.breaker.short_circuits"),
            "boards_stormed": m.total("fleet.boards.stormed"),
            "traffic_surges": m.total("fleet.traffic.surges"),
        },
        "overload": _overload_block(disp),
        "violations": list(disp.violations),
        "board_violations": board_violations,
        "tenants_accounted": accounted,
        "flight_dumped": disp.flight_bundle is not None,
        "ok": ok,
    }


def _overload_block(disp: Dispatcher) -> dict[str, Any]:
    """The payload's overload-plane view: degrade/restore events, every
    breaker transition, and drops by reason (all empty when idle)."""
    drops: dict[str, int] = {}
    for rec in disp.tenants.values():
        for reason, n in rec.dropped.items():
            drops[reason] = drops.get(reason, 0) + n
    transitions = [
        {"board": link.board_id, "tick": tick, "from": frm, "to": to}
        for link in disp.links
        for tick, frm, to in link.breaker.transitions]
    return {
        "events": list(disp.shedder.events),
        "breaker_transitions": transitions,
        "drops_by_reason": {k: drops[k] for k in sorted(drops)},
    }


def _emit_overload_transitions(stream, disp: Dispatcher) -> None:
    """Mirror the overload block onto the record bus: one
    ``overload_transition`` per shedder event / breaker transition
    (docs/OBSERVABILITY.md §10)."""
    ov = _overload_block(disp)
    for ev in ov["events"]:
        stream.emit_overload_transition(ev["kind"], tick=ev["tick"],
                                        tenant=ev["tenant"],
                                        level=ev["level"])
    for tr in ov["breaker_transitions"]:
        stream.emit_overload_transition("breaker", tick=tr["tick"],
                                        board=tr["board"],
                                        frm=tr["from"], to=tr["to"])


# -- the explorer's overload plane --------------------------------------------

#: The overload plane the explorer arms on every fleet schedule, tuned
#: so its recovery paths are *reachable* at explorer scale (24 ticks,
#: detector deadline 3) without changing fault outcomes: the breaker
#: reopens fast enough (cooldown 1) that a healed 2-tick hang still
#: passes its half-open probe before the detector's deadline, and the
#: tight retry budget (floor 1, ratio 0) makes a ``retry.storm`` deny a
#: retry on its very first stormed call.
EXPLORE_OVERLOAD = OverloadConfig(
    admit_rate=1.0, admit_burst=4.0, queue_bound=6, deadline_ticks=4,
    degrade_high_water=3, degrade_low_water=1, degrade_hysteresis_ticks=1,
    retry_ratio=0.0, retry_floor=1,
    breaker_threshold=2, breaker_cooldown_ticks=1,
    surge_factor=40.0, surge_duration_ticks=6)


# -- migration proof ----------------------------------------------------------


def run_migration_demo(*, seed: int = 7, kind: str = "fft",
                       frames: int = 6) -> dict[str, Any]:
    """Kill a restartable tenant's board mid-run; it must finish on the
    surviving board with bit-exact output (docs/FLEET.md §7)."""
    from ..workloads.restartable import expected_output
    spec = TenantSpec(name="demo", tclass=CRITICAL, kind=kind,
                      seed=seed, frames=frames, checkpoint_every=2)
    cfg = FleetConfig(boards=2, tenants_per_board=1, seed=seed,
                      ticks=0, tick_ms=2.0, checkpoint_every_ticks=2,
                      deadline_ticks=2, rate_per_tick=0.0)
    disp = Dispatcher(cfg, tenants=[spec])
    try:
        disp.place_initial()
        rec = disp.tenants["demo"]
        source = rec.board
        t = 0
        # Phase 1: run on the source board until at least one checkpoint
        # covers real progress.
        while (rec.checkpointed < 2 or rec.progress < frames // 2) \
                and t < 200:
            disp.tick(t)
            t += 1
        progress_at_kill = rec.progress
        # Phase 2: the board dies for real; the detector declares it and
        # the dispatcher migrates the tenant from its checkpoint.
        disp.links[source].inject(BOARD_CRASH)
        resumed_from = None
        while rec.progress < frames and t < 500:
            held = rec.checkpointed
            disp.tick(t)
            t += 1
            if resumed_from is None and rec.migrations:
                # The frame of the checkpoint the migration restored:
                # later pulls from the target replace rec.checkpointed.
                resumed_from = held
        finished = rec.progress >= frames
        output = b""
        if rec.state == RUNNING and rec.board is not None:
            output = disp.links[rec.board].call("read_output", rec.vm_id,
                                                frames)
        bit_exact = output == expected_output(kind, frames=frames,
                                              seed=seed)
        return {
            "kind": kind,
            "frames": frames,
            "source_board": source,
            "target_board": rec.board,
            "progress_at_kill": progress_at_kill,
            "resumed_from_frame": resumed_from,
            "migrations": rec.migrations,
            "epochs": disp.epoch_log["demo"],
            "finished": finished,
            "bit_exact": bit_exact,
            "violations": list(disp.violations),
            "ok": finished and bit_exact and not disp.violations,
        }
    finally:
        disp.close()


# -- bench --------------------------------------------------------------------


def run_fleet_bench(*, seed: int = 1) -> dict[str, Any]:
    """The ``fleet_quick`` bench artifact: a small fleet with one board
    crash mid-run, summarised by its request-latency percentiles."""
    cfg = FleetConfig(boards=3, tenants_per_board=2, seed=seed, ticks=32)
    kills = (KillSpec(tick=10, board=1, site=BOARD_CRASH),)
    payload = run_fleet(cfg, kills=kills)
    lat = payload["requests"]["latency"]
    return {
        "schema_version": SCHEMA_VERSION,
        "name": "fleet_quick",
        "scenario": {**cfg.as_dict(),
                     "kills": [k.as_dict() for k in kills]},
        "totals": {
            "arrived": payload["requests"]["arrived"],
            "served": payload["requests"]["served"],
            "shed": payload["requests"]["shed"],
            "goodput": payload["fleet"]["goodput"],
            "migrations": payload["fleet"]["migrations"],
            "boards_declared_dead":
                payload["fleet"]["boards_declared_dead"],
            "violations": len(payload["violations"]),
        },
        "series": {
            "fleet_request_latency_cycles": lat["all"],
            "fleet_critical_latency_cycles": lat["critical"],
            "fleet_besteffort_latency_cycles": lat["besteffort"],
        },
    }


# -- the surge series' overload plane -----------------------------------------

#: The overload plane the surge series arms (``explore --named surge``).
#: A tenant serves about one frame per 9 fleet ticks at ``tick_ms=2.0``,
#: so ``admit_rate=0.1`` matches the *offered* (and sustainable) rate —
#: a surge saturates the bucket rather than the queue, which keeps
#: per-tenant admissions and queue depths the same loaded or unloaded.
#: ``deadline_ticks`` sits *below* the frame period on purpose: served
#: latency then saturates the deadline cap in the unloaded baseline too,
#: so the "critical p99 within 10% of baseline" gate measures
#: protection, not the luck of queue alignment.  The tight retry budget
#: (2% + floor 2) makes the 2-tick ``retry.storm`` hit a budget denial
#: rather than amplify into the fleet.
SOAK_OVERLOAD = OverloadConfig(
    admit_rate=0.1, admit_burst=2.0, queue_bound=6, deadline_ticks=6,
    degrade_high_water=2, degrade_low_water=1, degrade_hysteresis_ticks=2,
    retry_ratio=0.02, retry_floor=2,
    breaker_threshold=2, breaker_cooldown_ticks=1,
    surge_factor=8.0, surge_duration_ticks=12)


# -- brownout proof -----------------------------------------------------------


def run_brownout_demo(*, seed: int = 9) -> dict[str, Any]:
    """Fabric-pressure brownout: best-effort work degrades to the
    bit-identical software path, then returns to hardware (O5).

    One virtualized machine, two guests.  vm1 runs two driver tasks
    that each allocate a PRR (FFT and QAM) and hold it — the
    allocated-PRR fraction crosses the brownout threshold at the
    second allocation.  vm2 iterates a *best-effort* QAM through the
    adaptive API: while brownout is active the task is rerouted to
    software before touching the fabric; once the drivers release
    their regions the controller observes the pressure drop, exits,
    and the same call runs on a PRR again.  Every iteration's output
    is compared against the golden model — identical bytes on both
    substrates is the O5 proof.
    """
    from ..dsp import qam as qam_golden
    from ..eval.scenarios import build_virtualized
    from ..guest import api
    from ..guest.actions import Delay, Finish, HwRelease
    from ..hwmgr.brownout import BrownoutConfig, BrownoutController
    import numpy as np

    sc = build_virtualized(2, seed=seed, with_workloads=False,
                           iterations=0, task_set=("fft256", "qam16"))
    sc.kernel.brownout = BrownoutController(BrownoutConfig(
        enter_occupancy=0.5, enter_queue_depth=8,
        exit_occupancy=0.25, exit_queue_depth=0))
    directory = sc.directory
    results: dict[str, Any] = {"iters": []}

    def make_driver(task: str, prio: int):
        def fn(os_):
            rng = make_rng(seed, stream=f"brownout-driver-{task}")
            if task.startswith("fft"):
                x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
                data = x.astype(np.complex64).tobytes()
            else:
                data = rng.integers(0, 256, size=512,
                                    dtype=np.uint8).tobytes()
            # Phase 1: allocate and hold a PRR — the second driver's
            # allocation pushes occupancy over the enter threshold.
            yield from api.hw_task_run(os_, directory[task], task, data)
            # Hold window: the best-effort client gets rerouted.
            yield Delay(20)
            # Phase 2: give the region back; the release request's
            # pressure observation drops occupancy below the exit
            # threshold and brownout ends.
            yield HwRelease(task_id=directory[task])
            yield Finish()
        return fn

    def besteffort_fn(os_):
        rng = make_rng(seed, stream="brownout-besteffort")
        qam_in = rng.integers(0, 256, size=512, dtype=np.uint8).tobytes()
        want = qam_golden.modulate(
            qam_golden.pack_bits_to_symbols(qam_in, 16), 16).tobytes()
        yield Delay(2)              # let the drivers pile up first
        for i in range(3):
            h = yield from api.qam_compute(os_, directory["qam16"],
                                          "qam16", qam_in,
                                          besteffort=True)
            results["iters"].append({
                "i": i,
                "software": h.prr_id is None,
                "status": int(h.status),
                "correct": h.output == want,
            })
            yield Delay(15)
        yield Finish()

    drv_os = sc.guests[0].os
    drv_os.create_task("drv-fft", 20, make_driver("fft256", 20))
    drv_os.create_task("drv-qam", 21, make_driver("qam16", 21))
    sc.guests[1].os.create_task("besteffort", 20, besteffort_fn)
    sc.run_ms(600.0)

    iters = results["iters"]
    m = sc.kernel.metrics
    entries = m.total("hwmgr.brownout.entries")
    exits = m.total("hwmgr.brownout.exits")
    reroutes = m.total("recovery.brownout_reroutes")
    checks = {
        "entered": entries >= 1,
        "exited": exits >= 1,
        "rerouted": reroutes >= 1,
        "first_iter_software": bool(iters) and iters[0]["software"],
        "returned_to_hardware": bool(iters) and not iters[-1]["software"],
        "bit_identical": bool(iters) and all(it["correct"]
                                             for it in iters),
    }
    return {
        "seed": seed,
        "entries": entries,
        "exits": exits,
        "reroutes": reroutes,
        "paths": list(paths_fired(m.total)),
        "iters": iters,
        "checks": checks,
        "ok": all(checks.values()),
    }
