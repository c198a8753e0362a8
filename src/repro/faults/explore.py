"""The fault-schedule runner: every fault harness is a mode of this module.

Three modes share one executor per kind (:func:`run_inline_schedule`,
:func:`run_fleet_exec`), one oracle, one payload schema, one exit-code
table, one flight-recorder rule and the ddmin shrinker
(docs/FAULTS.md §5):

* **explore** (``budget``) — a clean *pilot* run with a zero-probability
  census plan counts how often each consultable site is reached and
  harvests trace landmarks that aim the scheduled sites; single-fault
  schedules per registered site plus a pool of two-fault combinations
  then run greedily in order of the
  :class:`~repro.faults.coverage.CoverageTracker`'s predicted novel
  coverage until the budget is spent.
* **named** — :data:`NAMED` canned schedules, one per failure class,
  each carrying its expectations as data, plus ``surge``: the overload
  acceptance series (an unloaded baseline, escalating surges, the
  brownout demo) gated by :func:`surge_gates`.
* **random** (``random_target``) — seeded draws over chosen sites
  (:data:`RANDOM_SITES`), each stacked on one named inline schedule,
  until the target number of faults fired.

**Oracle**, after every run: invariant sweeps (I1-I8 + L1-L6 inline,
F1-F6 + per-board sweeps for fleet runs), journal balance, request
conservation, the cycle ledger, result verification, supervisor
bookkeeping, every armed site fired, and progress by the guests still
alive at the horizon.  Each run is fingerprinted by the recovery paths
whose metrics moved (:func:`~repro.faults.coverage.paths_fired`);
failures are handed to :mod:`repro.faults.shrink` for a minimal,
twice-revalidated, byte-identical reproducer.

``REPRO_EXPLORE_MUTATE=<name>`` (or ``--mutate``) disables one hardened
recovery path before every inline run — the self-test proving the
runner actually *finds* regressions and shrinks them.

Everything here is a pure function of its arguments: same inputs ⇒
byte-identical payload (CI runs every mode twice and ``cmp``\\ s).
"""

from __future__ import annotations

import itertools
import os as _os
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from ..common.rng import make_rng
from ..dsp import fft as fft_golden
from ..dsp import qam as qam_golden
from ..eval.scenarios import build_virtualized
from ..guest import api
from ..guest.actions import Finish
from ..guest.ports.paravirt import ParavirtUcos
from ..guest.ucos import Ucos
from ..hwmgr.invariants import check_invariants, check_lifecycle_invariants
from ..kernel.hypercalls import HcStatus
from ..kernel.pd import PdState
from ..obs.metrics import MetricsRegistry
from ..obs.slo import EXIT_SLO_BREACH
from .coverage import CoverageTracker, paths_fired
from .plan import (
    BITSTREAM_CORRUPT,
    BOARD_CRASH,
    BOARD_HANG,
    BOARD_PARTITION,
    GUEST_BAD_HYPERCALL,
    GUEST_WILD_POINTER,
    PCAP_HANG,
    PCAP_TRANSFER_ERROR,
    PLIRQ_STORM,
    PRR_HANG,
    PRR_SPURIOUS_DONE,
    RETRY_STORM,
    SERVICE_CRASH,
    SERVICE_HANG,
    TRAFFIC_SURGE,
    UNLIMITED,
    VM_KILL,
    FaultPlan,
    FaultSpec,
)
from .registry import CRASHPOINTS, RECOVERY_PATHS, VM_POLICIES
from .rogue import RogueStats, WildRunner, make_bad_hypercall_task, \
    make_wild_dma_task

EXPLORE_SCHEMA_VERSION = 2

#: Sites the injector consults at code sites on a single machine — the
#: census plan counts their occurrence budget in the pilot.
_CONSULTED = (PCAP_TRANSFER_ERROR, PCAP_HANG, BITSTREAM_CORRUPT, PRR_HANG,
              PRR_SPURIOUS_DONE, SERVICE_CRASH, SERVICE_HANG)

#: Priority of the runner's auxiliary guest tasks (below T_hw's 5).
_PRIO_AUX = 6
#: Completions an inline run aims for before its horizon.
_COMPLETIONS = 6
#: Calls the rogue hypercall fuzzer issues (``params["iterations"]`` of
#: a ``guest.bad_hypercall`` spec overrides it).
_FUZZ_ITERATIONS = 40


# -- exit codes (one table for every mode; docs/RECOVERY.md §10) -------------

#: A per-run check failed, or a random-mode fire target was not reached.
EXIT_CHECKS_FAILED = 1
#: A clean run that missed an SLO gate or the coverage floor.
EXIT_COVERAGE_FLOOR = EXIT_SLO_BREACH
#: An invariant sweep reported a violation ("stop the line").
EXIT_INVARIANT_VIOLATION = 4


def classify_incident(violations, runs_ok: bool, reached_target: bool,
                      *, coverage_ok: bool = True,
                      slo_ok: bool = True) -> str | None:
    """The payload's ``incident`` field: what kind of failure, if any.

    ``"invariant_violation"`` when any invariant sweep reported a
    violation, ``"checks_failed"`` for any other failed run or a missed
    fire target, ``"slo_breach"`` for a clean run that missed a surge
    gate, ``"coverage_floor"`` for a clean run that missed its
    recovery-path coverage floor, ``None`` when clean.
    """
    if violations:
        return "invariant_violation"
    if not runs_ok or not reached_target:
        return "checks_failed"
    if not slo_ok:
        return "slo_breach"
    if not coverage_ok:
        return "coverage_floor"
    return None


def incident_exit_code(payload: dict[str, Any]) -> int:
    """Map a payload's ``incident`` field to a process exit code."""
    incident = payload.get("incident")
    if incident == "invariant_violation":
        return EXIT_INVARIANT_VIOLATION
    if incident in ("coverage_floor", "slo_breach"):
        return EXIT_COVERAGE_FLOOR
    if incident is not None:
        return EXIT_CHECKS_FAILED
    return 0


# -- mutation mode (the runner's self-test) -----------------------------------


def _mutate_watchdog_reclaim(sc) -> None:
    """Disable watchdog arming: a hung PRR is never reclaimed, so any
    ``prr.hang`` schedule must end with a stuck-BUSY invariant hit."""
    sc.machine.prr_controller._arm_watchdog = lambda *a, **k: None


#: Named recovery-path regressions ``REPRO_EXPLORE_MUTATE`` can plant.
MUTATIONS: dict[str, Callable[[Any], None]] = {
    "watchdog_reclaim": _mutate_watchdog_reclaim,
}


# -- auxiliary guest tasks ----------------------------------------------------


def _make_release_task(directory: dict[str, int]):
    """Aux guest task that exercises HWTASK_RELEASE: request a task,
    then give it straight back.  ``alloc.release`` journals an
    ``OP_RELEASE`` entry before its ``release.pre_commit`` crashpoint,
    so crashing there forces the supervisor's journal *replay* path —
    unreachable from the standard workloads, which never release."""
    from ..guest import layout_guest as GL
    from ..guest.actions import HwRelease, HwRequest

    def fn(os_: Ucos):
        yield HwRequest(task_id=directory["fft256"],
                        iface_va=GL.PRR_IFACE_VA,
                        data_va=GL.HWDATA_VA, want_irq=False)
        yield HwRelease(task_id=directory["fft256"])
        yield Finish()

    return fn


def _make_fallback_task(directory: dict[str, int], results: dict, *,
                        seed: int):
    """FFT then QAM through the adaptive APIs while the fabric is down."""

    def fn(os_: Ucos):
        rng = make_rng(seed, stream="fallback-task")
        x = (rng.standard_normal(256) + 1j * rng.standard_normal(256))
        fft_in = x.astype(np.complex64).tobytes()
        h = yield from api.fft_compute(os_, directory["fft256"], "fft256",
                                       fft_in)
        want = fft_golden.fft(
            np.frombuffer(fft_in, dtype=np.complex64)).tobytes()
        results["fft_status"] = int(h.status)
        results["fft_software"] = h.prr_id is None
        results["fft_correct"] = h.output == want

        qam_in = rng.integers(0, 256, size=512, dtype=np.uint8).tobytes()
        h = yield from api.qam_compute(os_, directory["qam16"], "qam16",
                                      qam_in)
        want = qam_golden.modulate(
            qam_golden.pack_bits_to_symbols(qam_in, 16), 16).tobytes()
        results["qam_status"] = int(h.status)
        results["qam_software"] = h.prr_id is None
        results["qam_correct"] = h.output == want
        yield Finish()

    return fn


# -- schedules ----------------------------------------------------------------


@dataclass(frozen=True)
class Schedule:
    """One fault schedule: ``faults`` are JSON-stable dicts —
    :meth:`FaultSpec.as_dict` for ``inline``, ``KillSpec.as_dict`` for
    ``fleet`` — so schedules round-trip through repro files.  ``seed``
    seeds the run; ``setup`` selects a fleet profile
    (:func:`run_fleet_exec`); ``expect`` holds a named schedule's
    expectations (:data:`NAMED`)."""

    sid: str
    kind: str                       # "inline" | "fleet"
    faults: tuple[dict, ...]
    note: str = ""
    seed: int | None = None
    setup: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)

    def sites(self) -> tuple[str, ...]:
        return tuple(sorted({f["site"] for f in self.faults}))

    def as_dict(self) -> dict[str, Any]:
        d = {"id": self.sid, "kind": self.kind, "note": self.note,
             "faults": [dict(sorted(f.items())) for f in self.faults]}
        if self.seed is not None:
            d["seed"] = self.seed
        for key in ("setup", "expect"):
            if getattr(self, key):
                d[key] = getattr(self, key)
        return d


def _spec(site: str, **kw) -> dict:
    return FaultSpec(site, **kw).as_dict()


#: The named inline schedules, one per failure class, in documentation
#: order: ``(note, faults, expect)``.  ``expect`` is data: ``paths``
#: maps a recovery path to its exact count (``None``: at least once),
#: ``forbid`` lists paths that must not fire, ``fires`` pins exact
#: per-site fire counts, ``checks`` names non-path predicates of
#: :func:`run_inline_schedule`.  ``pcap-fail`` and ``sw-fallback`` arm
#: the same fault and differ only in what they assert.  (Random-mode
#: schedules carry only ``may_miss``: armed sites the ``faults_fired``
#: check excuses.)
NAMED: dict[str, tuple[str, tuple[dict, ...], dict]] = {
    "pcap-retry": (
        "one corrupt bitstream: retried, guests complete with verified "
        "output",
        (_spec(BITSTREAM_CORRUPT),),
        {"paths": {"pcap_retry": None}, "forbid": ["pcap_abort"],
         "checks": ["completed_all"]}),
    "pcap-fail": (
        "persistent PCAP errors: bounded retries, then a VM-visible "
        "error; the guests survive",
        (_spec(PCAP_TRANSFER_ERROR, max_fires=UNLIMITED),),
        {"paths": {"pcap_abort": None}, "forbid": ["vm_containment"],
         "checks": ["errors_surfaced", "no_completion"]}),
    "hw-hang": (
        "hung task: watchdog reclaim frees the PRR, the guest re-requests "
        "and completes",
        (_spec(PRR_HANG),),
        {"paths": {"watchdog_reclaim": 1},
         "checks": ["completed_all", "latency_recorded"]}),
    "spurious-done": (
        "phantom DONE IRQs: the client re-waits, results still verify",
        (_spec(PRR_SPURIOUS_DONE, max_fires=2),),
        {"fires": {PRR_SPURIOUS_DONE: 2}, "paths": {"client_rewait": None},
         "checks": ["completed_all"]}),
    "plirq-storm": (
        "unsolicited IRQ burst on an unowned line: counted spurious, "
        "guests unaffected",
        (_spec(PLIRQ_STORM, params={"line": 15, "at": 200_000, "count": 8,
                                    "spacing": 2_000}),),
        {"paths": {"spurious_eoi": None}, "forbid": ["vm_containment"],
         "checks": ["completed_all"]}),
    "sw-fallback": (
        "fabric down: FFT/QAM degrade to software with bit-identical "
        "output",
        (_spec(PCAP_TRANSFER_ERROR, max_fires=UNLIMITED),),
        {"paths": {"sw_fallback": 2, "pcap_abort": None},
         "checks": ["fell_back_to_software"]}),
    "rogue-guest": (
        "fuzzer + wild-DMA + wild-pointer guests: rejected, blocked, "
        "killed; the healthy guests are unaffected",
        (_spec(GUEST_BAD_HYPERCALL, max_fires=UNLIMITED,
               params={"iterations": 30}),
         _spec(GUEST_WILD_POINTER, max_fires=UNLIMITED)),
        {"paths": {"hypercall_guard": None, "vm_containment": 1},
         "checks": ["fuzzer_drained", "dma_blocked", "completed_all"]}),
}

#: Every ``--named`` choice: the inline schedules plus the surge series.
NAMED_ALL = (*NAMED, "surge")


def named_schedule(name: str, seed: int | None = None) -> Schedule:
    """The named inline schedule ``name`` as a :class:`Schedule`."""
    note, faults, expect = NAMED[name]
    return Schedule(name, "inline", faults, note, seed, {}, expect)


def _expect_checks(expect: dict, count: Callable[[str], int],
                   fires: Callable[[str], int],
                   extra: dict[str, Callable[[], bool]]) -> dict[str, bool]:
    """A named schedule's expectations as check entries."""
    out: dict[str, bool] = {}
    for p, n in expect.get("paths", {}).items():
        out[f"path:{p}"] = count(p) >= 1 if n is None else count(p) == n
    for p in expect.get("forbid", ()):
        out[f"forbid:{p}"] = count(p) == 0
    for s, n in expect.get("fires", {}).items():
        out[f"fires:{s}"] = fires(s) == n
    for name in expect.get("checks", ()):
        out[name] = bool(extra[name]())
    return out


# -- executors ----------------------------------------------------------------


def run_inline_schedule(faults, *, seed: int, mutate: str | None = None,
                        expect: dict | None = None,
                        flight_path: str | None = None,
                        dump_fired: bool = False) -> dict[str, Any]:
    """Execute one inline schedule against the standard two-guest
    scenario; returns a JSON-stable result with oracle checks and the
    run's recovery-path fingerprint.

    The setup follows from the armed sites: rogue VMs for ``guest.*``,
    poll mode for ``prr.hang``, a releaser task for the
    ``release.pre_commit`` crashpoint, the software-fallback task when a
    PCAP fault is persistent.  ``flight_path`` dumps a post-mortem
    bundle when the run fails — or, with ``dump_fired``, when any fault
    fired."""
    specs = tuple(FaultSpec.from_dict(dict(f)) for f in faults)
    by_site = {s.site: s for s in specs}
    sites = set(by_site)
    persistent = any(s.max_fires == UNLIMITED and s.site in
                     (PCAP_TRANSFER_ERROR, PCAP_HANG, BITSTREAM_CORRUPT)
                     for s in specs)
    plan = FaultPlan(specs, seed=seed)
    sc = build_virtualized(
        2, seed=seed,
        # Poll mode when a hang is armed: the watchdog must detect it,
        # not an IRQ that will never come.
        use_irq=PRR_HANG not in sites,
        verify=not persistent, with_workloads=False, iterations=3,
        task_set=("fft256", "qam16"), fault_plan=plan)
    if mutate is not None:
        MUTATIONS[mutate](sc)
    kernel = sc.kernel
    rogue = {"fuzz": RogueStats(), "dma": RogueStats()}
    fuzz = by_site.get(GUEST_BAD_HYPERCALL)
    fuzz_calls = (int(fuzz.params.get("iterations", _FUZZ_ITERATIONS))
                  if fuzz else 0)
    fuzz_pd = None
    if fuzz_calls:
        os_fuzz = Ucos("rogue-hc", tick_hz=100)
        os_fuzz.create_task("fuzz", _PRIO_AUX, make_bad_hypercall_task(
            stats=rogue["fuzz"], seed=seed, iterations=fuzz_calls,
            injector=sc.injector))
        fuzz_pd = kernel.create_vm(os_fuzz.name, ParavirtUcos(os_fuzz))
    if GUEST_WILD_POINTER in sites:
        os_dma = Ucos("rogue-dma", tick_hz=100)
        os_dma.create_task("wild-dma", _PRIO_AUX, make_wild_dma_task(
            sc.directory, stats=rogue["dma"], injector=sc.injector))
        kernel.create_vm(os_dma.name, ParavirtUcos(os_dma))
        kernel.create_vm("rogue-ptr", WildRunner())
    if any(s.site == SERVICE_CRASH
           and (s.params or {}).get("point") == "release.pre_commit"
           for s in specs):
        sc.guests[0].os.create_task(
            "releaser", _PRIO_AUX, _make_release_task(sc.directory))
    fallback: dict[str, Any] = {}
    if persistent:
        # The fabric is permanently down: progress means the adaptive
        # APIs degrade to correct software (pcap_abort + sw_fallback).
        sc.guests[0].os.create_task(
            "fallback", _PRIO_AUX,
            _make_fallback_task(sc.directory, fallback, seed=seed))
        sc.run_ms(220.0)
    else:
        # A fuzzer runs below T_hw: give it until it drained (or died).
        fuzzing = (lambda: fuzz_pd is not None
                   and rogue["fuzz"].issued < fuzz_calls
                   and fuzz_pd.state is not PdState.DEAD)
        kernel.run(until=lambda: (sc.total_completions() >= _COMPLETIONS
                                  and not fuzzing()),
                   until_cycles=sc.machine.now
                   + int(500.0 * 1e-3 * sc.machine.params.cpu.hz))

    m = kernel.metrics
    violations = check_invariants(kernel) + check_lifecycle_invariants(kernel)
    kills = plan.fires(VM_KILL)
    # A kill can strand one issued-but-unaccounted request per death on
    # top of the usual one-in-flight horizon cut.
    conserved = all(
        0 <= g.thw_stats.requests - (g.thw_stats.completions
                                     + g.thw_stats.busy
                                     + g.thw_stats.errors) <= 1 + kills
        for g in sc.guests)
    acct = kernel.acct
    acct.settle()
    journal = kernel.manager_journal
    sup = kernel.supervisor
    fired = {s: plan.fires(s) for s in sorted(sites)}
    may_miss = set((expect or {}).get("may_miss", ()))
    # Progress is owed only by guests still alive at the horizon: a
    # guest halted for good (policy or budget) cannot make any.
    halted = {pd.name for pd in kernel.domains.values()
              if pd.vm_id in kernel.lifecycle.halted}
    alive = [g for g in sc.guests if g.os.name not in halted]
    checks = {
        "invariants_hold": not violations,
        "journal_balanced": journal is None or journal.balanced(),
        "requests_conserved": conserved,
        "no_violation_metric":
            m.total("supervisor.invariant_violations") == 0,
        "results_verified": all(g.thw_stats.verified_bad == 0
                                for g in sc.guests),
        "ledger_balanced": (not acct.bound or acct.total_accounted()
                            == kernel.sim.now - acct.start_cycle),
        "faults_fired": all(n or s in may_miss for s, n in fired.items()),
        "injections_counted": m.total("fault.injected")
        == sum(fired.values()),
    }
    if SERVICE_CRASH in sites:
        checks["restarted_per_crash"] = (
            sup.restarts >= plan.fires(SERVICE_CRASH))
        checks["crashes_all_handled"] = (
            sup.crashes == plan.fires(SERVICE_CRASH))
    if VM_KILL in sites:
        checks["kills_counted"] = m.total("kernel.vm_kills") >= kills
    if persistent:
        checks["fallback_correct"] = (
            sc.guests[0] not in alive
            or (bool(fallback.get("fft_correct"))
                and bool(fallback.get("qam_correct"))))
    else:
        checks["made_progress"] = (
            not alive or sum(g.thw_stats.completions for g in alive) >= 1)
    if expect:
        checks.update(_expect_checks(
            expect, lambda p: m.total(RECOVERY_PATHS[p].metric),
            plan.fires, {
                "completed_all":
                    lambda: sc.total_completions() >= _COMPLETIONS,
                "no_completion": lambda: sc.total_completions() == 0,
                "errors_surfaced": lambda: all(g.thw_stats.errors >= 2
                                               for g in sc.guests),
                "fell_back_to_software": lambda: all(
                    fallback.get(f"{k}_software")
                    and fallback.get(f"{k}_status") == int(HcStatus.SUCCESS)
                    for k in ("fft", "qam")),
                "latency_recorded": lambda: (
                    m.histogram("recovery.latency_cycles").count
                    == m.total("recovery.watchdog_reclaims")),
                "fuzzer_drained":
                    lambda: rogue["fuzz"].issued == fuzz_calls,
                "dma_blocked": lambda: rogue["dma"].by_status.get(
                    "bounds_blocked") == 1,
            }))
    ok = all(checks.values())
    checks = {k: bool(v) for k, v in sorted(checks.items())}
    if flight_path and (not ok or (dump_fired and any(fired.values()))):
        from ..obs.flight import FlightRecorder
        FlightRecorder(flight_path).arm(
            kernel, seed=seed, plan=plan,
            context={"harness": "explore", "mutate": mutate or ""},
        ).dump("explore_failure" if not ok else "fault_replay",
               checks=checks)
    return {
        "kind": "inline",
        "seed": seed,
        "cycles": kernel.sim.now,
        "fired_sites": sorted(s for s, n in fired.items() if n > 0),
        "fired": plan.summary(),
        "paths": list(paths_fired(m.total)),
        "checks": checks,
        "violations": list(violations),
        "completions": sc.total_completions(),
        "ok": ok,
    }


#: Fleet-payload counters the executor reports, keyed by registry metric
#: (so :func:`paths_fired` can fingerprint fleet runs).
_FLEET_COUNTERS = {
    "fleet.boards.declared_dead": "boards_declared_dead",
    "fleet.migrations": "migrations",
    "fleet.boards.rejoined": "boards_rejoined",
    "fleet.restarts.fresh": "fresh_restarts",
    "fleet.tenants.shed": "tenants_shed",
    "fleet.admission.dropped": "admission_dropped",
    "fleet.admission.degraded": "admission_degraded",
    "fleet.rpc.retries_denied": "rpc_retries_denied",
    "fleet.breaker.opens": "breaker_opens",
}


def run_fleet_exec(faults, *, seed: int, setup: dict | None = None,
                   expect: dict | None = None,
                   flight_path: str | None = None) -> dict[str, Any]:
    """Execute one board-fault schedule on a small fleet (3 boards, 2
    tenants each) via :func:`~repro.fleet.harness.run_fleet`; same result
    shape as the inline executor.  ``setup`` picks the profile: 24 ticks
    under ``EXPLORE_OVERLOAD`` by default, or ``{"overload": "soak",
    "ticks": 96, "surge_factor": F}`` for the surge series."""
    from ..fleet.dispatcher import FleetConfig, KillSpec
    from ..fleet.harness import EXPLORE_OVERLOAD, SOAK_OVERLOAD, run_fleet
    from ..fleet.tenant import BESTEFFORT, CRITICAL
    setup = setup or {}
    overload = (SOAK_OVERLOAD if setup.get("overload") == "soak"
                else EXPLORE_OVERLOAD)
    if setup.get("surge_factor"):
        overload = overload.scaled_surge(setup["surge_factor"])
    cfg = FleetConfig(boards=3, seed=seed, ticks=setup.get("ticks", 24),
                      tenants_per_board=2, overload=overload)
    kills = sorted((KillSpec(**dict(f)) for f in faults),
                   key=lambda k: (k.tick, k.board, k.site))
    payload = run_fleet(cfg, kills=tuple(kills), flight_path=flight_path)
    fleet = {v: payload["fleet"][v] for v in _FLEET_COUNTERS.values()}
    classes = {cls: {k: sum(td[k] for td in payload["tenants"].values()
                            if td["class"] == cls)
                     for k in ("arrived", "admitted", "goodput")}
               for cls in (CRITICAL, BESTEFFORT)}
    violations = (list(payload["violations"])
                  + [f"board {b}: {v}"
                     for b, vs in sorted(payload["board_violations"].items())
                     for v in vs])
    fired_sites = sorted({k["site"] for k in payload["kills_fired"]})
    totals = {metric: fleet[key] for metric, key in _FLEET_COUNTERS.items()}
    checks = {
        "invariants_hold": not violations,
        "tenants_accounted": payload["tenants_accounted"],
        "fleet_ok": payload["ok"],
        "faults_fired": ({f["site"] for f in faults}
                         - set((expect or {}).get("may_miss", ()))
                         <= set(fired_sites)),
    }
    return {
        "kind": "fleet",
        "seed": seed,
        "fired_sites": fired_sites,
        "fired": payload["fault_summary"],
        "paths": list(paths_fired(lambda n: totals.get(n, 0))),
        "checks": {k: bool(v) for k, v in sorted(checks.items())},
        "violations": violations,
        "fleet": fleet,
        "classes": classes,
        "critical_p99": payload["requests"]["latency"][CRITICAL].get("p99"),
        "ok": all(checks.values()),
    }


def execute_schedule(kind: str, faults, *, seed: int,
                     mutate: str | None = None, setup: dict | None = None,
                     expect: dict | None = None,
                     flight_path: str | None = None,
                     dump_fired: bool = False) -> dict[str, Any]:
    """Kind-dispatching executor (the shrinker's and ``--repro``'s
    entry)."""
    if kind == "fleet":
        return run_fleet_exec(faults, seed=seed, setup=setup, expect=expect,
                              flight_path=flight_path)
    return run_inline_schedule(faults, seed=seed, mutate=mutate,
                               expect=expect, flight_path=flight_path,
                               dump_fired=dump_fired)


# -- pilot --------------------------------------------------------------------


def run_pilot(seed: int) -> dict[str, Any]:
    """One clean run with a zero-probability census plan: counts each
    consultable site's occurrence budget (``after`` windows are drawn
    from it) and harvests trigger-cycle landmarks from the trace."""
    plan = FaultPlan([FaultSpec(s, probability=0.0, max_fires=UNLIMITED)
                      for s in _CONSULTED], seed=seed)
    sc = build_virtualized(2, seed=seed, verify=True, with_workloads=False,
                           iterations=3, task_set=("fft256", "qam16"),
                           fault_plan=plan)
    sc.run_until_completions(_COMPLETIONS, max_ms=500.0)
    occurrences = {s: plan.summary()[s]["occurrences"] for s in _CONSULTED}
    events = list(sc.kernel.tracer.events)

    def first(name):
        return next((e.t for e in events if e.name == name), None)

    xs, xe = first("pcap_xfer_start"), first("pcap_xfer_end")
    done = first("hwreq_done")
    cycles = sc.kernel.sim.now
    landmarks = {
        # Mid-flight of the first reconfiguration (PCAP transfer).
        "reconfig_mid": ((xs + xe) // 2 if xs is not None and xe is not None
                         else 50_000),
        # Mid-flight of the first hardware-task execution window.
        "exec_mid": ((xe + done) // 2 if xe is not None and done is not None
                     else 100_000),
        "mid_run": cycles // 2,
    }
    return {"occurrences": occurrences, "landmarks": landmarks,
            "cycles": cycles, "completions": sc.total_completions()}


# -- enumeration --------------------------------------------------------------


def _windows(n: int) -> tuple[int, ...]:
    """Candidate ``after`` values inside an occurrence budget of ``n``."""
    if n <= 1:
        return (0,)
    return tuple(sorted({0, n // 3, (2 * n) // 3}))


def _inline_singles(pilot: dict[str, Any]) -> list[tuple[tuple, str]]:
    occ, lm = pilot["occurrences"], pilot["landmarks"]
    S = _spec
    out: list[tuple[tuple, str]] = []
    for site in (PCAP_TRANSFER_ERROR, PCAP_HANG, BITSTREAM_CORRUPT):
        for a in _windows(occ[site]):
            out.append(((S(site, after=a),), f"{site} @occ {a}"))
    for site in (PCAP_TRANSFER_ERROR, BITSTREAM_CORRUPT):
        out.append(((S(site, max_fires=UNLIMITED),), f"{site} persistent"))
    for a in _windows(occ[PRR_HANG]):
        out.append(((S(PRR_HANG, after=a),), f"prr.hang @occ {a}"))
    for a in _windows(occ[PRR_SPURIOUS_DONE]):
        out.append(((S(PRR_SPURIOUS_DONE, after=a, max_fires=2),),
                    f"prr.spurious_done @occ {a}"))
    for a in _windows(occ[SERVICE_HANG]):
        out.append(((S(SERVICE_HANG, after=a),), f"service.hang @occ {a}"))
    for a in _windows(occ[SERVICE_CRASH]):
        out.append(((S(SERVICE_CRASH, after=a),),
                    f"service.crash @occ {a}"))
    for pt in CRASHPOINTS:
        # force_reclaim consults reclaim.pre_commit only after a watchdog
        # expiry or a client death: a hang makes the crashpoint reachable.
        trigger = (S(PRR_HANG),) if pt == "reclaim.pre_commit" else ()
        out.append(((S(SERVICE_CRASH, params={"point": pt}), *trigger),
                    f"service.crash @{pt}"))
    storm = {"line": 15, "count": 8, "spacing": 2_000}
    out.append(((S(PLIRQ_STORM, params={**storm,
                                        "at": lm["reconfig_mid"]}),),
                "plirq.storm unowned mid-reconfig"))
    out.append(((S(PLIRQ_STORM, params={**storm, "at": lm["mid_run"]}),),
                "plirq.storm unowned mid-run"))
    # Owned line, small burst: must stay under the client's bounded
    # re-pend budget (4) so a correct client survives by re-waiting.
    out.append(((S(PLIRQ_STORM, params={"line": 0, "count": 2,
                                        "spacing": 1_500,
                                        "at": lm["exec_mid"]}),),
                "plirq.storm owned exec window"))
    for policy, at in (("restart", lm["reconfig_mid"]),
                       ("restart", lm["mid_run"]),
                       ("restart_from_checkpoint", lm["mid_run"]),
                       ("halt", lm["mid_run"])):
        out.append(((S(VM_KILL, params={"at": at, "count": 1,
                                        "spacing": 150_000, "vm_index": 0,
                                        "policy": policy, "budget": 2}),),
                    f"vm.kill {policy}"))
    out.append(((S(GUEST_BAD_HYPERCALL, max_fires=UNLIMITED),),
                "rogue hypercall fuzzer"))
    out.append(((S(GUEST_WILD_POINTER, max_fires=UNLIMITED),),
                "rogue wild pointer"))
    return out


def _kill(tick: int, board: int, site: str, dur: int = 0) -> dict:
    return {"tick": tick, "board": board, "site": site,
            "duration_ticks": dur}


def _fleet_singles() -> list[tuple[tuple, str]]:
    K = _kill
    # deadline_ticks is 3: duration 2 heals before the detector declares
    # the board dead; duration 6 crosses it (fence, then rejoin/migrate).
    # The overload sites ride the armed EXPLORE_OVERLOAD plane: a surge
    # exercises admission_shed/rate_degrade, a storm retry_budget/
    # breaker_trip (docs/FLEET.md §11).
    return [
        ((K(8, 1, BOARD_CRASH),), "board.crash mid-run"),
        ((K(3, 0, BOARD_CRASH),), "board.crash early"),
        ((K(8, 1, BOARD_HANG, 2),), "board.hang transient"),
        ((K(8, 1, BOARD_HANG, 6),), "board.hang past deadline"),
        ((K(8, 2, BOARD_PARTITION, 2),), "board.partition transient"),
        ((K(8, 2, BOARD_PARTITION, 6),), "board.partition past deadline"),
        ((K(6, 0, TRAFFIC_SURGE, 6),), "traffic.surge sustained"),
        ((K(8, 1, RETRY_STORM, 2),), "retry.storm transient"),
    ]


def _pair_pool(inline_singles, fleet_singles) -> list[tuple[str, tuple, str]]:
    """Two-fault candidates: every pair of distinct inline sites (up to
    two window variants each) plus cross-site fleet pairs.  Returned
    unranked — the explorer picks by predicted coverage gain."""
    reps: dict[str, list[dict]] = {}
    for faults, _note in inline_singles:
        spec = faults[0]
        # Persistent variants change the executor's progress oracle;
        # keep pairs on the bounded-window representatives.
        if spec["max_fires"] == UNLIMITED and \
                spec["site"] not in (GUEST_BAD_HYPERCALL,
                                     GUEST_WILD_POINTER):
            continue
        reps.setdefault(spec["site"], [])
        if len(reps[spec["site"]]) < 2:
            reps[spec["site"]].append(spec)
    pool: list[tuple[str, tuple, str]] = []
    sites = sorted(reps)
    for i, a in enumerate(sites):
        for b in sites[i + 1:]:
            for v in range(2):
                if v and (len(reps[a]) < 2 or len(reps[b]) < 2):
                    continue
                sa = reps[a][min(v, len(reps[a]) - 1)]
                sb = reps[b][min(v, len(reps[b]) - 1)]
                pool.append(("inline", (sa, sb), f"{a} + {b} (v{v})"))
    fleet_reps = {f[0][0]["site"]: f[0][0] for f in reversed(fleet_singles)}
    fsites = sorted(fleet_reps)
    for i, a in enumerate(fsites):
        for b in fsites[i + 1:]:
            ka = dict(fleet_reps[a])
            kb = {**fleet_reps[b], "tick": fleet_reps[b]["tick"] + 4,
                  "board": (fleet_reps[b]["board"] + 1) % 3}
            pool.append(("fleet", (ka, kb), f"{a} + {b}"))
    return pool


# -- the surge series (overload control plane acceptance) ---------------------

#: Escalating offered-load multipliers, one loaded run each.
SURGE_FACTORS = (4.0, 8.0, 16.0)
#: The faults every loaded surge run stacks: a surge window, a transient
#: retry storm on board 1 and a crash of board 2.
_SURGE_KILLS = (_kill(16, 0, TRAFFIC_SURGE, 12), _kill(34, 1, RETRY_STORM, 2),
                _kill(44, 2, BOARD_CRASH))


def surge_schedules(seed: int | None = None) -> list[Schedule]:
    """The surge series: an unloaded baseline (same fleet, plane armed,
    no faults) then one loaded run per :data:`SURGE_FACTORS` entry, all
    3 boards × 96 ticks against ``SOAK_OVERLOAD``."""
    setup = {"overload": "soak", "ticks": 96}
    return [Schedule("surge/baseline", "fleet", (),
                     "surge baseline: overload plane armed, no faults",
                     seed, setup)] + [
        Schedule(f"surge/x{f:g}", "fleet", _SURGE_KILLS,
                 f"traffic.surge x{f:g} + retry.storm + board.crash", seed,
                 {**setup, "surge_factor": f})
        for f in SURGE_FACTORS]


def _besteffort_fraction(res: dict[str, Any]) -> float | None:
    be = res["classes"]["besteffort"]
    return round(be["goodput"] / be["arrived"], 6) if be["arrived"] else None


def surge_gates(base: dict[str, Any], runs: list[dict[str, Any]],
                demo: dict[str, Any], *, p99_slack: float = 1.10,
                goodput_floor: float = 0.55) -> dict[str, Any]:
    """The surge series' SLO gates over fleet-executor results: the
    unloaded ``base`` run, the loaded ``runs`` in escalating order and
    the brownout ``demo``.  A gate whose ``ok`` is false is an
    ``slo_breach`` (exit 3):

    * critical p99 of every loaded run within ``p99_slack`` × baseline;
    * critical goodput/admitted at least ``goodput_floor`` × the
      *baseline's own* ratio (the absolute ratio is pinned by
      deadline-vs-frame-period geometry, identical in every run);
    * best-effort goodput fraction non-increasing as load escalates,
      ending below the baseline's;
    * every control engaged: admission drops and a breaker trip and a
      denied retry in every loaded run, a rate degrade in at least one;
    * the brownout demo passed (O5).
    """
    from ..obs.slo import evaluate_rate_floor
    crit = base["classes"]["critical"]
    base_ratio = (round(crit["goodput"] / crit["admitted"], 6)
                  if crit["admitted"] else None)
    min_ratio = (round(goodput_floor * base_ratio, 6)
                 if base_ratio is not None else goodput_floor)
    ratios = [evaluate_rate_floor(
        r["classes"]["critical"]["goodput"],
        r["classes"]["critical"]["admitted"],
        min_ratio=min_ratio, min_denominator=8)[0] for r in runs]
    worst_ratio = min((round(x, 6) for x in ratios if x is not None),
                      default=None)
    base_p99 = base["critical_p99"]
    worst_p99 = max((r["critical_p99"] for r in runs
                     if r["critical_p99"] is not None), default=None)
    base_frac = _besteffort_fraction(base)
    fracs = [f for f in map(_besteffort_fraction, runs) if f is not None]
    fl = [r["fleet"] for r in runs]
    controls = {
        "admission": bool(fl) and all(f["admission_dropped"] > 0
                                      for f in fl),
        "shedder": any(f["admission_degraded"] >= 1 for f in fl),
        "breaker": bool(fl) and all(f["breaker_opens"] >= 1 for f in fl),
        "retry_budget": bool(fl) and all(f["rpc_retries_denied"] >= 1
                                         for f in fl),
    }
    return {
        "critical_p99": {
            "baseline": base_p99, "worst": worst_p99, "slack": p99_slack,
            "ok": (base_p99 is not None and worst_p99 is not None
                   and worst_p99 <= p99_slack * base_p99)},
        "critical_goodput_floor": {
            "baseline_ratio": base_ratio, "relative_floor": goodput_floor,
            "min_ratio": min_ratio, "worst": worst_ratio,
            "ok": worst_ratio is not None and worst_ratio >= min_ratio},
        "besteffort_degrades": {
            "baseline": base_frac, "fractions": fracs,
            "ok": (bool(fracs) and base_frac is not None
                   and all(b <= a + 1e-9 for a, b in zip(fracs, fracs[1:]))
                   and fracs[-1] < base_frac)},
        "controls_engaged": {**controls, "ok": all(controls.values())},
        "brownout_demo": {"checks": demo["checks"], "ok": demo["ok"]},
    }


# -- random mode --------------------------------------------------------------

#: Manager-fault ``after`` values are drawn below this occurrence count:
#: small enough that most draws land inside a run's crashpoint budget,
#: large enough to spread faults over early and late requests.
_MAX_AFTER = 12
MANAGER_SITES = (SERVICE_CRASH, SERVICE_HANG)
BOARD_SITES = (BOARD_CRASH, BOARD_HANG, BOARD_PARTITION)
#: Sites random mode has a draw rule for.
RANDOM_SITES = (*MANAGER_SITES, VM_KILL, *BOARD_SITES)


def _draw_manager(rng, sites) -> dict:
    """Crash (3 in 4) or hang, ``after`` < 12, 1-2 fires (a hang fires
    once); a site outside ``sites`` yields to the chosen one.  Fixed
    draw count, so the stream stays aligned."""
    hang = int(rng.integers(0, 4)) == 0
    after = int(rng.integers(0, _MAX_AFTER))
    fires = 1 + int(rng.integers(0, 2))
    if (hang and SERVICE_HANG in sites) or SERVICE_CRASH not in sites:
        return _spec(SERVICE_HANG, after=after, max_fires=1)
    return _spec(SERVICE_CRASH, after=after, max_fires=fires)


def _draw_vm(rng) -> dict:
    """Restart policy, kill cycle, kill count (1-2) and victim rotation."""
    policy = VM_POLICIES[int(rng.integers(0, len(VM_POLICIES)))]
    at = 50_000 + int(rng.integers(0, 8)) * 25_000
    count = 1 + int(rng.integers(0, 2))
    vm_index = int(rng.integers(0, 4))
    return _spec(VM_KILL, max_fires=count, params={
        "at": at, "count": count, "spacing": 150_000,
        "vm_index": vm_index, "policy": policy, "budget": 2})


def random_schedules(seed: int, sites) -> Iterator[Schedule]:
    """Seeded random-mode schedules over ``sites``, without end.

    Iteration ``i`` runs at seed ``seed + i``: one draw per chosen
    inline rule, stacked on named inline schedule ``i mod 7``, and —
    when board sites are chosen — one fleet schedule of four
    :func:`~repro.fleet.harness.make_kill_schedule` faults on the
    explorer's fleet (3 boards, 24 ticks)."""
    from ..fleet.dispatcher import FleetConfig
    from ..fleet.harness import make_kill_schedule
    mgr = make_rng(seed, stream="soak")
    vm = make_rng(seed, stream="vm-soak")
    board = tuple(s for s in BOARD_SITES if s in sites)
    names = list(NAMED)
    n = 0
    for i in itertools.count():
        drawn = []
        if set(MANAGER_SITES) & set(sites):
            drawn.append(_draw_manager(mgr, sites))
        if VM_KILL in sites:
            drawn.append(_draw_vm(vm))
        if drawn:
            base = named_schedule(names[i % len(names)])
            note = " + ".join([base.sid, *(f["site"] for f in drawn)])
            # A draw may land past its site's occurrence budget, and a
            # drawn kill may take down the VM that would reach a base
            # site: such a miss only adds nothing to the fire target.
            miss = {f["site"] for f in drawn}
            if VM_KILL in miss:
                miss.update(base.sites())
            yield Schedule(f"r{n:03d}", "inline", base.faults + tuple(drawn),
                           note, seed + i, {}, {"may_miss": sorted(miss)})
            n += 1
        if board:
            kills = make_kill_schedule(
                FleetConfig(boards=3, seed=seed + i, ticks=24), kills=4,
                sites=board)
            yield Schedule(f"r{n:03d}", "fleet",
                           tuple(k.as_dict() for k in kills),
                           "random board faults", seed + i, {},
                           {"may_miss": list(board)})
            n += 1


# -- the runner ---------------------------------------------------------------


def run_explore(*, budget: int = 150, seed: int = 7, floor: float = 0.9,
                mutate: str | None = None, include_fleet: bool = True,
                named=(), random_target: int = 0, random_sites=(),
                max_runs: int | None = None, max_shrinks: int = 5,
                stream=None, flight_path: str | None = None
                ) -> dict[str, Any]:
    """Run the requested modes — ``budget`` exploration schedules,
    ``named`` schedules (names from :data:`NAMED_ALL`, or ``"all"``),
    and random mode until ``random_target`` faults over
    ``random_sites`` fired (at most ``max_runs`` schedules, default
    ``4 * random_target + 7``) — then shrink failures.  Returns the
    JSON-stable payload (``python -m repro explore``).

    ``include_fleet=False`` drops the fleet schedules from exploration
    and ``surge`` from ``"all"``.  The coverage floor gates only runs
    that explored (``budget > 0``).  ``flight_path`` receives one
    post-mortem bundle: the first failing schedule's, otherwise the
    first inline schedule in which a fault fired."""
    from .shrink import failed_checks, result_fingerprint, shrink_schedule
    if mutate is None:
        mutate = _os.environ.get("REPRO_EXPLORE_MUTATE") or None
    if mutate is not None and mutate not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutate!r} "
                         f"(known: {', '.join(sorted(MUTATIONS))})")
    if "all" in named:
        named = [n for n in NAMED_ALL if include_fleet or n != "surge"]
    unknown = [n for n in named if n not in NAMED_ALL]
    if unknown:
        raise ValueError(f"unknown named schedule {unknown[0]!r} "
                         f"(known: {', '.join(NAMED_ALL)}, all)")
    random_sites = tuple(random_sites)
    bad = sorted(set(random_sites) - set(RANDOM_SITES))
    if random_target > 0 and (bad or not random_sites):
        raise ValueError(f"random mode needs sites from "
                         f"{', '.join(RANDOM_SITES)}; got "
                         f"{', '.join(bad) or 'none'}")
    randoms = (random_schedules(seed, random_sites)
               if random_target > 0 else None)
    reg = MetricsRegistry()
    c_sched = reg.counter("explore.schedules")
    c_fail = reg.counter("explore.failures")
    c_novel = reg.counter("explore.novel")
    c_pairs = reg.counter("explore.pairs")
    c_shrink = reg.counter("explore.shrink_runs")

    tracker = CoverageTracker()
    executed: list[dict[str, Any]] = []
    failures: list[tuple[Schedule, dict[str, Any]]] = []
    flight = {"state": None}            # None -> "fired" -> "failure"

    def execute(sched: Schedule) -> dict[str, Any]:
        fp = flight_path if flight["state"] != "failure" else None
        res = execute_schedule(
            sched.kind, sched.faults, seed=sched.seed, mutate=mutate,
            setup=sched.setup, expect=sched.expect, flight_path=fp,
            dump_fired=flight["state"] is None)
        if fp and not res["ok"]:
            flight["state"] = "failure"
        elif fp and flight["state"] is None and sched.kind == "inline" \
                and res["fired_sites"]:
            flight["state"] = "fired"
        c_sched.inc()
        novel = tracker.observe(res["fired_sites"], res["paths"])
        if novel:
            c_novel.inc()
        if not res["ok"]:
            c_fail.inc()
            failures.append((sched, res))
        executed.append({**sched.as_dict(),
                         "fired_sites": res["fired_sites"],
                         "paths": res["paths"], "novel": novel,
                         "ok": res["ok"]})
        if stream is not None:
            stream.emit_explore_schedule(
                sched.sid, sites=list(sched.sites()),
                fired=res["fired_sites"], paths=res["paths"],
                novel=novel, ok=res["ok"], kind=sched.kind)
        return res

    # 1. Exploration: singles in enumeration order, then greedy pairs.
    pilot = run_pilot(seed) if budget > 0 else None
    count = n_singles = 0
    pool: list[Schedule] = []
    if pilot is not None:
        inline = _inline_singles(pilot)
        fleet_singles = _fleet_singles() if include_fleet else []
        cands = ([("inline", f, note) for f, note in inline]
                 + [("fleet", f, note) for f, note in fleet_singles])
        n_cands = len(cands)
        cands += _pair_pool(inline, fleet_singles)
        schedules = [Schedule(f"s{i:03d}", kind, faults, note, seed)
                     for i, (kind, faults, note) in enumerate(cands)]
        pool = schedules[n_cands:]
        for sched in schedules[:min(budget, n_cands)]:
            execute(sched)
        count = n_singles = min(budget, n_cands)
        while count < budget and pool:
            pool.sort(key=lambda s: (-tracker.predicted_gain(s.sites()),
                                     s.sid))
            execute(pool.pop(0))
            c_pairs.inc()
            count += 1

    # 2. Named schedules; surge also gates its series and feeds the
    #    brownout demo's paths into coverage.
    slo = None
    for name in named:
        if name != "surge":
            execute(named_schedule(name, seed))
            continue
        from ..fleet.harness import run_brownout_demo
        results = [execute(s) for s in surge_schedules(seed)]
        demo = run_brownout_demo(seed=seed)
        tracker.observe((), demo["paths"])
        slo = surge_gates(results[0], results[1:], demo)

    # 3. Random mode: draw until the fire target or the run cap.
    rand = None
    if randoms is not None:
        cap = max_runs if max_runs is not None \
            else 4 * random_target + len(NAMED)
        fired = runs = 0
        while fired < random_target and runs < cap:
            res = execute(next(randoms))
            fired += sum(res["fired"].get(s, {}).get("fires", 0)
                         for s in random_sites)
            runs += 1
        rand = {"target": random_target, "sites": sorted(random_sites),
                "runs": runs, "faults_fired": fired,
                "reached_target": fired >= random_target}

    all_violations = [f"{sched.sid}: {v}" for sched, res in failures
                      for v in res.get("violations", ())]
    repros: list[dict[str, Any]] = []
    for sched, res in failures[:max_shrinks]:
        def runner(faults, _s=sched):
            c_shrink.inc()
            return execute_schedule(_s.kind, faults, seed=_s.seed,
                                    mutate=mutate, setup=_s.setup,
                                    expect=_s.expect)

        shrunk = shrink_schedule(sched.faults, runner=runner,
                                 reasons=failed_checks(res))
        repro = {
            "schema_version": EXPLORE_SCHEMA_VERSION,
            "from_schedule": sched.sid,
            "kind": sched.kind,
            "seed": sched.seed,
            "setup": sched.setup,
            "expect": sched.expect,
            "mutate": mutate,
            "faults": shrunk["faults"],
            "fingerprint": shrunk["fingerprint"],
            "replayed_identical": shrunk["replayed_identical"],
            "reasons": shrunk["reasons"],
            "original_fingerprint": result_fingerprint(res),
            "original_faults": len(sched.faults),
        }
        repros.append(repro)
        if stream is not None:
            stream.emit_explore_failure(
                sched.sid, reasons=shrunk["reasons"],
                shrunk_to=len(shrunk["faults"]),
                replayed_identical=shrunk["replayed_identical"],
                kind=sched.kind)

    report = tracker.report(floor=floor)
    incident = classify_incident(
        all_violations, not failures,
        (count > 0 or budget <= 0) and (rand is None
                                        or rand["reached_target"]),
        coverage_ok=report["floor_ok"] or budget <= 0,
        slo_ok=slo is None or all(g["ok"] for g in slo.values()))
    return {
        "schema_version": EXPLORE_SCHEMA_VERSION,
        "seed": seed,
        "budget": budget,
        "mutate": mutate,
        "named": list(named),
        "random": rand,
        "pilot": pilot,
        "schedules": executed,
        "totals": {
            "executed": len(executed),
            "singles": n_singles,
            "pairs": count - n_singles,
            "pool_left": len(pool),
            "failures": len(failures),
        },
        "coverage": report,
        "slo": slo,
        "failures": [{"id": sched.sid, "kind": sched.kind,
                      "faults": list(sched.faults),
                      "checks": res["checks"],
                      "violations": res["violations"]}
                     for sched, res in failures],
        "repros": repros,
        "metrics": {name: reg.total(name) for name in
                    ("explore.schedules", "explore.failures",
                     "explore.novel", "explore.pairs",
                     "explore.shrink_runs")},
        "incident": incident,
        "ok": incident is None,
    }


def replay_repro(repro: dict[str, Any], *,
                 flight_path: str | None = None) -> dict[str, Any]:
    """Re-execute a shrunk repro twice; ``reproduced`` is True iff both
    runs are byte-identical to each other *and* to the recorded
    fingerprint (``python -m repro explore --repro``)."""
    from .shrink import result_fingerprint
    mutate = repro.get("mutate")
    kw = dict(seed=int(repro["seed"]), mutate=mutate,
              setup=repro.get("setup"), expect=repro.get("expect"))
    first = execute_schedule(repro["kind"], repro["faults"],
                             flight_path=flight_path, **kw)
    second = execute_schedule(repro["kind"], repro["faults"], **kw)
    fp1, fp2 = result_fingerprint(first), result_fingerprint(second)
    return {
        "schema_version": EXPLORE_SCHEMA_VERSION,
        "kind": repro["kind"],
        "seed": repro["seed"],
        "mutate": mutate,
        "faults": list(repro["faults"]),
        "result": first,
        "fingerprint": fp1,
        "expected_fingerprint": repro.get("fingerprint"),
        "deterministic": fp1 == fp2,
        "still_failing": not first["ok"],
        "reproduced": (fp1 == fp2 == repro.get("fingerprint")
                       and not first["ok"]),
    }
