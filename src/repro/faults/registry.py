"""The fault-site registry: one table of *what can break* and *what must
catch it*.

Every consumer of fault metadata — :mod:`repro.faults.plan` (spec
validation), the fault-schedule runner (:mod:`repro.faults.explore`:
coverage, random-mode draws, named schedules), the docs linter
(``tools/check_event_catalog.py``) and the CLI site listing — reads this
module, so a site can exist in exactly one place and the docs/FAULTS.md
table can never drift from code.

Two registries live here:

* :data:`SITES` — one :class:`FaultSite` per injection site, with its
  layer, one-line effect, the **recovery paths** expected to absorb it,
  and (where a spec's ``params`` name a target) the set of valid
  targets.  A ``FaultSpec`` naming an unknown site, or an unknown
  target for a site that declares them, is rejected at construction
  time — a typo'd crashpoint can no longer silently never fire.
* :data:`RECOVERY_PATHS` — one :class:`RecoveryPath` per hardened
  reaction the system can take, each tied to the metric counter whose
  positive total proves the path actually ran.  The explorer
  fingerprints every run by this table (docs/FAULTS.md §5).
"""

from __future__ import annotations

from dataclasses import dataclass

# -- site name constants (the canonical spellings) ----------------------------

PCAP_TRANSFER_ERROR = "pcap.transfer_error"
PCAP_HANG = "pcap.hang"
BITSTREAM_CORRUPT = "bitstream.corrupt"
PRR_HANG = "prr.hang"
PRR_SPURIOUS_DONE = "prr.spurious_done"
PLIRQ_STORM = "plirq.storm"
GUEST_BAD_HYPERCALL = "guest.bad_hypercall"
GUEST_WILD_POINTER = "guest.wild_pointer"
SERVICE_CRASH = "service.crash"
SERVICE_HANG = "service.hang"
VM_KILL = "vm.kill"
BOARD_CRASH = "board.crash"
BOARD_HANG = "board.hang"
BOARD_PARTITION = "board.partition"
TRAFFIC_SURGE = "traffic.surge"
RETRY_STORM = "retry.storm"

#: Crashpoints the Hardware Task Manager consults (``service.crash``
#: specs may target one by name via ``params={"point": ...}``).
CRASHPOINTS = (
    "pickup",
    "alloc.pre_intent",
    "alloc.post_intent",
    "alloc.mid_act",
    "alloc.pre_commit",
    "alloc.post_commit",
    "reclaim.pre_commit",
    "release.pre_commit",
)

#: Restart policies a ``vm.kill`` spec may request via
#: ``params={"policy": ...}`` (see :class:`repro.kernel.lifecycle.VmPolicy`).
VM_POLICIES = ("restart", "restart_from_checkpoint", "halt")


@dataclass(frozen=True)
class RecoveryPath:
    """One hardened reaction, provable from the metrics plane.

    ``metric`` is the counter whose positive label-summed total marks
    the path as having *fired* in a run — the explorer's coverage
    fingerprint is exactly the set of paths whose metrics moved.
    """

    name: str
    layer: str                  # device | service | kernel | vm | fleet
    metric: str
    description: str


#: Every recovery path the reproduction implements, keyed by name.
RECOVERY_PATHS: dict[str, RecoveryPath] = {p.name: p for p in (
    RecoveryPath("pcap_retry", "device", "recovery.pcap_retries",
                 "a failed PCAP transfer is retried with backoff"),
    RecoveryPath("pcap_abort", "device", "recovery.pcap_giveups",
                 "retries exhausted: the reconfiguration aborts with a "
                 "VM-visible error"),
    RecoveryPath("watchdog_reclaim", "service",
                 "recovery.watchdog_reclaims",
                 "the controller watchdog expires and the manager "
                 "force-reclaims the PRR"),
    RecoveryPath("client_rewait", "device", "recovery.client_rewaits",
                 "a client woken while its task is still BUSY re-waits "
                 "instead of reading garbage"),
    RecoveryPath("sw_fallback", "device", "recovery.sw_fallbacks",
                 "the adaptive FFT/QAM APIs degrade to bit-identical "
                 "software"),
    RecoveryPath("manager_respawn", "kernel", "supervisor.restarts",
                 "the supervisor respawns the crashed/hung manager PD"),
    RecoveryPath("journal_rollback", "service",
                 "recovery.journal_rollbacks",
                 "an uncommitted intent-journal entry is rolled back on "
                 "restart"),
    RecoveryPath("journal_replay", "service", "recovery.journal_replays",
                 "a committed intent-journal entry is replayed on restart"),
    RecoveryPath("request_bounce", "service", "recovery.bounced_requests",
                 "in-flight guest requests are bounced with "
                 "MANAGER_RESTARTING for a transparent retry"),
    RecoveryPath("hypercall_guard", "kernel", "kernel.hypercall_faults",
                 "a malformed hypercall is absorbed by the safety net"),
    RecoveryPath("vm_containment", "kernel", "kernel.vm_kills",
                 "a faulting or killed VM is torn down without touching "
                 "its neighbours"),
    RecoveryPath("spurious_eoi", "kernel", "kernel.plirq_spurious",
                 "an unsolicited PL IRQ is EOI'd and counted, never "
                 "routed"),
    RecoveryPath("vm_restart", "vm", "vm.lifecycle.restarts",
                 "a killed VM is resurrected under its restart policy"),
    RecoveryPath("restart_from_checkpoint", "vm", "vm.lifecycle.restores",
                 "a killed VM resumes bit-exactly from its latest "
                 "checkpoint"),
    RecoveryPath("fencing", "fleet", "fleet.boards.declared_dead",
                 "a silent board is declared dead exactly once and "
                 "fenced"),
    RecoveryPath("migration_adopt", "fleet", "fleet.migrations",
                 "a tenant is migrated to a live board from its pulled "
                 "checkpoint"),
    RecoveryPath("board_rejoin", "fleet", "fleet.boards.rejoined",
                 "a healed board rejoins the fleet with its state "
                 "intact"),
    RecoveryPath("admission_shed", "fleet", "fleet.admission.dropped",
                 "excess load is refused at admission with a recorded "
                 "reason instead of rotting in queue"),
    RecoveryPath("rate_degrade", "fleet", "fleet.admission.degraded",
                 "a backed-up best-effort tenant's admitted rate is "
                 "progressively halved before any VM is killed"),
    RecoveryPath("retry_budget", "fleet", "fleet.rpc.retries_denied",
                 "retries past the fleet-wide budget are denied "
                 "(metastable-failure guard)"),
    RecoveryPath("breaker_trip", "fleet", "fleet.breaker.opens",
                 "a failing board link's circuit breaker opens and "
                 "sheds calls until its half-open probe succeeds"),
    RecoveryPath("brownout_reroute", "device",
                 "recovery.brownout_reroutes",
                 "under PRR/queue pressure a best-effort hardware task "
                 "is rerouted to the bit-identical software fallback"),
)}


@dataclass(frozen=True)
class FaultSite:
    """One injection site and the recovery contract around it."""

    name: str
    layer: str                      # device | guest | service | vm | fleet
    effect: str
    #: Recovery paths (names into :data:`RECOVERY_PATHS`) this site is
    #: expected to exercise — the explorer's prioritisation signal and
    #: the docs table's third column.
    recovery_paths: tuple[str, ...]
    #: When non-empty: valid values for ``params[target_param]``.
    targets: tuple[str, ...] = ()
    target_param: str = ""


#: The site registry, in documentation order (docs/FAULTS.md §1).
SITES: dict[str, FaultSite] = {s.name: s for s in (
    FaultSite(PCAP_TRANSFER_ERROR, "device",
              "the DevC transfer aborts with a CRC/DMA error",
              ("pcap_retry", "pcap_abort", "sw_fallback")),
    FaultSite(PCAP_HANG, "device",
              "the transfer stalls past its watchdog timeout",
              ("pcap_retry", "pcap_abort")),
    FaultSite(BITSTREAM_CORRUPT, "device",
              "the streamed bitstream fails its checksum on landing",
              ("pcap_retry", "pcap_abort")),
    FaultSite(PRR_HANG, "device",
              "a started hardware task never signals DONE",
              ("watchdog_reclaim", "brownout_reroute")),
    FaultSite(PRR_SPURIOUS_DONE, "device",
              "the PRR raises its PL IRQ with no completed work",
              ("client_rewait",)),
    FaultSite(PLIRQ_STORM, "kernel",
              "a burst of unsolicited PL IRQs on one line",
              ("spurious_eoi", "client_rewait")),
    FaultSite(GUEST_BAD_HYPERCALL, "guest",
              "a guest issues malformed hypercalls (rogue module)",
              ("hypercall_guard",)),
    FaultSite(GUEST_WILD_POINTER, "guest",
              "a guest programs wild DMA pointers (rogue module)",
              ("vm_containment",)),
    FaultSite(SERVICE_CRASH, "service",
              "the manager service dies at a named crashpoint",
              ("manager_respawn", "journal_rollback", "journal_replay",
               "request_bounce"),
              targets=CRASHPOINTS, target_param="point"),
    FaultSite(SERVICE_HANG, "service",
              "the manager service stops draining its mailbox",
              ("manager_respawn", "request_bounce")),
    FaultSite(VM_KILL, "vm",
              "a guest VM is killed outright (lifecycle recovery)",
              ("vm_containment", "vm_restart", "restart_from_checkpoint"),
              targets=VM_POLICIES, target_param="policy"),
    FaultSite(BOARD_CRASH, "fleet",
              "a fleet board dies outright (docs/FLEET.md)",
              ("fencing", "migration_adopt")),
    FaultSite(BOARD_HANG, "fleet",
              "a fleet board freezes: alive but makes no progress",
              ("fencing", "board_rejoin")),
    FaultSite(BOARD_PARTITION, "fleet",
              "a fleet board is isolated from the dispatcher",
              ("fencing", "migration_adopt")),
    FaultSite(TRAFFIC_SURGE, "fleet",
              "offered load multiplies for a window (flash crowd)",
              ("admission_shed", "rate_degrade")),
    FaultSite(RETRY_STORM, "fleet",
              "a board answers nothing while staying nominally up, "
              "amplifying every call into retries",
              ("retry_budget", "breaker_trip")),
)}

#: Every site the injector understands; plans naming others are rejected.
ALL_SITES = tuple(SITES)


def site(name: str) -> FaultSite:
    """Look up a site, raising the fail-fast error with the valid list."""
    try:
        return SITES[name]
    except KeyError:
        raise ValueError(f"unknown fault site {name!r} "
                         f"(known: {', '.join(ALL_SITES)})") from None


def validate_spec_params(name: str, params: dict) -> None:
    """Reject a spec whose target param can never match (typo'd
    crashpoint, unknown restart policy): the fault would silently never
    fire and the run would "pass" without testing anything."""
    s = site(name)
    if not s.targets or s.target_param not in params:
        return
    value = params[s.target_param]
    if value not in s.targets:
        raise ValueError(
            f"{name}: invalid {s.target_param} {value!r} "
            f"(valid: {', '.join(s.targets)})")


def check_registry() -> list[str]:
    """Internal consistency sweep (tested, and cheap enough for CI)."""
    problems: list[str] = []
    for name, s in SITES.items():
        for p in s.recovery_paths:
            if p not in RECOVERY_PATHS:
                problems.append(f"{name}: unknown recovery path {p!r}")
        if s.targets and not s.target_param:
            problems.append(f"{name}: targets without a target_param")
    for p in RECOVERY_PATHS.values():
        if "." not in p.metric:
            problems.append(f"{p.name}: metric {p.metric!r} not dotted")
    return problems
