"""Tenant model: what the fleet places onto boards (docs/FLEET.md).

A :class:`TenantSpec` is the dispatcher's durable description of one
tenant VM — enough to (re)create the guest anywhere: the board-side
:class:`~repro.fleet.board.BoardServer` builds the uC/OS-II image and
its service task purely from the spec, so a migration target constructs
a byte-identical incarnation before adopting the source checkpoint.

Tenants come in two criticality classes (the mixed-criticality framing
of Martins & Pinto, PAPERS.md): ``critical`` tenants must survive board
failures (migrate, or restart fresh as a last resort), ``besteffort``
tenants are shed first when the surviving capacity cannot hold everyone.

The service workload is the checkpoint-aware restartable frame loop of
:mod:`repro.workloads.restartable`, run open-ended: frame ``i`` writes
its golden FFT/QAM output into slot ``i mod RESTART_SLOTS`` of the
hw-data section (the finite-slot region wraps), records progress in
``os.persist["frame"]`` and checkpoints every ``checkpoint_every``
frames.  Each completed frame serves the oldest queued request in the
tenant's request ledger (:class:`TenantRecord`), and because frame
outputs are pure functions of ``(kind, seed, i)`` the fleet's request
accounting is reproducible to the byte across same-seed runs.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any

from .overload import DROP_QUEUE_FULL, DROP_RATE_LIMITED, DROP_REASONS

#: Criticality classes, shed order: best-effort tenants go first.
CRITICAL = "critical"
BESTEFFORT = "besteffort"
CLASSES = (CRITICAL, BESTEFFORT)

#: Tenant lifecycle states tracked by the dispatcher (F1).
RUNNING = "running"
MIGRATING = "migrating"
SHED = "shed"
DEAD = "dead"

#: Request outcomes besides the admission plane's drop reasons
#: (:data:`~repro.fleet.overload.DROP_REASONS`): served by a frame, shed
#: on arrival (the tenant was shed or dead), or shed from the queue (the
#: tenant was shed or died with the request queued).
SERVED = "served"
SHED_ON_ARRIVAL = "shed_on_arrival"
SHED_FROM_QUEUE = "shed_from_queue"
#: The outcomes that refuse a request on arrival: it was never admitted.
REFUSALS = frozenset({DROP_RATE_LIMITED, DROP_QUEUE_FULL, SHED_ON_ARRIVAL})


@dataclass(frozen=True)
class TenantSpec:
    """Everything needed to (re)build one tenant VM on any board."""

    name: str
    tclass: str = CRITICAL          # CRITICAL | BESTEFFORT
    kind: str = "fft"               # frame kind: "fft" | "qam"
    seed: int = 0                   # per-tenant frame stream seed
    frames: int = 1 << 30           # open-ended service loop by default
    checkpoint_every: int = 4       # frames between checkpoint hypercalls

    def __post_init__(self) -> None:
        if self.tclass not in CLASSES:
            raise ValueError(f"unknown tenant class {self.tclass!r}")
        if self.kind not in ("fft", "qam"):
            raise ValueError(f"unknown frame kind {self.kind!r}")

    def as_dict(self) -> dict[str, Any]:
        return {"name": self.name, "tclass": self.tclass,
                "kind": self.kind, "seed": self.seed,
                "frames": self.frames,
                "checkpoint_every": self.checkpoint_every}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "TenantSpec":
        return cls(**d)


@dataclass
class TenantRecord:
    """The dispatcher's live view of one tenant (F1/F2/F4/F5 substrate)."""

    spec: TenantSpec
    state: str = RUNNING
    board: int | None = None        # fault domain currently hosting it
    vm_id: int | None = None        # VM id *on that board*
    #: Placement epoch: bumped on every (re)placement; F5 demands strict
    #: monotonic growth, which rules out zombie double-placements.
    epoch: int = 0
    #: Frames completed as of the last progress report (served requests
    #: are the deltas of this).
    progress: int = 0
    #: Progress recorded at the last checkpoint pull — what a migration
    #: can resume from without replaying more than the checkpoint gap.
    checkpointed: int = 0
    #: The request ledger, indexed by request ID (arrival order): one
    #: ``[arrival tick, outcome, end tick]`` row per request.  Outcome and
    #: end tick are None while the request is queued.  Only :meth:`arrive`
    #: and :meth:`end_head` write it.
    ledger: list[list] = field(default_factory=list)
    #: The IDs still queued, oldest first (F4).  A deque: the serve loop
    #: pops from the head every tick, and ``pop(0)`` on a list is O(n) in
    #: queue depth.
    queue: deque[int] = field(default_factory=deque)
    migrations: int = 0
    restarts: int = 0

    def arrive(self, t: int, outcome: str | None) -> None:
        """Book one request arriving at tick ``t``: queued when
        ``outcome`` is None, else refused with that outcome on arrival."""
        if outcome is None:
            self.queue.append(len(self.ledger))
            self.ledger.append([t, None, None])
        else:
            self.ledger.append([t, outcome, t])

    def end_head(self, t: int, outcome: str) -> int:
        """Give the oldest queued request ``outcome`` at tick ``t``;
        returns its arrival tick."""
        row = self.ledger[self.queue.popleft()]
        row[1], row[2] = outcome, t
        return row[0]

    def as_dict(self) -> dict[str, Any]:
        n = Counter(row[1] for row in self.ledger)
        arrived = len(self.ledger)
        return {
            "name": self.spec.name, "class": self.spec.tclass,
            "kind": self.spec.kind, "state": self.state,
            "board": self.board, "vm_id": self.vm_id,
            "epoch": self.epoch, "progress": self.progress,
            "arrived": arrived, "served": n[SERVED],
            "shed_requests": n[SHED_ON_ARRIVAL] + n[SHED_FROM_QUEUE],
            "admitted": arrived - sum(n[o] for o in REFUSALS),
            "dropped": {r: n[r] for r in DROP_REASONS if n[r]},
            "queue_shed": n[SHED_FROM_QUEUE],
            "goodput": n[SERVED],       # every serve meets the deadline
            "queued": len(self.queue),
            "migrations": self.migrations, "restarts": self.restarts,
        }
