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
frames.  Each completed frame serves exactly one queued request of the
open-loop traffic model, and because frame outputs are pure functions of
``(kind, seed, i)`` the fleet's request accounting is reproducible to
the byte across same-seed runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

#: Criticality classes, shed order: best-effort tenants go first.
CRITICAL = "critical"
BESTEFFORT = "besteffort"
CLASSES = (CRITICAL, BESTEFFORT)

#: Tenant lifecycle states tracked by the dispatcher (F1).
RUNNING = "running"
MIGRATING = "migrating"
SHED = "shed"
DEAD = "dead"


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
    #: Open-loop request queue: arrival ticks, FIFO (F4).  A deque —
    #: the serve loop pops from the head every tick and ``pop(0)`` on a
    #: list is O(n) in queue depth.
    queue: deque[int] = field(default_factory=deque)
    arrived: int = 0
    served: int = 0
    shed_requests: int = 0
    #: Overload-plane accounting: requests past admission, drops by
    #: reason (rate_limited / queue_full / deadline_exceeded; none under
    #: NO_LIMITS), the subset of ``shed_requests`` flushed from the queue
    #: on a kill, and requests served within the overload deadline
    #: (== served under NO_LIMITS).
    admitted: int = 0
    dropped: dict[str, int] = field(default_factory=dict)
    queue_shed: int = 0
    goodput: int = 0
    migrations: int = 0
    restarts: int = 0

    def accounted(self) -> int:
        """F4 left-hand side: every request is queued, served, shed,
        or dropped by the admission plane."""
        return (self.served + self.shed_requests
                + sum(self.dropped.values()) + len(self.queue))

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.spec.name, "class": self.spec.tclass,
            "kind": self.spec.kind, "state": self.state,
            "board": self.board, "vm_id": self.vm_id,
            "epoch": self.epoch, "progress": self.progress,
            "arrived": self.arrived, "served": self.served,
            "shed_requests": self.shed_requests,
            "admitted": self.admitted,
            "dropped": {k: self.dropped[k] for k in sorted(self.dropped)},
            "queue_shed": self.queue_shed,
            "goodput": self.goodput,
            "queued": len(self.queue),
            "migrations": self.migrations, "restarts": self.restarts,
        }
