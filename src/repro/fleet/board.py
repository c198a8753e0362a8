"""One board of the fleet: a full Machine + Mini-NOVA behind an RPC shim.

A :class:`BoardServer` owns one simulated Zynq — machine, kernel,
Hardware Task Manager — and exposes the small operation set the
dispatcher drives it with (docs/FLEET.md §3).  Every operation takes and
returns **plain data** (ints, strings, bytes, dicts, lists, and a
checkpoint's immutable :class:`~repro.kernel.lifecycle.PageImage`): the
dispatcher holds no reference into a board, and a test holds every
result equal to its pickle round trip.  Each board installs
:data:`BOARD_TASKS` and runs its tenants' uC/OS-II at
:data:`BOARD_TICK_HZ`.

Boards are independent fault domains: each builds its own engine clock,
RNG streams and metrics registry from ``(board_id, seed)``, shares no
state with its peers, and advances only when the dispatcher steps it.
Checkpoints cross the board boundary as dicts (:func:`encode_checkpoint`
/ :func:`decode_checkpoint`): the migration target creates a fresh VM
from the tenant spec with the scheduler parked, adopts the snapshot
(:meth:`repro.kernel.lifecycle.VmLifecycle.adopt` rebases the physical
addresses onto the new chunk), then resumes it.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any

from ..guest.ports.paravirt import ParavirtUcos
from ..guest.ucos import Ucos
from ..hwmgr.invariants import check_invariants, check_lifecycle_invariants
from ..hwmgr.service import ManagerService
from ..kernel.core import MiniNova
from ..kernel.lifecycle import VmCheckpoint
from ..kernel.pd import PdState
from ..machine import Machine, MachineConfig
from ..obs.aggregate import MetricSnapshot
from ..obs.flight import FlightRecorder
from ..workloads.restartable import make_restartable_task
from .tenant import TenantSpec

#: Task library installed on every fleet board (small: board
#: construction is the dominant cost of a many-board run).
BOARD_TASKS = ("fft256", "qam16")

#: OS tick rate of every tenant's uC/OS-II.
BOARD_TICK_HZ = 100


def encode_checkpoint(ckpt: VmCheckpoint) -> dict[str, Any]:
    """Wire form of a checkpoint: a plain dict whose ``memory_image``
    stays the snapshot's own page image (immutable, so ``asdict`` shares
    it rather than copying 4,096 pages, and pickling ships each shared
    page once)."""
    return asdict(ckpt)


def decode_checkpoint(d: dict[str, Any]) -> VmCheckpoint:
    d = dict(d)
    d["hw_data"] = tuple(d["hw_data"])
    return VmCheckpoint(**d)


class BoardServer:
    """One board's operation endpoint.  All ops take/return plain data."""

    def __init__(self, board_id: int, *, seed: int) -> None:
        self.board_id = board_id
        self.seed = seed
        self.machine = Machine(MachineConfig(tasks=BOARD_TASKS))
        self.kernel = MiniNova(self.machine)
        self.kernel.boot()
        self.kernel.attach_manager(ManagerService())
        #: vm_id -> the guest OS object (progress lives in its persist).
        self._oses: dict[int, Ucos] = {}
        #: vm_id -> tenant name (for reports and the flight bundle).
        self._tenants: dict[int, str] = {}

    # -- placement ---------------------------------------------------------

    def _build_vm(self, spec: TenantSpec, *, runnable: bool):
        os_ = Ucos(spec.name, tick_hz=BOARD_TICK_HZ)
        os_.create_task(f"svc-{spec.kind}", 5, make_restartable_task(
            spec.kind, frames=spec.frames, seed=spec.seed,
            checkpoint_every=spec.checkpoint_every))
        pd = self.kernel.create_vm(os_.name, ParavirtUcos(os_),
                                   runnable=runnable)
        self._oses[pd.vm_id] = os_
        self._tenants[pd.vm_id] = spec.name
        return pd

    def place(self, spec: dict[str, Any]) -> dict[str, Any]:
        """Create a fresh tenant VM from its spec; returns its vm_id."""
        pd = self._build_vm(TenantSpec.from_dict(spec), runnable=True)
        return {"vm_id": pd.vm_id}

    def restore(self, spec: dict[str, Any],
                ckpt: dict[str, Any]) -> dict[str, Any]:
        """Adopt a migrated tenant: fresh VM (parked), checkpoint applied
        onto its chunk, then woken.  Returns the new vm_id and the frame
        the incarnation resumes at."""
        tenant = TenantSpec.from_dict(spec)
        pd = self._build_vm(tenant, runnable=False)
        self.kernel.lifecycle.adopt(pd, decode_checkpoint(ckpt))
        self.kernel.sched.resume(pd, front=False)
        frame = int(self._oses[pd.vm_id].persist.get("frame", 0))
        return {"vm_id": pd.vm_id, "resumed_at": frame}

    # -- stepping ----------------------------------------------------------

    def step(self, until_cycle: int) -> dict[str, Any]:
        """Advance the board's engine to an absolute cycle."""
        if until_cycle > self.kernel.sim.now:
            self.kernel.run(until_cycles=until_cycle)
        return {"now": self.kernel.sim.now, "progress": self._progress()}

    def _progress(self) -> dict[int, int]:
        return {vm_id: int(os_.persist.get("frame", 0))
                for vm_id, os_ in sorted(self._oses.items())}

    # -- migration store ---------------------------------------------------

    def checkpoint(self, vm_id: int,
                   since: int | None = None) -> dict[str, Any] | None:
        """Snapshot a tenant for the dispatcher's migration store.

        The guest's own latest checkpoint (the VM_CHECKPOINT hypercalls
        its service loop issues) is reused — the pull then takes no
        snapshot and copies no guest memory; only a VM that has none yet
        is snapshotted here.  ``since`` is the ``seq`` of the snapshot
        of this VM the caller already holds: while it is still the
        latest, the reply is ``None`` and nothing is encoded or shipped."""
        pd = self.kernel.domains[vm_id]
        ckpt = self.kernel.lifecycle.latest(vm_id)
        if ckpt is None:
            ckpt = self.kernel.lifecycle.checkpoint(pd, reason="fleet")
        elif ckpt.seq == since:
            return None
        return encode_checkpoint(ckpt)

    def kill(self, vm_id: int, reason: str = "fleet") -> dict[str, Any]:
        """Kill a tenant VM (a shed)."""
        pd = self.kernel.domains[vm_id]
        if pd.state is not PdState.DEAD:
            self.kernel.kill_vm(pd, reason=reason)
        self._oses.pop(vm_id, None)
        self._tenants.pop(vm_id, None)
        return {"ok": True}

    # -- observability -----------------------------------------------------

    def prr_grants(self) -> list[list[int]]:
        """Live ``[prr_id, client_vm]`` grants (F3 ground truth)."""
        return [[prr.prr_id, prr.client_vm]
                for prr in self.machine.prrs if prr.client_vm is not None]

    def invariants(self) -> list[str]:
        """Board-local I1-I8 + L1-L6 sweep, as strings."""
        return (check_invariants(self.kernel)
                + check_lifecycle_invariants(self.kernel))

    def snapshot(self) -> dict[str, Any]:
        """The board registry's mergeable image (fleet aggregation)."""
        return MetricSnapshot.of(self.kernel.metrics).to_dict()

    def read_output(self, vm_id: int, frames: int) -> bytes:
        """The tenant's restartable output region (migration proof)."""
        from ..workloads.restartable import read_output_region
        pd = self.kernel.domains[vm_id]
        return read_output_region(self.kernel, pd, frames=frames)

    def flight_dump(self, reason: str,
                    info: dict[str, Any]) -> dict[str, Any]:
        """Arm a flight recorder on this board and dump immediately —
        the dispatcher calls this on the implicated board when a fleet
        invariant trips (docs/FLEET.md §6)."""
        flight = FlightRecorder(None)
        flight.arm(self.kernel, seed=self.seed,
                   context={"board": self.board_id,
                            "tenants": dict(sorted(self._tenants.items())),
                            **info})
        return flight.dump(reason)
