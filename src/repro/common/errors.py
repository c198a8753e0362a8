"""Exception hierarchy for the Mini-NOVA reproduction.

Faults that model *architectural* events (aborts, undefined instructions)
are distinct from host-level programming errors: the former are caught by
the simulated exception machinery, the latter should propagate to pytest.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SimulationError(ReproError):
    """The discrete-event engine reached an impossible state."""


class DeviceError(ReproError):
    """A modelled device or service (PCAP, PRR controller, manager...)
    failed an operation, or was configured inconsistently."""


class DeviceBusy(DeviceError):
    """The device is already servicing a request."""


class ServiceCrashed(DeviceError):
    """A user-level service PD died mid-request (injected or detected).

    Raised out of the ManagerService's step path when a ``service.crash``
    fault fires at one of its named crashpoints; the kernel run loop
    catches it and hands the dead PD to the :class:`ManagerSupervisor`.
    """

    def __init__(self, point: str) -> None:
        super().__init__(f"service crashed at crashpoint {point!r}")
        self.point = point


class MemoryError_(ReproError):
    """Host-level memory-map misuse (overlapping regions, bad ranges)."""


class ArchFault(ReproError):
    """Base class for faults that the simulated CPU traps architecturally."""

    #: CPU mode the fault is taken in (see :mod:`repro.cpu.modes`).
    trap_mode: str = "abt"


class DataAbort(ArchFault):
    """Illegal data access: permission denied, translation fault, ..."""

    trap_mode = "abt"

    def __init__(self, vaddr: int, reason: str, *, write: bool = False) -> None:
        super().__init__(f"data abort @ {vaddr:#010x} ({reason}, {'write' if write else 'read'})")
        self.vaddr = vaddr
        self.reason = reason
        self.write = write


class PrefetchAbort(ArchFault):
    """Illegal instruction fetch."""

    trap_mode = "abt"

    def __init__(self, vaddr: int, reason: str) -> None:
        super().__init__(f"prefetch abort @ {vaddr:#010x} ({reason})")
        self.vaddr = vaddr
        self.reason = reason


class UndefinedInstruction(ArchFault):
    """Privileged/unavailable instruction executed (e.g. CP15 from PL0, VFP off)."""

    trap_mode = "und"

    def __init__(self, what: str) -> None:
        super().__init__(f"undefined instruction: {what}")
        self.what = what


class HwMmuFault(ReproError):
    """A hardware task's DMA access fell outside its client's data section.

    Raised by the PRR controller's hwMMU (Section IV-C of the paper); the
    PRR controller converts it into an error status + blocked transfer, so
    it never reaches the CPU as an exception.
    """

    def __init__(self, prr_id: int, paddr: int, lo: int, hi: int) -> None:
        super().__init__(
            f"hwMMU: PRR{prr_id} access @ {paddr:#010x} outside section [{lo:#010x}, {hi:#010x})"
        )
        self.prr_id = prr_id
        self.paddr = paddr
        self.lo = lo
        self.hi = hi


class HypercallError(ReproError):
    """Malformed hypercall (bad number / arguments); maps to an error status."""


class GuestPanic(ReproError):
    """A guest OS hit an unrecoverable internal error."""

