"""Deterministic fault injection (docs/FAULTS.md).

``FaultPlan`` declares which sites misbehave and when; ``FaultInjector``
attaches a plan to a machine so hardened device/kernel code can consult
it.  ``repro.faults.explore`` is the fault-schedule runner — named
schedules, coverage-guided exploration and seeded random faults —
behind ``python -m repro explore`` and CI.
"""

from .inject import FaultInjector
from .plan import (
    ALL_SITES,
    BITSTREAM_CORRUPT,
    FaultPlan,
    FaultSpec,
    GUEST_BAD_HYPERCALL,
    GUEST_WILD_POINTER,
    PCAP_HANG,
    PCAP_TRANSFER_ERROR,
    PLIRQ_STORM,
    PRR_HANG,
    PRR_SPURIOUS_DONE,
    UNLIMITED,
)

__all__ = [
    "ALL_SITES",
    "BITSTREAM_CORRUPT",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "GUEST_BAD_HYPERCALL",
    "GUEST_WILD_POINTER",
    "PCAP_HANG",
    "PCAP_TRANSFER_ERROR",
    "PLIRQ_STORM",
    "PRR_HANG",
    "PRR_SPURIOUS_DONE",
    "UNLIMITED",
]
