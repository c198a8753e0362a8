"""Guest-exit protocol between a scheduled domain and the microkernel.

A domain runner (guest OS port or the manager service) executes in chunks;
each ``step`` either consumes its whole budget (returns None — the kernel
then checks for pending interrupts/quantum) or stops early with one of
these exit reasons, mirroring the trap classes of Section III.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Protocol

from ..common.errors import ArchFault


@dataclass
class ExitHypercall:
    """Guest executed an SVC with a hypercall number + args in r0-r3."""

    num: int
    args: tuple = ()
    #: Filled by the kernel before the guest resumes.
    result: Any = None


@dataclass
class ExitIdle:
    """Guest has nothing runnable until its next virtual interrupt."""

    #: Guest-cycles until the guest's own timer would wake it (0 = only an
    #: external event can).
    wake_in: int = 0


@dataclass
class ExitFault:
    """Guest triggered an architectural fault (UND/ABT)."""

    fault: ArchFault


@dataclass
class ExitShutdown:
    """Guest terminated voluntarily (end of workload)."""

    code: int = 0


GuestExit = ExitHypercall | ExitIdle | ExitFault | ExitShutdown


class DomainRunner(Protocol):
    """What a Protection Domain schedules."""

    def step(self, budget_cycles: int) -> GuestExit | None:
        """Run for at most ``budget_cycles`` simulated cycles.

        Returns None when the budget elapsed with the guest still busy;
        otherwise one of the exit records above.  The runner advances the
        simulation clock itself through the CPU helpers.
        """
        ...

    def deliver_virq(self, irq_id: int) -> None:
        """A virtual IRQ is being injected (guest IRQ entry invoked)."""
        ...

    def complete_hypercall(self, exit_: ExitHypercall) -> None:
        """Kernel finished the hypercall; result is in ``exit_.result``."""
        ...
