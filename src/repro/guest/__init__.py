"""Guest OS layer: the uC/OS-II-style RTOS, its two ports, task actions,
the guest executor, and the hardware-task client API."""

from . import actions, api, layout_guest
from .costs import UCOS_COSTS, UcosCosts
from .exec import GuestExecutor
from .ports.native import NativeSystem
from .ports.paravirt import ParavirtUcos
from .ucos import IDLE_PRIO, N_PRIOS, OsStats, Semaphore, TaskState, Tcb, Ucos

__all__ = [
    "actions", "api", "layout_guest", "UCOS_COSTS", "UcosCosts",
    "GuestExecutor", "NativeSystem", "ParavirtUcos", "IDLE_PRIO", "N_PRIOS",
    "OsStats", "Semaphore", "TaskState", "Tcb", "Ucos",
]
