"""Instruction budgets of the modelled uC/OS-II paths.

Like :mod:`repro.kernel.costs`, these are issue costs; cache/TLB penalties
accrue on top through the memory model at the guest's own code/data
addresses.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class UcosCosts:
    tick_handler: int = 180       # OSTimeTick: walk TCBs, decrement delays
    ctx_switch: int = 120         # OSCtxSw: save/restore task frame
    sched_pick: int = 45          # OS_Sched: ready-bitmap scan
    sem_pend: int = 65
    sem_post: int = 55
    isr_entry: int = 85           # OSIntEnter + vector to handler
    isr_exit: int = 60            # OSIntExit (may context-switch)
    hypercall_wrapper: int = 22   # paravirt patch: marshal args + SVC
    idle_loop: int = 8000         # one pass of OS_TaskIdle around
                                  # OSIdleCtr++ (coarse grain: an event
                                  # that lands mid-pass is seen at its
                                  # end, at most ~9 us later)
    api_glue: int = 35            # hardware-task API bookkeeping per call
    fault_handler: int = 150      # guest page-fault service (Section IV-E)


UCOS_COSTS = UcosCosts()

# Code-layout offsets within the guest kernel image (I-cache placement).
CODE_TICK = 0x0200
CODE_CTXSW = 0x0800
CODE_SCHED = 0x0C00
CODE_SEM = 0x1000
CODE_ISR = 0x1400
CODE_HC_WRAPPER = 0x1800
CODE_IDLE = 0x1C00
CODE_API = 0x2000
CODE_FAULT = 0x2400
