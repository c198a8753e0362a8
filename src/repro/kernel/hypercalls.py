"""The Mini-NOVA hypercall ABI: 25 calls (Section V-B).

Numbers, argument conventions and result codes.  Arguments travel in
r0-r3 (r0 = hypercall number in the modelled ABI); the result lands in r0.
The six groups of Section III-A: cache/TLB ops, IRQ ops, memory
management, privileged-register access, shared-device access, and inter-VM
communication.
"""

from __future__ import annotations

from enum import IntEnum


class Hc(IntEnum):
    # -- cache / TLB operations (group 1) --
    CACHE_FLUSH_ALL = 1
    CACHE_INV_LINE = 2
    TLB_FLUSH_ASID = 3
    TLB_FLUSH_VA = 4
    # -- IRQ operations (group 2) --
    IRQ_ENABLE = 5
    IRQ_DISABLE = 6
    IRQ_EOI = 7
    VIRQ_REGISTER = 8        # register the VM's IRQ entry + an IRQ source
    # -- memory management (group 3) --
    MAP_INSERT = 9
    MAP_REMOVE = 10
    PT_CREATE = 11           # guest sub-table creation
    HWDATA_DEFINE = 12       # declare the hardware-task data section
    # -- privileged register access (group 4) --
    REG_READ = 13
    REG_WRITE = 14
    GUEST_MODE_SET = 15      # guest kernel <-> guest user (drives DACR)
    VFP_ENABLE = 16
    # -- timer / scheduling --
    TIMER_SET = 17
    TIMER_READ = 18
    VM_YIELD = 19
    VM_SUSPEND = 20
    # -- shared devices (group 5) --
    HWTASK_REQUEST = 21      # the 3-argument call of Section IV-E
    HWTASK_RELEASE = 22
    HWTASK_IRQ_ATTACH = 23
    DEV_ACCESS = 24          # supervised UART/SD access
    # -- inter-VM communication (group 6) --
    IVC_SEND = 25
    IVC_RECV = 26
    # -- VM lifecycle (docs/RECOVERY.md §9; kernel-extension calls, not
    # part of the paper's public 25-call table) --
    VM_CHECKPOINT = 27       # snapshot the calling VM; r0 = snapshot seq
    VM_CHECKPOINT_QUERY = 28 # r0 = latest snapshot seq (0 = none)


#: The paper counts 25 hypercalls; IVC_RECV completes the send/recv pair
#: and VM_SUSPEND doubles as IVC blocking, so the *external* count matches:
#: GUEST_MODE_SET is an internal fast-path not exposed in the public table,
#: and the VM_CHECKPOINT pair is a post-paper lifecycle extension.
PUBLIC_HYPERCALLS = tuple(
    h for h in Hc
    if h not in (Hc.GUEST_MODE_SET, Hc.VM_CHECKPOINT, Hc.VM_CHECKPOINT_QUERY))
assert len(PUBLIC_HYPERCALLS) == 25


class HcStatus(IntEnum):
    """Result codes in r0 (Section IV-E stage 6)."""

    SUCCESS = 0
    RECONFIG = 1     # request accepted, PCAP transfer in flight
    BUSY = 2         # transient: no idle PRR can host the task, or the
                     # IVC addressee's mailbox is full; retry later
    ERR_ARG = 3
    ERR_PERM = 4
    ERR_NOTASK = 5
    ERR_STATE = 6
    MANAGER_RESTARTING = 7   # manager PD is being restarted; retry shortly


#: Hypercalls the paravirtualized uC/OS-II port actually uses (paper: 17
#: dedicated hypercalls for the guest).
UCOS_HYPERCALLS = (
    Hc.CACHE_FLUSH_ALL, Hc.TLB_FLUSH_VA, Hc.IRQ_ENABLE, Hc.IRQ_DISABLE,
    Hc.IRQ_EOI, Hc.VIRQ_REGISTER, Hc.MAP_INSERT, Hc.HWDATA_DEFINE,
    Hc.REG_READ, Hc.REG_WRITE, Hc.VFP_ENABLE, Hc.TIMER_SET, Hc.TIMER_READ,
    Hc.VM_YIELD, Hc.HWTASK_REQUEST, Hc.HWTASK_IRQ_ATTACH, Hc.DEV_ACCESS,
)
assert len(UCOS_HYPERCALLS) == 17
