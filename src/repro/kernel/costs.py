"""Instruction-count budget of every modelled kernel path.

These are the *issue* costs; the memory-system cost on top (I-fetches,
data misses, TLB walks) emerges from the cache/TLB models at run time —
which is why entry paths get slower with more VMs while these constants
stay put.  Values are sized so that the native hardware-task-management
path lands on the ~15 µs scale of Table III at 660 MHz, with the split
between stages following the paper's description of the work done in each.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class KernelCosts:
    # Exception plumbing
    svc_entry_stub: int = 28          # bank save, mode bookkeeping
    exc_return_path: int = 30
    hypercall_dispatch: int = 22      # validate number, portal lookup
    irq_entry_stub: int = 30
    und_entry_stub: int = 32
    abt_entry_stub: int = 36

    # vGIC (Fig. 2)
    vgic_ack_and_route: int = 45      # ICCIAR read handled separately (MMIO)
    vgic_inject: int = 55             # write vIRQ, redirect guest PC
    vgic_mask_per_irq: int = 8        # per-IRQ enable/disable on VM switch
    vgic_eoi: int = 18

    # Scheduler + vCPU (Table I, Fig. 3)
    scheduler_pick: int = 30
    vm_switch_fixed: int = 64         # queue ops, quantum bookkeeping
    ttbr_asid_dacr_reload: int = 24   # CP15 writes incl. barriers
    timer_reprogram: int = 22
    vfp_lazy_trap: int = 48           # trap decode + FPEXC flip

    # Memory management hypercalls
    pt_update_per_page: int = 30      # descriptor compute + write + barrier
    tlb_flush_va: int = 14
    tlb_flush_asid: int = 20
    cache_flush_call: int = 26

    # Hardware-task request glue (kernel side of HC_HWTASK_*)
    hwreq_validate: int = 40          # arg checks, copy to manager mailbox
    hwreq_wakeup_manager: int = 28    # move PD to run queue

    # IVC
    ivc_send: int = 60
    ivc_recv: int = 45

    # Generic small hypercalls (IRQ ops, reg access, timer)
    small_hypercall: int = 30


@dataclass(frozen=True)
class ManagerCosts:
    """User-level Hardware Task Manager service (Section IV-E).

    The native baseline runs the same allocation logic as a plain
    function call, so these costs are shared between the two ports; only
    the virtualization-specific page-table work is skipped natively.
    """

    service_entry: int = 80           # mailbox read, request decode
    task_table_lookup: int = 120      # indexed lookup + bitstream metadata
    prr_table_scan_per_prr: int = 90  # state checks, suitability
    reclaim_save_regs: int = 140      # read reg group, write data section
    map_iface_page: int = 60          # hypercall into kernel (plus kernel cost)
    hwmmu_load: int = 70              # 2 control-page writes + readback
    irq_line_setup: int = 85
    pcap_launch: int = 160            # DevC programming + DMA descriptor
    status_return: int = 50
    # Allocation bookkeeping that exists natively too
    alloc_bookkeeping: int = 7600     # consistency checks, statistics, queues


KERNEL_COSTS = KernelCosts()
MANAGER_COSTS = ManagerCosts()
