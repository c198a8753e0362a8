"""Address-space layout: kernel image, per-VM guest layout, domains.

The kernel is identity-mapped in low DRAM and present (privileged-only,
global) in every address space, so traps never switch page tables — only
returning to a *different* VM does.  Guest layouts are identical in
virtual space and backed by disjoint physical chunks, which is what makes
the ASID tagging of the TLB meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.units import KB, MB

# -- MMU domain assignment (Table II) ------------------------------------

DOMAIN_HK = 0     # host kernel (Mini-NOVA): always client, AP=privileged
DOMAIN_GK = 1     # guest kernel: client in GK mode, NA in GU mode
DOMAIN_GU = 2     # guest user: always client, AP=full


# -- kernel image (physical == virtual) ------------------------------------

KERNEL_BASE = 0x0010_0000
KERNEL_CODE_SIZE = 40 * KB          # paper: ~40 KB ELF
KERNEL_DATA_BASE = KERNEL_BASE + KERNEL_CODE_SIZE
KERNEL_DATA_SIZE = 216 * KB
KERNEL_STACK_TOP = KERNEL_BASE + 1 * MB

#: Kernel linear map: the first KERNEL_LINEAR_SIZE bytes of DRAM appear at
#: this virtual base (privileged, global) in *every* address space, so the
#: kernel can reach any kernel object / mailbox / guest page regardless of
#: which VM's page table is live — without colliding with guest VAs.
KERNEL_LINEAR_BASE = 0xC000_0000
KERNEL_LINEAR_SIZE = 192 * MB


def kva(paddr: int) -> int:
    """Kernel virtual address of physical ``paddr`` through the linear map."""
    return KERNEL_LINEAR_BASE + (paddr - KERNEL_BASE)


@dataclass(frozen=True)
class KernelSymbols:
    """Code addresses of the kernel's hot paths.

    Each routine gets its own address range so the I-cache model sees a
    realistic layout: the hypercall entry stub, the scheduler and the vGIC
    injector occupy distinct lines that other VMs' working sets can evict —
    the mechanism behind Table III's entry-cost growth.
    """

    vectors: int = KERNEL_BASE                      # exception vector stubs
    svc_entry: int = KERNEL_BASE + 0x0100           # hypercall trap entry
    und_entry: int = KERNEL_BASE + 0x0400           # UND trap (VFP/priv emul)
    abt_entry: int = KERNEL_BASE + 0x0700           # aborts
    irq_entry: int = KERNEL_BASE + 0x0A00           # physical IRQ entry
    hypercall_dispatch: int = KERNEL_BASE + 0x1000
    hypercall_handlers: int = KERNEL_BASE + 0x1800  # 25 handlers, 128 B apart
    vgic_inject: int = KERNEL_BASE + 0x3000
    scheduler: int = KERNEL_BASE + 0x3800
    vm_switch: int = KERNEL_BASE + 0x4000
    vfp_lazy: int = KERNEL_BASE + 0x4800
    mem_map: int = KERNEL_BASE + 0x5000             # PT insert/remove
    ivc: int = KERNEL_BASE + 0x5800
    hwreq_glue: int = KERNEL_BASE + 0x6000          # HC_HWTASK_* kernel glue
    exc_return: int = KERNEL_BASE + 0x7000

    def handler(self, hc_num: int) -> int:
        """Code address of hypercall handler ``hc_num``."""
        return self.hypercall_handlers + hc_num * 128


SYMS = KernelSymbols()


# -- guest virtual layout (same in every VM) --------------------------------

GUEST_KERNEL_CODE = 0x0000_8000      # uCOS-II image
GUEST_KERNEL_CODE_SIZE = 64 * KB
GUEST_KERNEL_DATA = 0x0004_0000      # TCBs, queues, OS heap
GUEST_KERNEL_DATA_SIZE = 192 * KB
GUEST_USER_BASE = 0x0040_0000        # task code + workload working sets
GUEST_USER_SIZE = 4 * MB
GUEST_HWDATA_VA = 0x0080_0000        # hardware-task data section
GUEST_HWDATA_SIZE = 512 * KB
GUEST_PRR_IFACE_VA = 0x9000_0000     # PRR register groups get mapped here

#: Physical memory granted to each VM.
GUEST_PHYS_CHUNK = 16 * MB

#: Virtual address the Hardware Task Manager maps the control page at.
MANAGER_CTL_VA = 0x9100_0000
#: Manager service image/work area (its own PD, user level).
MANAGER_CODE_VA = 0x0001_0000
MANAGER_CODE_SIZE = 32 * KB
MANAGER_DATA_VA = 0x0006_0000
MANAGER_DATA_SIZE = 128 * KB
