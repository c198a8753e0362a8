"""Guest-visible address layout (offsets from the port's ``addr_base``).

Under the paravirt port these are guest virtual addresses (addr_base = 0);
under the native port they are offsets into the OS's physical image
(addr_base = the image's base), which keeps the two builds byte-for-byte
comparable — the paper's Table III hinges on that symmetry.
"""

from __future__ import annotations

from ..kernel.layout import (
    GUEST_HWDATA_SIZE,
    GUEST_HWDATA_VA,
    GUEST_KERNEL_CODE,
    GUEST_KERNEL_DATA,
    GUEST_PRR_IFACE_VA,
    GUEST_USER_BASE,
    GUEST_USER_SIZE,
)

KERNEL_CODE = GUEST_KERNEL_CODE
KERNEL_DATA = GUEST_KERNEL_DATA
USER_BASE = GUEST_USER_BASE
USER_SIZE = GUEST_USER_SIZE
HWDATA_VA = GUEST_HWDATA_VA
HWDATA_SIZE = GUEST_HWDATA_SIZE
PRR_IFACE_VA = GUEST_PRR_IFACE_VA

#: uC/OS-II's ``OSIdleCtr``, the one word the idle task increments.  It
#: sits below the TCB rows (``KERNEL_DATA + 0x100``) and the native port's
#: rows (``+ 0x2000``, ``+ 0x3000``).
OS_IDLE_CTR = KERNEL_DATA + 0x80

#: Virtual IRQ number of the guest's timer tick (virtual timer, Table I).
TICK_IRQ = 29
