"""Physical address space: DRAM, MMIO dispatch, frame allocation.

The DRAM model is functional (a NumPy byte array) because page tables,
device registers and a handful of kernel structures really live in
simulated memory; bulk workload data does not need functional storage and
only *touches* addresses for cache/TLB timing.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Protocol

import numpy as np

from ..common.errors import MemoryError_
from ..common.params import MemoryMapParams
from ..common.units import hexaddr, is_aligned
from .descriptors import PAGE_SIZE


class MmioDevice(Protocol):
    """Anything mappable into the physical address space as registers."""

    def mmio_read(self, offset: int) -> int: ...

    def mmio_write(self, offset: int, value: int) -> None: ...


class Dram:
    """Byte-addressable RAM backed by a NumPy array, with a write stamp
    per 4 KB page."""

    def __init__(self, base: int, size: int) -> None:
        self.base = base
        self.size = size
        self._mem = np.zeros(size, dtype=np.uint8)
        #: Bumped on every functional write (word or block).
        self.write_epoch = 0
        #: Per 4 KB page, the ``write_epoch`` of the last write that
        #: touched it; 0 = not written since the array was zeroed.  VM
        #: checkpoints copy only the pages stamped after their previous
        #: snapshot (docs/PERFORMANCE.md §7), and a memoized page walk
        #: stays valid while its descriptor pages are stamped no later
        #: than the walk (§3).
        self._page_epochs = np.zeros(-(-size // PAGE_SIZE), dtype=np.int64)

    def contains(self, paddr: int) -> bool:
        return self.base <= paddr < self.base + self.size

    def _stamp(self, off: int, n: int) -> None:
        """Bump the epoch and stamp every page of ``[off, off + n)``."""
        self.write_epoch += 1
        self._page_epochs[off // PAGE_SIZE:(off + n - 1) // PAGE_SIZE + 1] = \
            self.write_epoch

    def page_epoch(self, paddr: int) -> int:
        """Write stamp of the page holding ``paddr``."""
        return self._page_epochs.item((paddr - self.base) // PAGE_SIZE)

    def page_epochs(self, paddr: int, n: int) -> np.ndarray:
        """Read-only write stamps of the pages of ``[paddr, paddr + n)``,
        a page-aligned range."""
        off = paddr - self.base
        view = self._page_epochs[off // PAGE_SIZE:(off + n) // PAGE_SIZE]
        view.flags.writeable = False
        return view

    def read32(self, paddr: int) -> int:
        off = paddr - self.base
        return int(self._mem[off:off + 4].view(np.uint32)[0])

    def write32(self, paddr: int, value: int) -> None:
        off = paddr - self.base
        self._stamp(off, 4)
        self._mem[off:off + 4].view(np.uint32)[0] = value & 0xFFFF_FFFF

    def read_bytes(self, paddr: int, n: int) -> bytes:
        off = paddr - self.base
        return self._mem[off:off + n].tobytes()

    def write_bytes(self, paddr: int, data: bytes) -> None:
        off = paddr - self.base
        self._stamp(off, len(data))
        self._mem[off:off + len(data)] = np.frombuffer(data, dtype=np.uint8)


class _Region:
    __slots__ = ("base", "size", "device", "name")

    def __init__(self, base: int, size: int, device: MmioDevice, name: str) -> None:
        self.base = base
        self.size = size
        self.device = device
        self.name = name


class Bus:
    """Physical-address router: DRAM plus registered MMIO windows.

    ``device_pages`` holds the number of every 4 KB page that any window
    overlaps.  Windows need only be word-aligned, so such a page can also
    hold addresses no window covers; the fused access paths test the set
    first and send every page in it to the exact per-address check.
    """

    def __init__(self, memmap: MemoryMapParams) -> None:
        self.memmap = memmap
        self.dram = Dram(memmap.dram_base, memmap.dram_size)
        self._regions: list[_Region] = []
        self._starts: list[int] = []
        self.device_pages: set[int] = set()

    def map_device(self, base: int, size: int, device: MmioDevice, name: str) -> None:
        """Register an MMIO window; windows must not overlap DRAM or each other."""
        if not is_aligned(base, 4):
            raise MemoryError_(f"MMIO base {hexaddr(base)} not word aligned")
        end = base + size
        if self.dram.contains(base) or self.dram.contains(end - 1):
            raise MemoryError_(f"MMIO window {name} overlaps DRAM")
        for r in self._regions:
            if base < r.base + r.size and r.base < end:
                raise MemoryError_(f"MMIO window {name} overlaps {r.name}")
        idx = bisect_right(self._starts, base)
        self._starts.insert(idx, base)
        self._regions.insert(idx, _Region(base, size, device, name))
        self.device_pages.update(range(base // PAGE_SIZE,
                                       (end - 1) // PAGE_SIZE + 1))

    def window(self, paddr: int) -> _Region | None:
        """The MMIO window holding ``paddr``, or None."""
        idx = bisect_right(self._starts, paddr) - 1
        if idx >= 0:
            r = self._regions[idx]
            if r.base <= paddr < r.base + r.size:
                return r
        return None

    def is_device(self, paddr: int) -> bool:
        return self.window(paddr) is not None

    def read32(self, paddr: int) -> int:
        if self.dram.contains(paddr):
            return self.dram.read32(paddr)
        r = self.window(paddr)
        if r is None:
            raise MemoryError_(f"bus error: read {hexaddr(paddr)} hits nothing")
        return r.device.mmio_read(paddr - r.base) & 0xFFFF_FFFF

    def write32(self, paddr: int, value: int) -> None:
        if self.dram.contains(paddr):
            self.dram.write32(paddr, value)
            return
        r = self.window(paddr)
        if r is None:
            raise MemoryError_(f"bus error: write {hexaddr(paddr)} hits nothing")
        r.device.mmio_write(paddr - r.base, value & 0xFFFF_FFFF)


class FrameAllocator:
    """Bump allocator over a DRAM range, for page tables & kernel objects.

    Frames are handed out in multiples of ``align`` bytes and never freed
    individually (the kernel's boot-time and per-VM allocations are
    append-only in this reproduction, matching a static-partitioning
    microkernel).
    """

    def __init__(self, base: int, size: int) -> None:
        self.base = base
        self.end = base + size
        self._next = base

    def alloc(self, size: int, align: int = 4096) -> int:
        addr = (self._next + align - 1) & ~(align - 1)
        if addr + size > self.end:
            raise MemoryError_(
                f"frame allocator exhausted ({hexaddr(addr)}+{size:#x} > {hexaddr(self.end)})")
        self._next = addr + size
        return addr

    @property
    def used(self) -> int:
        return self._next - self.base
