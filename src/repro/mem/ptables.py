"""Page-table construction API over simulated DRAM.

The kernel's memory manager uses this to build/patch per-VM address spaces;
descriptors are really encoded into DRAM words, so the MMU walker decodes
exactly what was written (tests cross-check encode/decode through memory).
Timing is charged by the *caller* (kernel paths touch the descriptor
addresses through the cache model); this module is purely functional.
"""

from __future__ import annotations

from ..common.errors import DeviceError
from ..common.units import is_aligned
from .descriptors import (
    AP,
    L1_FAULT,
    L1_TABLE_BYTES,
    L2_FAULT,
    L2_TABLE_BYTES,
    L1Type,
    PAGE_SIZE,
    SECTION_SIZE,
    decode_l1,
    encode_l1_page_table,
    encode_l1_section,
    encode_l2_small_page,
    l1_index,
    l2_index,
)
from .phys import Bus, FrameAllocator


class PageTable:
    """One ARMv7 short-descriptor address space rooted at a 16 KB L1 table."""

    def __init__(self, bus: Bus, frames: FrameAllocator, name: str = "pt") -> None:
        self.bus = bus
        self.frames = frames
        self.name = name
        self.l1_base = frames.alloc(L1_TABLE_BYTES, align=16 * 1024)
        # Block-fill the fresh table with fault descriptors: one functional
        # write instead of 4096 (tables always live in DRAM; this module
        # charges no timing, so only the resulting bytes matter).
        bus.dram.write_bytes(
            self.l1_base, L1_FAULT.to_bytes(4, "little") * (L1_TABLE_BYTES // 4))
        #: L2 table base per L1 index (host-side cache of what's in memory).
        self._l2_tables: dict[int, int] = {}
        #: Descriptor words written since creation (kernel charges timing per word).
        self.words_written = 0

    # -- mapping ------------------------------------------------------------

    def map_section(self, va: int, pa: int, *, ap: AP, domain: int,
                    ng: bool = True) -> None:
        """Install a 1 MB section mapping."""
        if not is_aligned(va, SECTION_SIZE):
            raise DeviceError(f"section VA {va:#x} not 1MB aligned")
        self._write_l1(l1_index(va), encode_l1_section(pa, ap=ap, domain=domain, ng=ng))

    def map_page(self, va: int, pa: int, *, ap: AP, domain: int,
                 ng: bool = True) -> None:
        """Install a 4 KB small-page mapping (allocating an L2 table if needed)."""
        if not is_aligned(va, PAGE_SIZE):
            raise DeviceError(f"page VA {va:#x} not 4KB aligned")
        idx1 = l1_index(va)
        l2_base = self._l2_tables.get(idx1)
        if l2_base is None:
            current = decode_l1(self.bus.read32(self.l1_base + idx1 * 4))
            if current.kind == L1Type.SECTION:
                raise DeviceError(
                    f"{self.name}: VA {va:#x} already covered by a section")
            l2_base = self.frames.alloc(L2_TABLE_BYTES, align=1024)
            self.bus.dram.write_bytes(
                l2_base, L2_FAULT.to_bytes(4, "little") * (L2_TABLE_BYTES // 4))
            self._l2_tables[idx1] = l2_base
            self._write_l1(idx1, encode_l1_page_table(l2_base, domain=domain))
        self._write_l2(l2_base, l2_index(va), encode_l2_small_page(pa, ap=ap, ng=ng))

    def unmap_page(self, va: int) -> bool:
        """Remove a 4 KB mapping; returns True when something was mapped."""
        idx1 = l1_index(va)
        l2_base = self._l2_tables.get(idx1)
        if l2_base is None:
            return False
        addr = l2_base + l2_index(va) * 4
        had = self.bus.read32(addr) != L2_FAULT
        self.bus.write32(addr, L2_FAULT)
        self.words_written += 1
        return had

    # -- addresses the kernel touches for timing --------------------------

    def l1_entry_addr(self, va: int) -> int:
        return self.l1_base + l1_index(va) * 4

    def l2_entry_addr(self, va: int) -> int | None:
        l2_base = self._l2_tables.get(l1_index(va))
        return None if l2_base is None else l2_base + l2_index(va) * 4

    # -- internals ---------------------------------------------------------

    def _write_l1(self, idx: int, word: int) -> None:
        self.bus.write32(self.l1_base + idx * 4, word)
        self.words_written += 1

    def _write_l2(self, l2_base: int, idx: int, word: int) -> None:
        self.bus.write32(l2_base + idx * 4, word)
        self.words_written += 1
