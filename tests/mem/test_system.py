"""MemorySystem facade: trace accesses, bulk sampling, fill pressure."""

import numpy as np
import pytest

from repro.common.errors import MemoryError_
from repro.common.params import DEFAULT_PARAMS, MemoryMapParams
from repro.common.units import MB
from repro.mem.descriptors import AP, DomainType, dacr_set
from repro.mem.ptables import PageTable
from repro.mem.system import MemorySystem
from repro.obs.metrics import MetricsRegistry


@pytest.fixture
def sys_flat(memsys):
    """MMU on over a flat 16 MB client mapping."""
    pt = PageTable(memsys.bus, memsys.kernel_frames)
    for mb in range(16):
        pt.map_section(0x4000_0000 + (mb << 20), 0x0100_0000 + (mb << 20),
                       ap=AP.FULL, domain=0)
    memsys.mmu.set_ttbr(pt.l1_base)
    memsys.mmu.set_dacr(dacr_set(0, 0, DomainType.CLIENT))
    memsys.mmu.enabled = True
    return memsys


def test_touch_returns_latency(sys_flat):
    cold = sys_flat.touch(0x4000_0000, privileged=False)
    warm = sys_flat.touch(0x4000_0000, privileged=False)
    assert cold > warm >= 1


def test_read_write_functional(sys_flat):
    sys_flat.write32(0x4000_0100, 0x1234, privileged=False)
    value, _ = sys_flat.read32(0x4000_0100, privileged=False)
    assert value == 0x1234
    # Really landed at the mapped physical address.
    assert sys_flat.bus.read32(0x0100_0100) == 0x1234


def test_sample_block_charges_and_extrapolates(sys_flat):
    vaddrs = [0x4000_0000 + i * 64 for i in range(32)]
    total = sys_flat.sample_block(vaddrs, write_mask=[False] * 32,
                                  privileged=False, scale=64)
    # Extrapolated: at least 32 cold accesses' worth times the scale.
    assert total >= 32 * 64


def test_sample_block_empty(sys_flat):
    out = sys_flat.sample_block([], write_mask=[], privileged=False,
                                scale=64)
    assert out == 0


def test_fill_pressure_inert_below_occupancy_gate(sys_flat):
    """A small working set never triggers pressure wipes."""
    rng = np.random.default_rng(0)
    evictions_before = sys_flat.caches.l2.stats.evictions
    for _ in range(200):
        vaddrs = (0x4000_0000
                  + (rng.integers(0, 64 * 1024, size=64) & ~np.int64(31)))
        sys_flat.sample_block(vaddrs.tolist(), write_mask=[False] * 64,
                              privileged=False, scale=64)
    # 64 KB working set = 12% of L2: below the gate, no pressure evictions.
    assert sys_flat.caches.l2.stats.evictions == evictions_before


def test_fill_pressure_active_when_oversubscribed(sys_flat):
    """A >L2 working set triggers statistical eviction pressure."""
    rng = np.random.default_rng(1)
    for _ in range(400):
        vaddrs = (0x4000_0000
                  + (rng.integers(0, 12 << 20, size=64) & ~np.int64(31)))
        sys_flat.sample_block(vaddrs.tolist(), write_mask=[False] * 64,
                              privileged=False, scale=64)
    # 12 MB over 512 KB L2: wipes must have happened.
    assert sys_flat.caches.l2.stats.evictions > 1000


def test_frame_allocators_partition_dram(memsys):
    k = memsys.kernel_frames.alloc(4096)
    g = memsys.guest_frames.alloc(4096)
    assert k < memsys.guest_frames.base <= g


class _LoggedRegs:
    """A device that logs its register accesses and reads back values
    wider than a word."""

    def __init__(self):
        self.log = []

    def mmio_read(self, offset):
        self.log.append(("read", offset))
        return 0x1_2345_6700 + offset

    def mmio_write(self, offset, value):
        self.log.append(("write", offset, value))


def test_device_registers_on_a_partly_covered_page():
    """One 4 KB page holds the last DRAM words, a gap and an MMIO window
    over part of the rest.  ``read32``/``write32`` (MMU off) reach the
    device at the window offset, with the value masked to a word, for a
    bus round-trip; DRAM words go through the caches to DRAM; a gap word
    takes its cache access and then raises the bus error."""
    mm = MemoryMapParams(dram_size=64 * MB - 0x800)
    ms = MemorySystem(DEFAULT_PARAMS.with_(memmap=mm), MetricsRegistry())
    page = mm.dram_base + mm.dram_size - 0x800          # DRAM ends mid-page
    assert page % 4096 == 0
    dev = _LoggedRegs()
    ms.bus.map_device(page + 0xC00, 0x100, dev, "regs")
    t = DEFAULT_PARAMS.cpu
    assert ms.read32(page + 0xC04, privileged=True) == (0x2345_6704,
                                                         t.dram // 2)
    assert ms.write32(page + 0xCFC, 0x1_0000_0005, privileged=True) \
        == t.dram // 2
    assert dev.log == [("read", 0x4), ("write", 0xFC, 5)]
    assert ms.caches.l1d.stats.accesses == 0
    assert ms.write32(page + 0x7FC, 0xABCD, privileged=True) \
        == t.l1_hit + t.l2_hit + t.dram
    assert ms.read32(page + 0x7FC, privileged=True) == (0xABCD, t.l1_hit)
    for gap in (page + 0x800, page + 0xBFC, page + 0xD00, page + 0xFFC):
        misses = ms.caches.l1d.stats.misses
        with pytest.raises(MemoryError_, match="bus error: read"):
            ms.read32(gap, privileged=True)
        with pytest.raises(MemoryError_, match="bus error: write"):
            ms.write32(gap, 1, privileged=True)
        assert ms.caches.l1d.stats.misses == misses + 1
    assert len(dev.log) == 2
