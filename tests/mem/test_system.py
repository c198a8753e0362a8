"""MemorySystem facade: trace accesses, bulk sampling, fill pressure."""

import numpy as np
import pytest

from repro.common.params import DEFAULT_PARAMS
from repro.mem.descriptors import AP, DomainType, dacr_set
from repro.mem.ptables import PageTable
from repro.mem.system import MemorySystem


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
