"""Page-table builder: descriptors really land in simulated DRAM."""

import pytest

from repro.common.errors import DeviceError
from repro.mem.descriptors import (
    AP,
    L1Type,
    decode_l1,
    decode_l2,
    l1_index,
)
from repro.mem.ptables import PageTable


@pytest.fixture
def pt(memsys):
    return PageTable(memsys.bus, memsys.kernel_frames, name="t")


def test_l1_base_alignment(pt):
    assert pt.l1_base % (16 * 1024) == 0


def test_fresh_table_is_all_faults(pt, memsys):
    for idx in (0, 1, 0x800, 0xFFF):
        assert decode_l1(memsys.bus.read32(pt.l1_base + idx * 4)).kind == L1Type.FAULT


def test_map_section_writes_descriptor(pt, memsys):
    pt.map_section(0x4010_0000, 0x0010_0000, ap=AP.FULL, domain=2)
    word = memsys.bus.read32(pt.l1_base + l1_index(0x4010_0000) * 4)
    e = decode_l1(word)
    assert e.kind == L1Type.SECTION and e.base == 0x0010_0000 and e.domain == 2


def test_map_page_builds_l2(pt, memsys):
    pt.map_page(0x8000_3000, 0x0020_0000, ap=AP.FULL, domain=1)
    l1e = decode_l1(memsys.bus.read32(pt.l1_entry_addr(0x8000_3000)))
    assert l1e.kind == L1Type.PAGE_TABLE
    l2addr = pt.l2_entry_addr(0x8000_3000)
    assert l2addr is not None
    l2e = decode_l2(memsys.bus.read32(l2addr))
    assert l2e.valid and l2e.base == 0x0020_0000


def test_pages_share_l2_table_within_mb(pt):
    pt.map_page(0x8000_0000, 0x0020_0000, ap=AP.FULL, domain=1)
    written = pt.words_written
    pt.map_page(0x8000_1000, 0x0020_1000, ap=AP.FULL, domain=1)
    # Second page only writes its own L2 word (no new L1/L2 table).
    assert pt.words_written == written + 1


def test_unmap_page(pt, memsys):
    pt.map_page(0x8000_0000, 0x0020_0000, ap=AP.FULL, domain=1)
    assert pt.unmap_page(0x8000_0000)
    assert not decode_l2(memsys.bus.read32(pt.l2_entry_addr(0x8000_0000))).valid
    assert not pt.unmap_page(0x8000_0000)        # second time: nothing there
    assert not pt.unmap_page(0x9000_0000)        # never mapped


def test_remap_page_overwrites(pt, memsys):
    pt.map_page(0x8000_0000, 0x0020_0000, ap=AP.FULL, domain=1)
    pt.map_page(0x8000_0000, 0x0030_0000, ap=AP.PRIV_ONLY, domain=1)
    e = decode_l2(memsys.bus.read32(pt.l2_entry_addr(0x8000_0000)))
    assert e.base == 0x0030_0000 and e.ap == AP.PRIV_ONLY


def test_page_over_section_rejected(pt):
    pt.map_section(0x4010_0000, 0x0010_0000, ap=AP.FULL, domain=0)
    with pytest.raises(DeviceError):
        pt.map_page(0x4010_0000, 0x0020_0000, ap=AP.FULL, domain=0)


def test_misaligned_rejected(pt):
    with pytest.raises(DeviceError):
        pt.map_section(0x4010_0400, 0, ap=AP.FULL, domain=0)
    with pytest.raises(DeviceError):
        pt.map_page(0x8000_0404, 0, ap=AP.FULL, domain=0)


def test_two_tables_are_independent(memsys):
    a = PageTable(memsys.bus, memsys.kernel_frames, name="a")
    b = PageTable(memsys.bus, memsys.kernel_frames, name="b")
    a.map_page(0x8000_0000, 0x0020_0000, ap=AP.FULL, domain=1)
    assert b.l2_entry_addr(0x8000_0000) is None
