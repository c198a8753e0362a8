"""Physical memory, bus routing, frame allocation."""

import pytest

from repro.common.errors import MemoryError_
from repro.common.params import MemoryMapParams
from repro.mem.phys import Bus, Dram, FrameAllocator


class FakeDevice:
    def __init__(self):
        self.regs = {}

    def mmio_read(self, offset):
        return self.regs.get(offset, 0)

    def mmio_write(self, offset, value):
        self.regs[offset] = value


@pytest.fixture
def bus():
    return Bus(MemoryMapParams())


def test_dram_read_write32(bus):
    base = bus.dram.base
    bus.write32(base + 0x100, 0xDEADBEEF)
    assert bus.read32(base + 0x100) == 0xDEADBEEF


def test_dram_bytes_roundtrip(bus):
    base = bus.dram.base
    bus.dram.write_bytes(base + 64, b"hello world")
    assert bus.dram.read_bytes(base + 64, 11) == b"hello world"


def test_dram_word_endianness_little(bus):
    base = bus.dram.base
    bus.write32(base, 0x0403_0201)
    assert bus.dram.read_bytes(base, 4) == bytes([1, 2, 3, 4])


def test_device_routing(bus):
    dev = FakeDevice()
    bus.map_device(0xF000_0000, 0x1000, dev, "dev")
    bus.write32(0xF000_0010, 42)
    assert dev.regs[0x10] == 42
    assert bus.read32(0xF000_0010) == 42
    assert bus.is_device(0xF000_0FFC)
    assert not bus.is_device(bus.dram.base)


def test_unmapped_access_is_bus_error(bus):
    with pytest.raises(MemoryError_):
        bus.read32(0xEE00_0000)
    with pytest.raises(MemoryError_):
        bus.write32(0xEE00_0000, 1)


def test_overlapping_windows_rejected(bus):
    dev = FakeDevice()
    bus.map_device(0xF000_0000, 0x1000, dev, "a")
    with pytest.raises(MemoryError_):
        bus.map_device(0xF000_0800, 0x1000, FakeDevice(), "b")


def test_window_overlapping_dram_rejected(bus):
    with pytest.raises(MemoryError_):
        bus.map_device(bus.dram.base + 0x1000, 0x1000, FakeDevice(), "bad")


def test_two_disjoint_windows(bus):
    d1, d2 = FakeDevice(), FakeDevice()
    bus.map_device(0xF000_0000, 0x1000, d1, "a")
    bus.map_device(0xF000_1000, 0x1000, d2, "b")
    bus.write32(0xF000_0000, 1)
    bus.write32(0xF000_1000, 2)
    assert d1.regs[0] == 1 and d2.regs[0] == 2


@pytest.mark.parametrize("page, hit", [
    (0xF0000, True),      # the page the first window starts
    (0xF0001, False),     # between the windows
    (0xF0002, True),      # a window starts mid-page
    (0xF0003, True),      # inside a window
    (0xF0005, False),     # from a window's end, on a page boundary
    (0xEFFFF, False),     # up to a window's start, on a page boundary
    (0xF0004, True),      # the last page a window spans
], ids=["first_page", "between", "mid_page_start", "inside", "from_end",
        "to_start", "spanning"])
def test_overlaps_device(bus, page, hit):
    """A page overlaps a device when its number is in
    ``Bus.device_pages``."""
    bus.map_device(0xF000_0000, 0x40, FakeDevice(), "a")
    bus.map_device(0xF000_2200, 0x2E00, FakeDevice(), "b")
    assert (page in bus.device_pages) is hit
    # The set is exactly the pages some device address lies on.
    assert bus.device_pages == {0xF0000, 0xF0002, 0xF0003, 0xF0004}
    # A page in the set can hold addresses no window covers.
    assert not bus.is_device(0xF000_2100) and bus.is_device(0xF000_2200)


def test_frame_allocator_alignment():
    fa = FrameAllocator(0x10_0000, 0x10_0000)
    a = fa.alloc(100, align=4096)
    b = fa.alloc(100, align=4096)
    assert a % 4096 == 0 and b % 4096 == 0
    assert b >= a + 4096
    assert fa.used >= 4096 + 100


def test_frame_allocator_exhaustion():
    fa = FrameAllocator(0, 8192)
    fa.alloc(4096)
    fa.alloc(4096)
    with pytest.raises(MemoryError_):
        fa.alloc(1)


def test_dram_contains():
    d = Dram(0x1000, 0x1000)
    assert d.contains(0x1000) and d.contains(0x1FFF)
    assert not d.contains(0xFFF) and not d.contains(0x2000)
