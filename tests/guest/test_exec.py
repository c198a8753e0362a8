"""GuestExecutor: bulk sampling behaviour."""

import numpy as np
import pytest

from repro.common.params import DEFAULT_PARAMS
from repro.cpu.core import Cpu
from repro.guest.exec import GuestExecutor
from repro.mem.descriptors import AP, DomainType, dacr_set
from repro.mem.ptables import PageTable
from repro.mem.system import MemorySystem
from repro.sim.engine import Simulator


def _mapped_executor() -> GuestExecutor:
    """An executor on a fresh machine with 8 MB mapped at 0x4000_0000."""
    sim = Simulator()
    mem = MemorySystem(DEFAULT_PARAMS)
    cpu = Cpu(sim, mem, DEFAULT_PARAMS)
    pt = PageTable(mem.bus, mem.kernel_frames)
    for mb in range(8):
        pt.map_section(0x4000_0000 + (mb << 20), 0x0100_0000 + (mb << 20),
                       ap=AP.FULL, domain=0)
    cpu.sysregs.write("TTBR0", pt.l1_base, privileged=True)
    cpu.sysregs.write("DACR", dacr_set(0, 0, DomainType.CLIENT), privileged=True)
    cpu.sysregs.write("SCTLR", 1, privileged=True)
    return GuestExecutor(cpu, addr_base=0, seed=5, stream="t")


@pytest.fixture
def ex():
    return _mapped_executor()


def test_bulk_charges_at_least_issue_cost(ex):
    t0 = ex.cpu.sim.now
    ex.bulk(10_000, 0, ())
    assert ex.cpu.sim.now - t0 == 7500     # CPI 0.75, no memory


def test_bulk_memory_adds_latency(ex):
    t0 = ex.cpu.sim.now
    ex.bulk(10_000, 5_000, ((0x4000_0000, 64 * 1024),))
    assert ex.cpu.sim.now - t0 > 7500


def test_bulk_pollutes_the_caches(ex):
    before = ex.cpu.mem.caches.l1d.resident_lines
    ex.bulk(100_000, 50_000, ((0x4000_0000, 128 * 1024),))
    assert ex.cpu.mem.caches.l1d.resident_lines > before


def test_addresses_confined_to_regions(ex):
    addrs = ex._gen_addrs(500, ((0x4000_0000, 0x10000),
                                (0x4010_0000, 0x8000)))
    in_a = (addrs >= 0x4000_0000) & (addrs < 0x4001_0000)
    in_b = (addrs >= 0x4010_0000) & (addrs < 0x4010_8000)
    assert (in_a | in_b).all()
    assert in_a.any() and in_b.any()       # both regions get traffic


def test_region_weighting_by_size(ex):
    addrs = ex._gen_addrs(2000, ((0x4000_0000, 0x40000),    # 4x bigger
                                 (0x4010_0000, 0x10000)))
    in_a = ((addrs >= 0x4000_0000) & (addrs < 0x4004_0000)).sum()
    in_b = 2000 - in_a
    assert in_a > in_b * 2


def test_addr_base_offsets_everything():
    sim = Simulator()
    mem = MemorySystem(DEFAULT_PARAMS)
    cpu = Cpu(sim, mem, DEFAULT_PARAMS)
    ex = GuestExecutor(cpu, addr_base=0x1000_0000, seed=5)
    addrs = ex._gen_addrs(100, ((0x100, 0x1000),))
    assert (addrs >= 0x1000_0100).all()


def test_deterministic_stream(ex):
    a = ex._gen_addrs(50, ((0x4000_0000, 0x10000),))
    sim = Simulator()
    mem = MemorySystem(DEFAULT_PARAMS)
    cpu = Cpu(sim, mem, DEFAULT_PARAMS)
    ex2 = GuestExecutor(cpu, addr_base=0, seed=5, stream="t")
    b = ex2._gen_addrs(50, ((0x4000_0000, 0x10000),))
    assert (a == b).all()



def _executor():
    sim = Simulator()
    mem = MemorySystem(DEFAULT_PARAMS)
    cpu = Cpu(sim, mem, DEFAULT_PARAMS)
    return GuestExecutor(cpu, addr_base=0x1000_0000, seed=11, stream="pin")


@pytest.mark.parametrize("regions", [
    ((0x100, 0x1000),),
    ((0x4000_0000, 0x3000), (0x4010_0000, 0x1000), (0x4020_0040, 0x8000)),
])
def test_scalar_draw_pins_the_size1_stream(regions):
    """``_gen_addr`` is ``_gen_addrs(1, ...)[0]`` and consumes the same
    stream: if a NumPy release ever serves scalar and size-1 draws from
    different streams, this fails by name instead of as a baseline diff."""
    a, b = _executor(), _executor()
    for _ in range(1500):
        assert a._gen_addr(regions) == int(b._gen_addrs(1, regions)[0])
        assert a.rng.bit_generator.state == b.rng.bit_generator.state


@pytest.mark.parametrize("word, sequential", [(0x8000_0000, True),
                                              (1, False)],
                         ids=["sequential", "word_aligned"])
def test_range3_draw_redraws_a_zero_word(word, sequential):
    """``integers(0, 3)`` redraws the 32-bit word while the low half of
    ``word * 3`` is 0, which only ``word == 0`` gives (probability
    2**-32), so the pins above never reach it: the draw must use the
    second word."""
    ex = _executor()
    words = iter((0, word))
    ex._next_uint32 = lambda bits: next(words)
    ex._next_double = lambda bits: 0.5
    regions = ((0x100, 0x1000),)
    bases, spans, _ = ex._regions(regions)[1]
    offset = int(0.5 * spans[0])
    line = ex._line
    assert offset % line and offset % 4 == 0    # the two paths differ
    addr = ex._gen_addr(regions)
    assert next(words, None) is None            # both words were drawn
    assert addr == bases[0] + (offset // line * line if sequential
                               else offset)


def test_scalar_bulk_equals_size1_sample_block():
    """One-address ``bulk`` (``mem_accesses < bulk_sample``) leaves the
    clock, the cache/TLB stats and the RNG exactly as feeding the size-1
    arrays of ``_gen_addrs(1, ...)`` and ``rng.random(1)`` into
    ``sample_block`` does."""
    regions = ((0x4000_0000, 0x6000), (0x4010_0000, 0x2000))

    def state(e):
        mem = e.cpu.mem
        return (e.cpu.sim.now, dict(e.cpu.cycle_ledger),
                {n: vars(s) for n, s in mem.caches.snapshot().items()},
                vars(mem.mmu.tlb.stats.snapshot()), mem.batched_cycles,
                e.rng.bit_generator.state)

    scalar, twin = _mapped_executor(), _mapped_executor()
    cpu, mem = twin.cpu, twin.cpu.mem
    for _ in range(300):
        scalar.bulk(800, 40, regions, 0.5)
        cpu.instr(800)
        vaddrs = twin._gen_addrs(1, regions)
        writes = twin.rng.random(1) < 0.5
        cpu._charge(mem.sample_block(vaddrs, write_mask=writes,
                                     privileged=cpu.privileged, scale=40))
    assert state(scalar) == state(twin)
    assert mem.mmu.tlb.stats.hits and mem.caches.l1d.stats.misses


def test_spin_equals_bulk_chunk_for_chunk():
    """``spin`` leaves exactly the state of as many ``bulk`` calls: the
    clock, the ledger, every stat, the L1D tags and dirty bits, the
    batched cycles and the RNG.  A small region makes most chunks hit
    the MRU TLB entry and L1D lines; writes exercise the dirty bit, and
    the cold start exercises the hand-back on a miss."""
    # Three pages; the third one's line shares an L1D set with the
    # first one's, so some chunks hit a line that is not MRU.
    regions = ((0x4000_0000, 256), (0x4000_2100, 128), (0x4000_4000, 64))
    spun, ref = _mapped_executor(), _mapped_executor()

    def state(e):
        cpu, mem = e.cpu, e.cpu.mem
        l1 = mem.caches.l1d
        return (cpu.sim.now, dict(cpu.cycle_ledger),
                {n: vars(s) for n, s in mem.caches.snapshot().items()},
                vars(mem.mmu.tlb.stats.snapshot()), mem.batched_cycles,
                [list(t) for t in l1._tags], [set(d) for d in l1._dirty],
                e.rng.bit_generator.state)

    calls = chunks = 0
    while chunks < 400:
        n = spun.spin(6000, 4, regions, 0.5, spun.cpu.sim.now + 50 * 6000)
        for _ in range(n):
            ref.bulk(6000, 4, regions, 0.5)
        assert state(spun) == state(ref)
        calls += 1
        chunks += n
    assert 1 < calls < chunks / 2         # most chunks ran fused
    assert any(spun.cpu.mem.caches.l1d._dirty)


def test_spin_stops_where_a_poll_could_act():
    """The spin ends after the chunk that reaches ``until`` or the next
    event, cancelled or not, and after one chunk with an IRQ pending."""
    ex = _mapped_executor()
    cpu, sim = ex.cpu, ex.cpu.sim
    regions = ((0x4000_0000, 256),)
    for _ in range(20):                    # warm the TLB and L1D lines
        ex.bulk(6000, 4, regions, 0.0)
    chunk = 6000 * 3 // 4 + 4 * cpu.mem.caches._lat_l1

    def spin(until):
        return ex.spin(6000, 4, regions, 0.0, until)

    assert spin(sim.now + 10 * chunk - 1) == 10
    sim.schedule(3 * chunk, lambda: None)
    assert spin(sim.now + 10 * chunk) == 3
    sim.dispatch_due()
    sim.schedule(4 * chunk - 1, lambda: None).cancel()
    assert spin(sim.now + 10 * chunk) == 4
    sim.dispatch_due()
    cpu.irq_line, cpu.irq_masked = True, False
    assert cpu.irq_pending() and spin(sim.now + 10 * chunk) == 1
