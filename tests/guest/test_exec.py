"""GuestExecutor: bulk sampling, the one-word chunk and its closed-form spin."""

import math

import pytest

from repro.common.errors import SimulationError
from repro.common.params import DEFAULT_PARAMS
from repro.cpu.core import Cpu
from repro.guest.exec import GuestExecutor
from repro.mem.descriptors import AP, DomainType, dacr_set
from repro.mem.ptables import PageTable
from repro.mem.system import MemorySystem
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Simulator


def _mapped_executor(metrics: MetricsRegistry | None = None) -> GuestExecutor:
    """An executor on a fresh machine with 8 MB mapped at 0x4000_0000,
    reporting to ``metrics`` (a fresh registry by default)."""
    metrics = MetricsRegistry() if metrics is None else metrics
    sim = Simulator(metrics)
    mem = MemorySystem(DEFAULT_PARAMS, metrics)
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
    metrics = MetricsRegistry()
    sim, mem = Simulator(metrics), MemorySystem(DEFAULT_PARAMS, metrics)
    cpu = Cpu(sim, mem, DEFAULT_PARAMS)
    ex = GuestExecutor(cpu, addr_base=0x1000_0000, seed=5)
    addrs = ex._gen_addrs(100, ((0x100, 0x1000),))
    assert (addrs >= 0x1000_0100).all()


def test_deterministic_stream(ex):
    a = ex._gen_addrs(50, ((0x4000_0000, 0x10000),))
    metrics = MetricsRegistry()
    sim, mem = Simulator(metrics), MemorySystem(DEFAULT_PARAMS, metrics)
    cpu = Cpu(sim, mem, DEFAULT_PARAMS)
    ex2 = GuestExecutor(cpu, addr_base=0, seed=5, stream="t")
    b = ex2._gen_addrs(50, ((0x4000_0000, 0x10000),))
    assert (a == b).all()


def test_scalar_bulk_equals_size1_sample_block():
    """One-address ``bulk`` (``mem_accesses < bulk_sample``) leaves the
    clock, the cache/TLB stats and the RNG exactly as feeding the size-1
    arrays of ``_gen_addrs(1, ...)`` and ``rng.random(1)`` into
    ``sample_block`` does."""
    regions = ((0x4000_0000, 0x6000), (0x4010_0000, 0x2000))

    def state(e, metrics):
        mem = e.cpu.mem
        return (e.cpu.sim.now,
                {n: vars(s) for n, s in mem.caches.snapshot().items()},
                vars(mem.mmu.tlb.stats.snapshot()),
                metrics.total("sim.fastpath.batched_cycles"),
                e.rng.bit_generator.state)

    books = MetricsRegistry(), MetricsRegistry()
    scalar, twin = _mapped_executor(books[0]), _mapped_executor(books[1])
    cpu, mem = twin.cpu, twin.cpu.mem
    for _ in range(300):
        scalar.bulk(800, 40, regions, 0.5)
        cpu.instr(800)
        vaddrs = twin._gen_addrs(1, regions)
        writes = twin.rng.random(1) < 0.5
        cpu._charge(mem.sample_block(vaddrs, write_mask=writes,
                                     privileged=cpu.privileged, scale=40))
    assert state(scalar, books[0]) == state(twin, books[1])
    assert mem.mmu.tlb.stats.hits and mem.caches.l1d.stats.misses


# The idle chunk's shape: 6000 instructions around one word, scale 4.
INSTRS, SCALE, WORD = 6000, 4, 0x4000_0080


def _chunk_cycles(ex) -> int:
    return (ex.cpu.timing.instr_cycles(INSTRS)
            + ex.cpu.mem.caches._lat_l1 * SCALE)


def _state(ex, metrics):
    """Everything a chunk can change, plus the RNG, which it must not."""
    cpu, mem = ex.cpu, ex.cpu.mem
    l1 = mem.caches.l1d
    return (cpu.sim.now,
            {n: vars(s) for n, s in mem.caches.snapshot().items()},
            vars(mem.mmu.tlb.stats.snapshot()),
            metrics.total("sim.fastpath.batched_cycles"),
            [list(t) for t in l1._tags], set(l1._dirty),
            ex.rng.bit_generator.state)


def test_word_draws_nothing_and_dirties_its_line(ex):
    rng0 = ex.rng.bit_generator.state
    ex.word(INSTRS, SCALE, WORD)
    l1 = ex.cpu.mem.caches.l1d
    idx, tag = l1._index(ex.cpu.mem.mmu.probe(WORD).pfn << 12
                         | (WORD & 0xFFF))
    assert l1._tags[idx][0] == tag and tag in l1._dirty
    assert ex.rng.bit_generator.state == rng0


def _refill_clean(ex):
    """Drop the word's line and read it back: MRU in its set, not dirty."""
    mem = ex.cpu.mem
    mem.caches.l1d.invalidate_line(mem.mmu.probe(WORD).pfn << 12
                                   | (WORD & 0xFFF))
    ex.cpu.load(WORD)


def test_spin_equals_word_chunk_for_chunk():
    """A spin of ``k`` chunks leaves exactly the state of ``k`` calls of
    ``word``: the clock, every stat, the L1D tags and dirty bits and the
    batched cycles.  The cold first spin misses the probe and hands one
    chunk back.  Between spins a bulk block moves other lines, or the
    word's line comes back clean, so the spin must set its dirty bit.  No
    spin draws."""
    books = MetricsRegistry(), MetricsRegistry()
    spun, ref = _mapped_executor(books[0]), _mapped_executor(books[1])
    chunk = _chunk_cycles(spun)
    spins = []
    for i, gap in enumerate((5 * chunk, 0, 37 * chunk + 11, chunk - 1,
                             chunk, 3, 9 * chunk)):
        n = spun.spin(INSTRS, SCALE, WORD, spun.cpu.sim.now + gap)
        for _ in range(n):
            ref.word(INSTRS, SCALE, WORD)
        assert _state(spun, books[0]) == _state(ref, books[1])
        spins.append(n)
        for e in (spun, ref):
            if i % 2:
                _refill_clean(e)
            else:
                e.bulk(800, 40, ((0x4020_0000, 0x4000),), 0.5)
    assert spins == [1, 1, 38, 1, 1, 1, 9]
    assert spun.cpu.mem.mmu.tlb.stats.hits > 40


def _warm():
    ex = _mapped_executor()
    ex.word(INSTRS, SCALE, WORD)
    return ex


@pytest.mark.parametrize("chunks, extra, k", [
    (0, 0, 1), (0, -5, 1), (0, 1, 1), (10, 0, 10), (10, 1, 11)],
    ids=["stop_now", "stop_past", "one_cycle", "exact_multiple",
         "one_cycle_more"])
def test_spin_k_at_its_boundaries(chunks, extra, k):
    """``k = max(1, ceil((stop - now) / cycles))``: a stop an exact
    multiple of the chunk's cycles away ends on the chunk that lands on
    it, one cycle more takes one more chunk, and a stop at or before now
    still runs one chunk."""
    ex = _warm()
    chunk = _chunk_cycles(ex)
    t0 = ex.cpu.sim.now
    assert ex.spin(INSTRS, SCALE, WORD, t0 + chunks * chunk + extra) == k
    assert ex.cpu.sim.now == t0 + k * chunk


def test_spin_stops_where_a_poll_could_act():
    """The spin ends after the chunk that reaches ``until`` or the next
    event, cancelled or not, and after one chunk with an IRQ pending."""
    ex = _warm()
    cpu, sim = ex.cpu, ex.cpu.sim
    chunk = _chunk_cycles(ex)

    def spin(until):
        return ex.spin(INSTRS, SCALE, WORD, until)

    assert spin(sim.now + 10 * chunk - 1) == 10
    sim.schedule(3 * chunk, lambda: None)
    assert spin(sim.now + 10 * chunk) == 3
    sim.dispatch_due()
    sim.schedule(4 * chunk - 1, lambda: None).cancel()
    assert spin(sim.now + 10 * chunk) == 4
    sim.dispatch_due()
    cpu.irq_line, cpu.irq_masked = True, False
    assert cpu.irq_pending() and spin(sim.now + 10 * chunk) == 1
    assert spin(math.inf) == 1             # the IRQ ends it, not the stop


@pytest.mark.parametrize("cold", ["tlb_miss", "line_not_mru",
                                  "line_evicted"])
def test_probe_miss_hands_back_one_chunk(cold, monkeypatch):
    """Whatever the probe misses on, the spin runs exactly one chunk, and
    runs it through ``sample_block``, however far the stop is."""
    books = MetricsRegistry(), MetricsRegistry()
    spun, ref = _mapped_executor(books[0]), _mapped_executor(books[1])
    line = spun.cpu.params.l1d.line
    l1 = spun.cpu.mem.caches.l1d
    for e in (spun, ref):
        if cold != "tlb_miss":
            e.word(INSTRS, SCALE, WORD)
        if cold == "line_not_mru":     # same L1D set, so the word's line
            e.word(INSTRS, SCALE, WORD + l1._sets * line)   # is second
        elif cold == "line_evicted":
            e.cpu.mem.caches.l1d.invalidate_line(
                e.cpu.mem.mmu.probe(WORD).pfn << 12 | (WORD & 0xFFF))
    calls = []
    sample_block = MemorySystem.sample_block

    def spy(self, *args, **kw):
        calls.append(args[0])
        return sample_block(self, *args, **kw)

    monkeypatch.setattr(MemorySystem, "sample_block", spy)
    assert spun.spin(INSTRS, SCALE, WORD,
                     spun.cpu.sim.now + 50 * _chunk_cycles(spun)) == 1
    assert calls == [[WORD]]
    ref.word(INSTRS, SCALE, WORD)
    assert _state(spun, books[0]) == _state(ref, books[1])


def test_spin_without_a_deadline_or_an_event_raises(ex):
    """``until=inf`` and an empty event queue: nothing could end the
    spin, so it raises instead of hanging."""
    ex.word(INSTRS, SCALE, WORD)
    t0 = ex.cpu.sim.now
    assert ex.cpu.sim.next_due() == math.inf
    with pytest.raises(SimulationError, match="never end"):
        ex.spin(INSTRS, SCALE, WORD, math.inf)
    assert ex.cpu.sim.now == t0
