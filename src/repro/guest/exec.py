"""Guest execution helper: timed code blocks and sampled bulk memory traffic.

Workload tasks execute millions of instructions; tracing every access is
prohibitive, so :meth:`GuestExecutor.bulk` drives a 1/``bulk_sample``
subsample of the task's memory stream through the *real* MMU/TLB/cache
models — polluting them exactly like a real working set — and extrapolates
the stream's total memory latency from the sampled mean.
:meth:`GuestExecutor.spin` runs a one-address chunk (the uC/OS-II idle
task's) back to back with the same draws and charges, in fewer host
operations (docs/PERFORMANCE.md §2).
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from ..common.rng import make_rng
from ..cpu.core import Cpu


class GuestExecutor:
    """Bound to one guest (its address base and RNG stream)."""

    def __init__(self, cpu: Cpu, *, addr_base: int = 0, seed: int | None = None,
                 stream: str = "guest") -> None:
        self.cpu = cpu
        self.addr_base = addr_base
        self.rng = make_rng(seed, stream=stream)
        # The bit generator's own draws, through NumPy's documented ctypes
        # interface (typed function pointers and a pointer to the state
        # that ``self.rng`` keeps alive): a scalar ``rng.random()`` is one
        # ``next_double`` and ``rng.integers(0, 3)`` one Lemire-reduced
        # ``next_uint32``, from the same state, at a fraction of the cost.
        bits = self.rng.bit_generator.ctypes
        self._bits = bits.state
        self._next_double = bits.next_double
        self._next_uint32 = bits.next_uint32
        self.sample = cpu.params.bulk_sample
        self._line = cpu.params.l1d.line
        # Per-regions-tuple precomputed region weights, as arrays for
        # _gen_addrs and as lists for _gen_addr: region tuples are tiny
        # and repeat for every chunk of the same task, and rebuilding
        # them cost more than the draws they weight.
        self._region_cache: dict[tuple, tuple] = {}

    def code(self, va: int, n_instr: int) -> None:
        """Timed straight-line code at a guest address."""
        self.cpu.code(self.addr_base + va, n_instr)

    def bulk(self, instrs: int, mem_accesses: int,
             regions: tuple[tuple[int, int], ...],
             write_frac: float = 0.3) -> None:
        """One workload chunk: issue cost + sampled memory stream.

        The sampled addresses mix sequential runs (2/3) with uniform
        accesses (1/3) across the regions, approximating the locality of
        DSP inner loops over their buffers.
        """
        cpu = self.cpu
        cpu.instr(instrs)
        if mem_accesses <= 0 or not regions:
            return
        n_sample = max(1, mem_accesses // self.sample)
        if n_sample == 1:
            # Scalar draws take the same values from the same stream as
            # size-1 arrays, without building any array.
            vaddrs = [self._gen_addr(regions)]
            writes = [self._next_double(self._bits) < write_frac]
        else:
            vaddrs = self._gen_addrs(n_sample, regions)
            writes = self.rng.random(n_sample) < write_frac
        extra = cpu.mem.sample_block(
            vaddrs, write_mask=writes, privileged=cpu.privileged,
            scale=max(1, mem_accesses // n_sample))
        # sample_block returns extrapolated latency for the whole stream.
        cpu._charge(extra)

    def spin(self, instrs: int, mem_accesses: int,
             regions: tuple[tuple[int, int], ...], write_frac: float,
             until: int | float) -> int:
        """Run the one-address chunk ``bulk(instrs, mem_accesses, regions,
        write_frac)`` back to back, without the runner's poll in between;
        returns how many chunks ran (at least one).

        A chunk whose address hits the MRU entry of its TLB set, with the
        access permitted, and the MRU line of its L1D set changes exactly
        what ``bulk`` would: one TLB and one L1D hit, the dirty bit on a
        write, ``instr_cycles(instrs) + lat_l1 * scale`` cycles and
        ``lat_l1 * scale`` batched cycles, flushed once on the way out.
        Fill pressure, skipped here, is a no-op on such a chunk: with no
        L2 or TLB miss it adds 0 to both accumulators, and both are below
        their thresholds after every ``sample_block`` (a drop resets one
        to ``-dropped * (scale - 1) <= 0``), so no drop can fire.

        The loop ends after the chunk that reaches ``until`` or
        ``Simulator.next_due()``, so the caller's poll after it is the
        first that could fire anything; after one chunk when an IRQ is
        pending, since that poll returns; and after a chunk whose probe
        misses, which is finished through ``sample_block``.  The loop
        touches no device, so no event or IRQ can arise inside it.
        """
        cpu = self.cpu
        mem = cpu.mem
        mmu = mem.mmu
        if not (mem.fastpath and mmu.enabled and regions
                and 0 < mem_accesses < 2 * self.sample):
            self.bulk(instrs, mem_accesses, regions, write_frac)
            return 1
        scale = mem_accesses             # one sampled address per chunk
        clock = cpu.sim.clock
        stop = clock.now if cpu.irq_pending() else min(until, cpu.sim.next_due())
        privileged = cpu.privileged
        tlb = mmu.tlb
        tlb_sets = tlb._sets
        tlb_nsets = tlb._nsets
        asid = mmu.asid
        ar = mmu.allow_table(privileged=privileged, write=False)
        aw = mmu.allow_table(privileged=privileged, write=True)
        l1 = mem.caches.l1d
        l1_tags = l1._tags
        l1_dirty = l1._dirty
        l1_nsets = l1._sets
        l1_shift = l1._offset_bits
        lat = mem.caches._lat_l1 * scale
        cycles = cpu.timing.instr_cycles(instrs) + lat
        gen_addr = self._gen_addr
        next_double = self._next_double
        bits = self._bits
        now = clock.now
        hits = 0
        try:
            while True:
                va = gen_addr(regions)
                w = next_double(bits) < write_frac
                vpn = va >> 12
                entries = tlb_sets[vpn % tlb_nsets]
                if not entries:
                    break
                e = entries[0]
                if not (e.vpn == vpn and (e.global_ or e.asid == asid)
                        and (aw if w else ar)[e.perm]):
                    break
                tag = (e.pfn << 12 | (va & 0xFFF)) >> l1_shift
                idx = tag % l1_nsets
                s1 = l1_tags[idx]
                if not (s1 and s1[0] == tag):
                    break
                if w:
                    l1_dirty[idx].add(tag)
                hits += 1
                now += cycles
                if now >= stop:
                    return hits
        finally:
            if hits:
                cpu._charge(hits * cycles)
                mem.credit_mru_hits(hits, hits * lat)
        # The probe missed: finish this chunk as bulk would.
        cpu.instr(instrs)
        cpu._charge(mem.sample_block([va], write_mask=[w],
                                     privileged=privileged, scale=scale))
        return hits + 1

    def _regions(self, regions: tuple[tuple[int, int], ...]) -> tuple:
        cached = self._region_cache.get(regions)
        if cached is None:
            bases = np.array([self.addr_base + b for b, _ in regions],
                             dtype=np.int64)
            spans = np.array([s for _, s in regions], dtype=np.int64)
            cdf = (spans / spans.sum()).cumsum()
            cdf /= cdf[-1]
            # An offset spans the region minus one line.
            spans -= self._line
            cached = ((bases, spans, cdf),
                      (bases.tolist(), spans.tolist(), cdf.tolist()))
            self._region_cache[regions] = cached
        return cached

    def _gen_addrs(self, n: int, regions: tuple[tuple[int, int], ...]) -> np.ndarray:
        rng = self.rng
        # Pick a region per sample, weighted by size.  The weighted pick
        # inlines numpy's own replace=True implementation of
        # ``rng.choice(k, size=n, p=weights)`` — one uniform draw searched
        # against the weight CDF — so it consumes the identical random
        # stream while the CDF is computed once per regions tuple.
        bases, spans, cdf = self._regions(regions)[0]
        region_idx = cdf.searchsorted(rng.random(n), side="right")
        offsets = (rng.random(n) * spans[region_idx]).astype(np.int64)
        # Sequential bias: walk 2 of every 3 samples forward a line.
        seq = rng.integers(0, 3, size=n) != 0
        offsets = np.where(seq, (offsets // self._line) * self._line,
                           offsets & ~np.int64(3))
        return bases[region_idx] + offsets

    def _gen_addr(self, regions: tuple[tuple[int, int], ...]) -> int:
        """``_gen_addrs(1, regions)[0]`` from scalar draws: the same three
        draws in the same order, which the bit generator serves from the
        same stream as size-1 arrays, and the same float and integer
        arithmetic on Python numbers (``bisect_right`` is
        ``searchsorted(side="right")``, ``int`` truncates like
        ``astype``)."""
        bases, spans, cdf = self._regions(regions)[1]
        next_double, bits = self._next_double, self._bits
        i = bisect_right(cdf, next_double(bits))
        offset = int(next_double(bits) * spans[i])
        # integers(0, 3) is Lemire's reduction of a 32-bit word u: the
        # high half of u * 3, with u redrawn while the low half is 0.
        next_uint32 = self._next_uint32
        m = next_uint32(bits) * 3
        while not m & 0xFFFF_FFFF:
            m = next_uint32(bits) * 3
        if m >> 32:
            return bases[i] + (offset // self._line) * self._line
        return bases[i] + (offset & ~3)
