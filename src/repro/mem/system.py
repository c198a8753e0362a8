"""MemorySystem facade: virtual accesses through MMU + caches + bus.

Two access styles:

* **trace** accesses (`touch`, `fetch_run`, `read32`, `write32`): every
  kernel-path load/store/fetch goes through TLB, walker and caches
  individually — this is what makes the Table III entry/exit costs
  emerge from cache state.  `fetch_run` takes a code block's I-lines a
  page at a time, with the same effect as one `touch` per line.
* **bulk** accesses (`sample_block`): guest workloads execute millions of
  instructions; we push a 1/N sample of their memory stream through the
  real cache/TLB models (polluting them realistically) and extrapolate the
  latency of the unsampled remainder from the sampled mean.
"""

from __future__ import annotations

import numpy as np

from ..cache.hierarchy import AccessKind, CacheHierarchy
from ..common.errors import SimulationError
from ..common.params import PlatformParams
from ..obs.metrics import MetricsRegistry
from .mmu import Mmu
from .phys import Bus, FrameAllocator


class MemorySystem:
    def __init__(self, params: PlatformParams,
                 metrics: MetricsRegistry) -> None:
        self.params = params
        self.bus = Bus(params.memmap)
        self.caches = CacheHierarchy(params)
        self.mmu = Mmu(self.bus, self.caches, params.tlb, metrics)
        mm = params.memmap
        #: Kernel-reserved DRAM carve-out for page tables & kernel objects.
        self.kernel_frames = FrameAllocator(mm.dram_base, 32 * 1024 * 1024)
        #: Remaining DRAM handed to VMs.
        self.guest_frames = FrameAllocator(mm.dram_base + 32 * 1024 * 1024,
                                           mm.dram_size - 32 * 1024 * 1024)
        # Fill-pressure amplification state (see sample_block).
        self._press_rng = np.random.default_rng(0xF111)
        self._l2_fill_acc = 0
        self._tlb_fill_acc = 0
        self._l2_press_threshold = params.l2.sets * params.l2.ways // 2
        self._tlb_press_threshold = params.tlb.entries // 2
        # Fast-path toggle (docs/PERFORMANCE.md): when on, sample_block
        # runs a fused single-loop reformulation of translate+access and
        # the MMU memoizes walk results.  Cycle-for-cycle identical to the
        # slow path by construction; tests/mem/test_fastpath.py proves it.
        self.fastpath = params.fastpath
        self.mmu.fastpath = params.fastpath
        # Cycles charged through the batched bulk path (fast path only).
        self._m_batched = metrics.counter("sim.fastpath.batched_cycles")

    # -- trace-accurate accesses -------------------------------------------

    def touch(self, vaddr: int, *, write: bool = False, privileged: bool,
              fetch: bool = False) -> int:
        """Timing-only access; returns cycles. May raise ArchFault."""
        mmu = self.mmu
        if self.fastpath and mmu.enabled:
            # Fused common case: TLB hit, access permitted, cacheable.
            # The TLB scan is non-mutating until permission and device
            # checks pass, so any fallthrough to the slow path below
            # replays the identical sequence of state changes.
            tlb = mmu.tlb
            vpn = vaddr >> 12
            entries = tlb._sets[vpn % tlb._nsets]
            e = None
            i = 0
            for i, cand in enumerate(entries):
                if cand.vpn == vpn and (cand.global_ or cand.asid == mmu.asid):
                    e = cand
                    break
            if e is not None and mmu._allow[(privileged, write)][e.perm]:
                paddr = e.pfn << 12 | (vaddr & 0xFFF)
                if not self.bus.is_device(paddr):
                    tlb.stats.hits += 1
                    if i:
                        entries.pop(i)
                        entries.insert(0, e)
                    caches = self.caches
                    l1 = caches.l1i if fetch else caches.l1d
                    tag = paddr >> l1._offset_bits
                    idx1 = tag % l1._sets
                    s1 = l1._tags[idx1]
                    st1 = l1.stats
                    if tag in s1:
                        st1.hits += 1
                        if s1[0] != tag:
                            s1.remove(tag)
                            s1.insert(0, tag)
                        if write:
                            l1._dirty[idx1].add(tag)
                        return caches._lat_l1
                    st1.misses += 1
                    victim_wb = None
                    if len(s1) >= l1._ways:
                        victim = s1.pop()
                        st1.evictions += 1
                        l1._resident -= 1
                        d = l1._dirty[idx1]
                        if victim in d:
                            d.discard(victim)
                            st1.writebacks += 1
                            victim_wb = victim
                    s1.insert(0, tag)
                    l1._resident += 1
                    if write:
                        l1._dirty[idx1].add(tag)
                    lat = caches._lat_l1 + caches._lat_l2
                    if victim_wb is not None:
                        # Victim address reconstruction uses the L1D line
                        # size for both L1s, as CacheHierarchy.access does.
                        caches.l2.fill(
                            victim_wb << (self.params.l1d.line.bit_length() - 1),
                            write=True)
                    hit2, victim2 = caches.l2.lookup(paddr, write=False)
                    if not hit2:
                        caches.dram_accesses += 1
                        lat += caches._lat_dram
                        if victim2 is not None:
                            lat += caches._lat_dram // 4
                    return lat
        paddr, cycles = self.mmu.translate(vaddr, privileged=privileged,
                                           write=write, fetch=fetch)
        kind = AccessKind.FETCH if fetch else AccessKind.DATA
        if not self.bus.is_device(paddr):
            cycles += self.caches.access(paddr, write=write, kind=kind)
        else:
            # Device accesses are uncached; charge a bus round-trip.
            cycles += self.params.cpu.dram // 2
        return cycles

    def fetch_run(self, vaddr: int, lines: int, *, privileged: bool,
                  covered: int) -> int:
        """I-fetch ``lines`` sequential lines from ``vaddr``; returns cycles.

        The first line pays its latency, each later one at most
        ``covered`` (``Cpu.code``'s prefetch model).  The reference is one
        ``touch`` per line, which runs with the fast path or the MMU off
        and on any page that an MMIO window overlaps.  Otherwise only a
        page's first line goes through ``touch`` (TLB miss, walk, prefetch
        abort), and the page's other lines, which would hit the TLB entry
        that ``touch`` left MRU, walk L1I and L2 inline with batched stats
        (docs/PERFORMANCE.md §2).
        """
        touch = self.touch
        step = self.params.l1i.line
        end = vaddr + lines * step
        mmu = self.mmu
        if not (self.fastpath and mmu.enabled):
            cyc = touch(vaddr, privileged=privileged, fetch=True)
            for va in range(vaddr + step, end, step):
                cyc += min(touch(va, privileged=privileged, fetch=True),
                           covered)
            return cyc
        tlb = mmu.tlb
        tlb_sets = tlb._sets
        tlb_nsets = tlb._nsets
        overlaps_device = self.bus.overlaps_device
        caches = self.caches
        l1 = caches.l1i
        l1_tags = l1._tags
        l1_nsets = l1._sets
        l1_ways = l1._ways
        l1_shift = l1._offset_bits
        l2 = caches.l2
        l2_tags = l2._tags
        l2_dirty = l2._dirty
        l2_nsets = l2._sets
        l2_ways = l2._ways
        l2_shift = l2._offset_bits
        # What each inline line can cost, prefetch cover applied: an L1I
        # hit, an L2 hit, an L2 miss, and one that writes a victim back.
        lat = caches._lat_l1
        c_hit = min(lat, covered)
        lat += caches._lat_l2
        c_l2 = min(lat, covered)
        lat += caches._lat_dram
        c_dram = min(lat, covered)
        c_wb = min(lat + caches._lat_dram // 4, covered)
        h1 = ev1 = h2 = m2 = ev2 = wb2 = 0
        cyc = touch(vaddr, privileged=privileged, fetch=True)
        va = vaddr                    # the line ``touch`` just fetched
        try:
            while True:
                # The rest of va's page, against the entry ``touch`` left
                # at the front of its TLB set.
                page_end = min(end, (va | 0xFFF) + 1)
                va += step
                if va < page_end:
                    base = tlb_sets[(va >> 12) % tlb_nsets][0].pfn << 12
                    if overlaps_device(base, 4096):
                        while va < page_end:
                            cyc += min(touch(va, privileged=privileged,
                                             fetch=True), covered)
                            va += step
                    else:
                        n = (page_end - va + step - 1) // step
                        p0 = base | (va & 0xFFF)
                        va += n * step
                        for paddr in range(p0, p0 + n * step, step):
                            # L1I lines are never dirty: fetches never
                            # write, so an L1I victim needs no writeback.
                            tag = paddr >> l1_shift
                            s1 = l1_tags[tag % l1_nsets]
                            if tag in s1:
                                h1 += 1
                                if s1[0] != tag:
                                    s1.remove(tag)
                                    s1.insert(0, tag)
                                continue
                            if len(s1) >= l1_ways:
                                s1.pop()
                                ev1 += 1
                            s1.insert(0, tag)
                            tag2 = paddr >> l2_shift
                            idx2 = tag2 % l2_nsets
                            s2 = l2_tags[idx2]
                            if tag2 in s2:
                                h2 += 1
                                if s2[0] != tag2:
                                    s2.remove(tag2)
                                    s2.insert(0, tag2)
                                continue
                            m2 += 1
                            if len(s2) >= l2_ways:
                                v2 = s2.pop()
                                ev2 += 1
                                d2 = l2_dirty[idx2]
                                if v2 in d2:
                                    d2.discard(v2)
                                    wb2 += 1
                            s2.insert(0, tag2)
                if va >= end:
                    break
                # The first line on the next page.
                cyc += min(touch(va, privileged=privileged, fetch=True),
                           covered)
        finally:
            # Flush the batched deltas even when a later page's fault
            # unwinds the run, as the per-line loop would have left them.
            # Every inline line is one TLB hit and one L1I access.
            m1 = h2 + m2
            tlb.stats.hits += h1 + m1
            s = l1.stats
            s.hits += h1
            s.misses += m1
            s.evictions += ev1
            l1._resident += m1 - ev1
            s = l2.stats
            s.hits += h2
            s.misses += m2
            s.evictions += ev2
            s.writebacks += wb2
            l2._resident += m2 - ev2
            caches.dram_accesses += m2
        return (cyc + h1 * c_hit + h2 * c_l2 + (m2 - wb2) * c_dram
                + wb2 * c_wb)

    def read32(self, vaddr: int, *, privileged: bool) -> tuple[int, int]:
        """Functional timed read; returns (value, cycles)."""
        paddr, cycles = self.mmu.translate(vaddr, privileged=privileged,
                                           write=False)
        if self.bus.is_device(paddr):
            cycles += self.params.cpu.dram // 2
        else:
            cycles += self.caches.access(paddr, write=False, kind=AccessKind.DATA)
        return self.bus.read32(paddr), cycles

    def write32(self, vaddr: int, value: int, *, privileged: bool) -> int:
        """Functional timed write; returns cycles."""
        paddr, cycles = self.mmu.translate(vaddr, privileged=privileged,
                                           write=True)
        if self.bus.is_device(paddr):
            cycles += self.params.cpu.dram // 2
        else:
            cycles += self.caches.access(paddr, write=True, kind=AccessKind.DATA)
        self.bus.write32(paddr, value)
        return cycles

    # -- bulk workload traffic ---------------------------------------------

    def sample_block(self, vaddrs: list[int] | np.ndarray, *,
                     write_mask: list[bool] | np.ndarray,
                     privileged: bool, scale: int) -> int:
        """Push sampled accesses through MMU+caches; extrapolate total cycles.

        ``vaddrs``: sampled virtual addresses (1/scale of the real stream),
        as a list or a NumPy array, with ``write_mask`` in the same form.
        Returns extrapolated cycles for the *full* stream's memory latency.
        """
        if len(vaddrs) == 0:
            return 0
        if isinstance(vaddrs, np.ndarray):
            vaddrs, write_mask = vaddrs.tolist(), write_mask.tolist()
        l2_misses0 = self.caches.l2.stats.misses
        tlb_misses0 = self.mmu.tlb.stats.misses
        if self.fastpath:
            total = self._sample_fast(vaddrs, write_mask, privileged)
            self._m_batched.inc(total * scale)
        else:
            total = 0
            translate = self.mmu.translate
            caches_access = self.caches.access
            for va, w in zip(vaddrs, write_mask):
                paddr, c = translate(va, privileged=privileged, write=w)
                c += caches_access(paddr, write=w, kind=AccessKind.DATA)
                total += c
        # Fill-pressure amplification: the 1/scale sample produced some L2
        # fills and TLB walks; the *unsampled* remainder of the stream
        # produced ~(scale-1)x more.  Model their eviction effect
        # statistically by dropping random sets once enough amplified
        # fills accumulate.  This is what makes kernel-path lines go cold
        # when the aggregate working set overflows L2 (Table III's
        # mechanism) without tracing every access.
        # Eviction pressure in an 8-way LRU cache is strongly nonlinear in
        # occupancy: below ~60% the victim is almost always a dead line of
        # the polluter itself.  Gate the amplification on occupancy so a
        # cache-fitting footprint (1 guest) exerts no pressure while an
        # over-subscribed one (3-4 guests) exerts full pressure.
        l2 = self.caches.l2
        occ = l2.resident_lines / (l2.params.sets * l2.params.ways)
        l2_gate = min(1.0, max(0.0, (occ - 0.6) / 0.35))
        tlb = self.mmu.tlb
        tlb_occ = tlb.resident / tlb.params.entries
        tlb_gate = min(1.0, max(0.0, (tlb_occ - 0.6) / 0.35))
        self._l2_fill_acc += int(
            (self.caches.l2.stats.misses - l2_misses0) * (scale - 1) * l2_gate)
        self._tlb_fill_acc += int(
            (self.mmu.tlb.stats.misses - tlb_misses0) * (scale - 1) * tlb_gate)
        if self._l2_fill_acc >= self._l2_press_threshold:
            dropped = self.caches.l2.clear_random_sets(0.5, self._press_rng)
            # Pre-credit the refill of the dropped lines: their re-fetch
            # misses are a *consequence* of this modelled eviction, not new
            # pressure — otherwise the model feeds back into permanent
            # thrash even for cache-fitting footprints.
            self._l2_fill_acc = -dropped * (scale - 1)
        if self._tlb_fill_acc >= self._tlb_press_threshold:
            dropped = self.mmu.tlb.clear_random_sets(0.5, self._press_rng)
            self._tlb_fill_acc = -dropped * (scale - 1)
        # Both accumulators now sit below their thresholds, so a block
        # without L2 or TLB misses cannot drop anything: GuestExecutor.spin
        # relies on that to skip this model for its MRU-hit chunks.
        return total * scale

    def credit_mru_hits(self, n: int, cycles: int) -> None:
        """Record what ``sample_block`` would for ``n`` one-address blocks
        that hit the MRU entry of their TLB set and the MRU line of their
        L1D set (``GuestExecutor.spin``): the hits, and ``cycles`` of
        extrapolated latency on the batched-cycle books."""
        self.mmu.tlb.stats.hits += n
        self.caches.l1d.stats.hits += n
        self._m_batched.inc(cycles)

    def _sample_fast(self, vaddrs: list[int], write_mask: list[bool],
                     privileged: bool) -> int:
        """Fused reformulation of the per-access translate+access loop.

        One Python loop body performs the TLB lookup, the flattened DACR/AP
        permission test and the L1D/L2 cache walk inline, mutating the
        exact same model state (LRU order, dirty bits, stats, occupancy) in
        the exact same order as ``Mmu.translate`` + ``CacheHierarchy.access``
        would.  Per-level stats are accumulated in locals and flushed once
        per block (or on a fault unwinding mid-block), which is
        unobservable: nothing can run between the accesses of one block.
        Uncommon work — TLB misses, permission faults — falls back to the
        regular MMU paths so faults carry identical reasons and costs.
        """
        mmu = self.mmu
        caches = self.caches
        total = 0
        th = tm = 0                          # TLB hit/miss deltas
        h1 = m1 = ev1 = wb1 = res1 = 0       # L1D stat deltas
        h2 = m2 = ev2 = wb2 = res2 = 0       # L2 stat deltas
        dram_acc = 0
        enabled = mmu.enabled
        asid = mmu.asid
        walk = mmu._walk
        tlb = mmu.tlb
        tlb_sets = tlb._sets
        tlb_nsets = tlb._nsets
        tlb_insert = tlb.insert
        ar = mmu.allow_table(privileged=privileged, write=False)
        aw = mmu.allow_table(privileged=privileged, write=True)
        l1 = caches.l1d
        l1_tags = l1._tags
        l1_dirty = l1._dirty
        l1_nsets = l1._sets
        l1_ways = l1._ways
        l1_shift = l1._offset_bits
        l2 = caches.l2
        l2_tags = l2._tags
        l2_dirty = l2._dirty
        l2_nsets = l2._sets
        l2_ways = l2._ways
        l2_shift = l2._offset_bits
        lat1 = caches._lat_l1
        lat2 = caches._lat_l2
        lat_dram = caches._lat_dram
        wb_cost = lat_dram // 4
        try:
            for va, w in zip(vaddrs, write_mask):
                c = 0
                if enabled:
                    vpn = va >> 12
                    entries = tlb_sets[vpn % tlb_nsets]
                    e = None
                    if entries:
                        e0 = entries[0]
                        if e0.vpn == vpn and (e0.global_ or e0.asid == asid):
                            e = e0
                            th += 1
                        else:
                            for i in range(1, len(entries)):
                                cand = entries[i]
                                if cand.vpn == vpn and (cand.global_
                                                        or cand.asid == asid):
                                    e = cand
                                    th += 1
                                    entries.pop(i)
                                    entries.insert(0, cand)
                                    break
                    if e is None:
                        tm += 1
                        e, c = walk(va, fetch=False, write=w)
                        tlb_insert(e)
                    if not (aw if w else ar)[e.perm]:
                        # Replicate the exact fault (reason string, cost).
                        mmu._check(va, e, privileged=privileged, write=w,
                                   fetch=False, cycles=c)
                        raise SimulationError(
                            "fastpath allow table out of sync with Mmu._check")
                    paddr = e.pfn << 12 | (va & 0xFFF)
                else:
                    paddr = va
                tag = paddr >> l1_shift
                idx1 = tag % l1_nsets
                s1 = l1_tags[idx1]
                if s1 and s1[0] == tag:
                    h1 += 1
                    total += c + lat1
                    if w:
                        l1_dirty[idx1].add(tag)
                    continue
                if tag in s1:
                    h1 += 1
                    s1.remove(tag)
                    s1.insert(0, tag)
                    total += c + lat1
                    if w:
                        l1_dirty[idx1].add(tag)
                    continue
                m1 += 1
                victim_wb = None
                if len(s1) >= l1_ways:
                    victim = s1.pop()
                    ev1 += 1
                    res1 -= 1
                    d = l1_dirty[idx1]
                    if victim in d:
                        d.discard(victim)
                        wb1 += 1
                        victim_wb = victim
                s1.insert(0, tag)
                res1 += 1
                if w:
                    l1_dirty[idx1].add(tag)
                lat = c + lat1 + lat2
                if victim_wb is not None:
                    # L1 victim writeback lands in L2 (fill, write=True);
                    # a dirty L2 victim displaced by it is dropped, exactly
                    # like CacheLevel.fill with its return value unused.
                    tagv = (victim_wb << l1_shift) >> l2_shift
                    idxv = tagv % l2_nsets
                    sv = l2_tags[idxv]
                    if tagv in sv:
                        if sv[0] != tagv:
                            sv.remove(tagv)
                            sv.insert(0, tagv)
                    else:
                        if len(sv) >= l2_ways:
                            v2 = sv.pop()
                            ev2 += 1
                            res2 -= 1
                            dv = l2_dirty[idxv]
                            if v2 in dv:
                                dv.discard(v2)
                                wb2 += 1
                        sv.insert(0, tagv)
                        res2 += 1
                    l2_dirty[idxv].add(tagv)
                tag2 = paddr >> l2_shift
                idx2 = tag2 % l2_nsets
                s2 = l2_tags[idx2]
                if s2 and s2[0] == tag2:
                    h2 += 1
                elif tag2 in s2:
                    h2 += 1
                    s2.remove(tag2)
                    s2.insert(0, tag2)
                else:
                    m2 += 1
                    victim2_wb = None
                    if len(s2) >= l2_ways:
                        v2 = s2.pop()
                        ev2 += 1
                        res2 -= 1
                        d2 = l2_dirty[idx2]
                        if v2 in d2:
                            d2.discard(v2)
                            wb2 += 1
                            victim2_wb = v2
                    s2.insert(0, tag2)
                    res2 += 1
                    dram_acc += 1
                    lat += lat_dram
                    if victim2_wb is not None:
                        lat += wb_cost
                total += lat
        finally:
            # Flush the batched stat deltas even when a fault unwinds the
            # loop, so the visible state matches the slow path exactly.
            ts = tlb.stats
            ts.hits += th
            ts.misses += tm
            s = l1.stats
            s.hits += h1
            s.misses += m1
            s.evictions += ev1
            s.writebacks += wb1
            l1._resident += res1
            s = l2.stats
            s.hits += h2
            s.misses += m2
            s.evictions += ev2
            s.writebacks += wb2
            l2._resident += res2
            caches.dram_accesses += dram_acc
        return total
