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

import operator

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
        self._l2_lines = params.l2.sets * params.l2.ways
        self._tlb_entries = params.tlb.entries
        self._l2_press_threshold = self._l2_lines // 2
        self._tlb_press_threshold = self._tlb_entries // 2
        # Fast-path toggle (docs/PERFORMANCE.md): when on, sample_block
        # runs a fused single-loop reformulation of translate+access and
        # the MMU memoizes walk results.  Cycle-for-cycle identical to the
        # slow path by construction; tests/mem/test_fastpath.py proves it.
        self.fastpath = params.fastpath
        self.mmu.fastpath = params.fastpath
        # Cycles charged through the batched bulk path (fast path only).
        self._m_batched = metrics.counter("sim.fastpath.batched_cycles")
        # fetch_run's static references, per prefetch-cover value.
        self._fetch_bindings: dict[int, tuple] = {}

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
            # A page that an MMIO window overlaps takes the slow path,
            # which checks the exact address.
            if (e is not None and e.pfn not in self.bus.device_pages
                    and mmu._allow[(privileged, write)][e.perm]):
                paddr = e.pfn << 12 | (vaddr & 0xFFF)
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
                        l1._dirty.add(tag)
                    return caches._lat_l1
                st1.misses += 1
                victim_wb = None
                if len(s1) >= l1._ways:
                    victim = s1.pop()
                    st1.evictions += 1
                    l1._resident -= 1
                    d = l1._dirty
                    if victim in d:
                        d.discard(victim)
                        st1.writebacks += 1
                        victim_wb = victim
                s1.insert(0, tag)
                l1._resident += 1
                if write:
                    l1._dirty.add(tag)
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
        and on any page that an MMIO window overlaps
        (``Bus.device_pages``).  Otherwise only a page's first line goes
        through ``touch`` (TLB miss, walk, prefetch abort), and the page's
        other lines, which would hit the TLB entry that ``touch`` left
        MRU, walk L1I and L2 inline with batched stats
        (docs/PERFORMANCE.md §2).
        """
        touch = self.touch
        step = self.params.l1i.line
        end = vaddr + lines * step
        if not (self.fastpath and self.mmu.enabled):
            cyc = touch(vaddr, privileged=privileged, fetch=True)
            for va in range(vaddr + step, end, step):
                cyc += min(touch(va, privileged=privileged, fetch=True),
                           covered)
            return cyc
        binding = self._fetch_bindings.get(covered)
        if binding is None:
            binding = self._fetch_bindings[covered] = \
                self._bind_fetch(covered)
        (caches, tlb, tlb_sets, tlb_nsets, device_pages, l1, l1_tags,
         l1_nsets, l1_ways, l1_shift, l2, l2_tags, l2_dirty, l2_nsets,
         l2_ways, l2_shift, c_hit, c_l2, c_dram, c_wb) = binding
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
                    pfn = tlb_sets[(va >> 12) % tlb_nsets][0].pfn
                    if pfn in device_pages:
                        while va < page_end:
                            cyc += min(touch(va, privileged=privileged,
                                             fetch=True), covered)
                            va += step
                    else:
                        n = (page_end - va + step - 1) // step
                        p0 = pfn << 12 | (va & 0xFFF)
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
                            s2 = l2_tags[tag2 % l2_nsets]
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
                                if v2 in l2_dirty:
                                    l2_dirty.discard(v2)
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

    def _bind_fetch(self, covered: int) -> tuple:
        """What ``fetch_run`` reads besides the access state itself: the
        caches, the TLB, L1I and L2 objects and their set lists, which are
        never rebound, their geometry, the device-page set, and what each
        inline line costs once the prefetch cover applies: an L1I hit, an
        L2 hit, an L2 miss, and one that writes a victim back."""
        tlb = self.mmu.tlb
        caches = self.caches
        l1, l2 = caches.l1i, caches.l2
        lat = caches._lat_l1
        c_hit = min(lat, covered)
        lat += caches._lat_l2
        c_l2 = min(lat, covered)
        lat += caches._lat_dram
        c_dram = min(lat, covered)
        c_wb = min(lat + caches._lat_dram // 4, covered)
        return (caches, tlb, tlb._sets, tlb._nsets, self.bus.device_pages,
                l1, l1._tags, l1._sets, l1._ways, l1._offset_bits,
                l2, l2._tags, l2._dirty, l2._sets, l2._ways, l2._offset_bits,
                c_hit, c_l2, c_dram, c_wb)

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

    def sample_block(self, vaddrs: list[int], *, write_mask: list[bool],
                     privileged: bool, scale: int) -> int:
        """Push sampled accesses through MMU+caches; extrapolate total cycles.

        ``vaddrs``: the list of sampled virtual addresses (1/scale of the
        real stream); ``write_mask``: the list of their write flags.
        Returns extrapolated cycles for the *full* stream's memory latency.
        """
        if not vaddrs:
            return 0
        l2 = self.caches.l2
        tlb = self.mmu.tlb
        l2_misses0 = l2.stats.misses
        tlb_misses0 = tlb.stats.misses
        if self.fastpath and self.mmu.enabled:
            total = self._sample_fast(vaddrs, write_mask, privileged)
        else:
            total = 0
            translate = self.mmu.translate
            caches_access = self.caches.access
            for va, w in zip(vaddrs, write_mask):
                paddr, c = translate(va, privileged=privileged, write=w)
                c += caches_access(paddr, write=w, kind=AccessKind.DATA)
                total += c
        if self.fastpath:
            self._m_batched.inc(total * scale)
        l2_new = l2.stats.misses - l2_misses0
        tlb_new = tlb.stats.misses - tlb_misses0
        if not (l2_new or tlb_new):
            # Both accumulators sit below their thresholds after every
            # block (see below), and this block would add 0 to each, so
            # the model below could drop nothing.  repeat_mru_hit relies
            # on the same invariant.
            return total * scale
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
        occ = l2.resident_lines / self._l2_lines
        l2_gate = min(1.0, max(0.0, (occ - 0.6) / 0.35))
        tlb_occ = tlb.resident / self._tlb_entries
        tlb_gate = min(1.0, max(0.0, (tlb_occ - 0.6) / 0.35))
        self._l2_fill_acc += int(l2_new * (scale - 1) * l2_gate)
        self._tlb_fill_acc += int(tlb_new * (scale - 1) * tlb_gate)
        if self._l2_fill_acc >= self._l2_press_threshold:
            dropped = l2.clear_random_sets(0.5, self._press_rng)
            # Pre-credit the refill of the dropped lines: their re-fetch
            # misses are a *consequence* of this modelled eviction, not new
            # pressure — otherwise the model feeds back into permanent
            # thrash even for cache-fitting footprints.
            self._l2_fill_acc = -dropped * (scale - 1)
        if self._tlb_fill_acc >= self._tlb_press_threshold:
            dropped = tlb.clear_random_sets(0.5, self._press_rng)
            self._tlb_fill_acc = -dropped * (scale - 1)
        # Both accumulators now sit below their thresholds: a drop resets
        # one to -dropped * (scale - 1) <= 0.
        return total * scale

    def repeat_mru_hit(self, va: int, n: int, *, privileged: bool,
                       write: bool, scale: int) -> bool:
        """Book ``n`` calls of ``sample_block([va], write_mask=[write],
        privileged=privileged, scale=scale)`` in one step when the first
        would hit the MRU entry of its TLB set, with the access permitted,
        and the MRU line of its L1D set; return False, changing nothing,
        when it would not, or when the fast path or the MMU is off.

        Such a block moves no LRU order and walks nothing.  With no L2 or
        TLB miss it adds nothing to the fill-pressure accumulators, which
        are below their thresholds after every ``sample_block``, so it
        drops nothing.  It changes only the TLB and L1D hit counts, the
        line's dirty bit on a write and the batched cycles, and leaves the
        next such block to hit in the same way (``GuestExecutor.spin``).
        """
        mmu = self.mmu
        if not (self.fastpath and mmu.enabled):
            return False
        tlb = mmu.tlb
        vpn = va >> 12
        entries = tlb._sets[vpn % tlb._nsets]
        if not entries:
            return False
        e = entries[0]
        if not (e.vpn == vpn and (e.global_ or e.asid == mmu.asid)
                and mmu.allow_table(privileged=privileged,
                                    write=write)[e.perm]):
            return False
        l1 = self.caches.l1d
        tag = (e.pfn << 12 | (va & 0xFFF)) >> l1._offset_bits
        lines = l1._tags[tag % l1._sets]
        if not (lines and lines[0] == tag):
            return False
        if write:
            l1._dirty.add(tag)
        tlb.stats.hits += n
        l1.stats.hits += n
        self._m_batched.inc(n * self.caches._lat_l1 * scale)
        return True

    def _sample_fast(self, vaddrs: list[int], write_mask: list[bool],
                     privileged: bool) -> int:
        """Fused reformulation of the per-access translate+access loop,
        for the MMU on.

        One Python loop body performs the TLB lookup, the flattened
        DACR/AP permission test and the L1D/L2 cache walk inline, mutating
        the exact same model state (LRU order, dirty bits, occupancy) in
        the exact same order as ``Mmu.translate`` + ``CacheHierarchy.access``
        would (docs/PERFORMANCE.md §2):

        * ``mru`` maps the vpn of TLB entries that are the front of their
          set, match the ASID (or are global) and permit both a read and
          a write at this privilege to their page base: all of them for
          a block longer than the TLB has sets, none at first for a
          shorter one.  An access to a mapped page is a TLB hit that
          moves nothing: one dict probe.  Any other access takes the
          lookup, walk and insert path, after which its entry is the
          front of its set, so ``mru`` drops the set's old front and
          takes the new one if it permits both.
        * Only L1D hits and misses past L1D are counted in the loop; the
          rest follow once, in the ``finally``: every translated access is
          a TLB hit or miss, every one that reached L1D is an L1D hit or
          miss, and every L1D miss is an L2 hit or miss.  An access whose
          translation raises reached no cache.  Nothing can run between
          the accesses of one block, so batching the counts is
          unobservable.
        * An L1D miss takes its L2 tag, and a dirty L1D victim its L2 tag,
          from the L1D tag by a right shift, which needs L2 lines at least
          as long as L1D lines (``PlatformParams`` rejects the rest).
        * Faults replay ``Mmu._check``, so they carry identical reasons
          and costs.
        """
        mmu = self.mmu
        caches = self.caches
        asid = mmu.asid
        walk = mmu._walk
        tlb = mmu.tlb
        tlb_sets = tlb._sets
        tlb_nsets = tlb._nsets
        tlb_insert = tlb.insert
        ar = mmu.allow_table(privileged=privileged, write=False)
        aw = mmu.allow_table(privileged=privileged, write=True)
        mru = {}
        if len(vaddrs) > tlb_nsets:
            # Filling the map visits every TLB set; a shorter block
            # learns its pages through the lookup path instead.
            for entries in tlb_sets:
                if entries:
                    e = entries[0]
                    if ((e.global_ or e.asid == asid)
                            and ar[e.perm] and aw[e.perm]):
                        mru[e.vpn] = e.pfn << 12
        mru_get = mru.get
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
        up = l2._offset_bits - l1_shift      # L1D tag -> L2 tag
        # Hits and misses as above, allocations into a set with a free way
        # (every other allocation evicts) and dirty victims.
        tm = walk_cycles = 0                 # TLB misses, their walks
        h1 = free1 = wb1 = 0                 # L1D
        m2 = free2 = wb2 = 0                 # L2 lookups
        fill = freef = wbf = 0               # L1D victims filling L2
        done = min(len(vaddrs), len(write_mask))   # accesses translated
        faulted = 0
        addrs = iter(vaddrs)
        try:
            for va, w in zip(addrs, write_mask):
                base = mru_get(va >> 12)
                if base is None:
                    vpn = va >> 12
                    entries = tlb_sets[vpn % tlb_nsets]
                    front = entries[0].vpn if entries else None
                    c = 0
                    for i, e in enumerate(entries):
                        if e.vpn == vpn and (e.global_ or e.asid == asid):
                            if i:
                                del entries[i]
                                entries.insert(0, e)
                            break
                    else:
                        tm += 1
                        e, c = walk(va, fetch=False, write=w)
                        tlb_insert(e)
                    perm = e.perm
                    if not (aw if w else ar)[perm]:
                        # Replicate the exact fault (reason string, cost).
                        mmu._check(va, e, privileged=privileged, write=w,
                                   fetch=False, cycles=c)
                        raise SimulationError(
                            "fastpath allow table out of sync with Mmu._check")
                    walk_cycles += c
                    base = e.pfn << 12
                    mru.pop(front, None)
                    if ar[perm] and aw[perm]:
                        mru[vpn] = base
                tag = (base | (va & 0xFFF)) >> l1_shift
                s1 = l1_tags[tag % l1_nsets]
                if tag in s1:
                    h1 += 1
                    if s1[0] != tag:
                        s1.remove(tag)
                        s1.insert(0, tag)
                    if w:
                        l1_dirty.add(tag)
                    continue
                if len(s1) < l1_ways:
                    free1 += 1
                else:
                    victim = s1.pop()
                    if victim in l1_dirty:
                        l1_dirty.discard(victim)
                        wb1 += 1
                        # The victim's writeback lands in L2 (fill,
                        # write=True); a dirty L2 victim it displaces is
                        # dropped, as CacheLevel.fill's unused return
                        # value is.  L1D and L2 share no state, so this
                        # fill may precede the L1D insert below.
                        victim >>= up               # its L2 tag
                        s2 = l2_tags[victim % l2_nsets]
                        if victim in s2:
                            if s2[0] != victim:
                                s2.remove(victim)
                                s2.insert(0, victim)
                        else:
                            fill += 1
                            if len(s2) < l2_ways:
                                freef += 1
                            else:
                                v2 = s2.pop()
                                if v2 in l2_dirty:
                                    l2_dirty.discard(v2)
                                    wbf += 1
                            s2.insert(0, victim)
                        l2_dirty.add(victim)
                s1.insert(0, tag)
                if w:
                    l1_dirty.add(tag)
                tag >>= up                          # the L2 tag
                s2 = l2_tags[tag % l2_nsets]
                if tag in s2:
                    if s2[0] != tag:
                        s2.remove(tag)
                        s2.insert(0, tag)
                    continue
                m2 += 1
                if len(s2) < l2_ways:
                    free2 += 1
                else:
                    v2 = s2.pop()
                    if v2 in l2_dirty:
                        l2_dirty.discard(v2)
                        wb2 += 1
                s2.insert(0, tag)
        except BaseException:
            # ``addrs`` has yielded the access that raised and every one
            # before it.  That access was translated (a TLB hit or miss)
            # but reached no cache.
            done = len(vaddrs) - operator.length_hint(addrs)
            faulted = 1
            raise
        finally:
            reached = done - faulted        # accesses that reached L1D
            m1 = reached - h1
            s = tlb.stats
            s.hits += done - tm
            s.misses += tm
            s = l1.stats
            s.hits += h1
            s.misses += m1
            s.evictions += m1 - free1
            s.writebacks += wb1
            l1._resident += free1
            s = l2.stats
            s.hits += m1 - m2
            s.misses += m2
            s.evictions += m2 - free2 + fill - freef
            s.writebacks += wb2 + wbf
            l2._resident += free2 + freef
            caches.dram_accesses += m2
        return (reached * caches._lat_l1 + m1 * caches._lat_l2
                + m2 * caches._lat_dram + wb2 * (caches._lat_dram // 4)
                + walk_cycles)
