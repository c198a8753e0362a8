"""MemorySystem facade: virtual accesses through MMU + caches + bus.

Two access styles:

* **trace** accesses (`touch`, `fetch_run`, `touch_run`, `read32`,
  `write32`): every kernel-path load/store/fetch goes through TLB, walker
  and caches individually — this is what makes the Table III entry/exit
  costs emerge from cache state.  `fetch_run` takes a code block's
  I-lines a page at a time, with the same effect as one `touch` per line,
  and `touch_run` a run of data accesses (a record walk, a context move)
  in one fused loop, with the same effect as one `touch` per access.
* **bulk** accesses (`sample_block`): guest workloads execute millions of
  instructions; we push a 1/N sample of their memory stream through the
  real cache/TLB models (polluting them realistically) and extrapolate the
  latency of the unsampled remainder from the sampled mean.  The sample
  runs through `touch_run`'s loop too.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterable, Sequence

import numpy as np

from ..cache.hierarchy import AccessKind, CacheHierarchy
from ..cache.level import CacheLevel
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
        # Fast-path toggle (docs/PERFORMANCE.md): when on, touch,
        # fetch_run and touch_run (sample_block's too) run fused
        # reformulations of the per-access path and the MMU memoizes walk
        # results.  Cycle-for-cycle identical to the slow path by
        # construction; tests/mem/test_fastpath.py proves it.
        self.fastpath = params.fastpath
        self.mmu.fastpath = params.fastpath
        # Cycles charged through the batched bulk path (fast path only).
        self._m_batched = metrics.counter("sim.fastpath.batched_cycles")
        # fetch_run's static references, per prefetch-cover value, and its
        # plans, per (physical address of a run's first line, line count).
        self._fetch_bindings: dict[int, tuple] = {}
        self._fetch_plans: dict[tuple[int, int], tuple] = {}
        #: A device access is uncached: it costs a bus round-trip.
        self._device_cycles = params.cpu.dram // 2

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
                return self._cache_walk(paddr, write,
                                        caches.l1i if fetch else caches.l1d)
        paddr, cycles = self.mmu.translate(vaddr, privileged=privileged,
                                           write=write, fetch=fetch)
        kind = AccessKind.FETCH if fetch else AccessKind.DATA
        if not self.bus.is_device(paddr):
            cycles += self.caches.access(paddr, write=write, kind=kind)
        else:
            cycles += self._device_cycles
        return cycles

    def _cache_walk(self, paddr: int, write: bool, l1: CacheLevel) -> int:
        """The L1 and L2 walk of one cacheable fetch (``l1`` is L1I) or
        data access (L1D): ``CacheHierarchy.access`` for those kinds,
        inline.  Returns its cycles."""
        caches = self.caches
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
            lat += caches._lat_dram
            if victim2 is not None:
                lat += caches._lat_dram // 4
        return lat

    def fetch_run(self, vaddr: int, lines: int, *, privileged: bool,
                  covered: int) -> int:
        """I-fetch ``lines`` sequential lines from ``vaddr``; returns cycles.

        The first line pays its latency, each later one at most
        ``covered`` (``Cpu.code``'s prefetch model).  The reference is one
        ``touch`` per line, which runs with the fast path or the MMU off
        and on any page that an MMIO window overlaps
        (``Bus.device_pages``).  Otherwise a page's first line goes
        through ``touch`` (TLB miss, a hit behind the front, walk,
        prefetch abort) unless the page's TLB entry is already the front
        of its set and permits the fetch; then it is a one-line run of its
        own.  The page's other lines walk L1I and L2 inline against that
        entry, from a cached plan of their sets and tags, with batched
        stats (docs/PERFORMANCE.md §2).
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
        binding = self._fetch_bindings.get(covered)
        if binding is None:
            binding = self._fetch_bindings[covered] = \
                self._bind_fetch(covered)
        (caches, tlb, tlb_sets, tlb_nsets, device_pages, l1, l1_ways, l2,
         l2_dirty, l2_ways, plans, full, capped) = binding
        allow = mmu._allow[(privileged, False)]
        asid = mmu.asid
        costs = full                  # the block's first line is uncapped
        cyc = inline = free1 = h2 = m2 = free2 = wb2 = 0
        va = vaddr
        page_end = va                 # no page started
        try:
            while va < end:
                if va < page_end:
                    # The rest of the page, against the entry at the front.
                    n = (page_end - va + step - 1) // step
                else:
                    # A page's first line, a run of its own: the block's
                    # first line alone pays its full latency.
                    page_end = min(end, (va | 0xFFF) + 1)
                    vpn = va >> 12
                    entries = tlb_sets[vpn % tlb_nsets]
                    e = entries[0] if entries else None
                    if not (e is not None and e.vpn == vpn
                            and (e.global_ or e.asid == asid)
                            and e.pfn not in device_pages
                            and allow[e.perm]):
                        c = touch(va, privileged=privileged, fetch=True)
                        cyc += c if costs is full else min(c, covered)
                        costs = capped
                        va += step
                        # ``touch`` left the page's entry at the front.
                        e = entries[0]
                        if e.pfn in device_pages:
                            while va < page_end:
                                cyc += min(touch(va, privileged=privileged,
                                                 fetch=True), covered)
                                va += step
                        continue
                    # ``touch`` would book one TLB hit and move nothing.
                    n = 1
                k_hit, k_l2, k_miss, k_wb = costs
                costs = capped
                p0 = e.pfn << 12 | (va & 0xFFF)
                plan = plans.get((p0, n))
                if plan is None:
                    plan = plans[p0, n] = self._fetch_plan(p0, n)
                inline += n
                va += n * step
                cyc += n * k_hit
                for s1, tag, s2, tag2 in plan:
                    if tag in s1:
                        if s1[0] != tag:
                            s1.remove(tag)
                            s1.insert(0, tag)
                        continue
                    # L1I lines are never dirty: fetches never write, so
                    # an L1I victim needs no writeback.
                    if len(s1) < l1_ways:
                        free1 += 1
                    else:
                        s1.pop()
                    s1.insert(0, tag)
                    if tag2 in s2:
                        h2 += 1
                        cyc += k_l2
                        if s2[0] != tag2:
                            s2.remove(tag2)
                            s2.insert(0, tag2)
                        continue
                    m2 += 1
                    cyc += k_miss
                    if len(s2) < l2_ways:
                        free2 += 1
                    else:
                        v2 = s2.pop()
                        if v2 in l2_dirty:
                            l2_dirty.discard(v2)
                            wb2 += 1
                            cyc += k_wb
                    s2.insert(0, tag2)
        finally:
            # Flush the batched deltas even when a later page's fault
            # unwinds the run, as the per-line loop would have left them.
            # Every inline line is one TLB hit and one L1I access, every
            # L1I miss one L2 access, and every allocation into a full set
            # evicts.
            m1 = h2 + m2
            tlb.stats.hits += inline
            s = l1.stats
            s.hits += inline - m1
            if m1:
                s.misses += m1
                s.evictions += m1 - free1
                l1._resident += free1
                s = l2.stats
                s.hits += h2
                s.misses += m2
                s.evictions += m2 - free2
                s.writebacks += wb2
                l2._resident += free2
        return cyc

    def _bind_fetch(self, covered: int) -> tuple:
        """What ``fetch_run`` reads besides the access state itself: the
        caches, the TLB, L1I and L2 objects, the TLB's set lists, which are
        never rebound, the geometry, the device-page set, the plans, and
        what an inline line costs, in full and once the prefetch cover
        applies.  A cost is an L1I hit's latency, what an L2 hit and an
        L2 miss add to it, and what a dirty L2 victim adds to the miss."""
        tlb = self.mmu.tlb
        caches = self.caches
        l1, l2 = caches.l1i, caches.l2
        hit = caches._lat_l1
        l2_hit = hit + caches._lat_l2
        miss = l2_hit + caches._lat_dram
        wb = miss + caches._lat_dram // 4

        def costs(hit, l2_hit, miss, wb):
            return (hit, l2_hit - hit, miss - hit, wb - miss)
        full = costs(hit, l2_hit, miss, wb)
        capped = costs(*(min(c, covered) for c in (hit, l2_hit, miss, wb)))
        return (caches, tlb, tlb._sets, tlb._nsets, self.bus.device_pages,
                l1, l1._ways, l2, l2._dirty, l2._ways, self._fetch_plans,
                full, capped)

    def _fetch_plan(self, paddr: int, n: int) -> tuple:
        """The fetch plan of ``n`` I-lines from ``paddr``: each line's L1I
        set list and tag and its L2 set list and tag.  These are pure
        functions of the address and the geometry, and set lists are only
        ever mutated in place, so a plan never goes stale."""
        l1, l2 = self.caches.l1i, self.caches.l2
        l1_tags, l1_sets, l1_shift = l1._tags, l1._sets, l1._offset_bits
        l2_tags, l2_sets, l2_shift = l2._tags, l2._sets, l2._offset_bits
        plan = []
        for p in range(paddr, paddr + n * self.params.l1i.line,
                       self.params.l1i.line):
            tag, tag2 = p >> l1_shift, p >> l2_shift
            plan.append((l1_tags[tag % l1_sets], tag,
                         l2_tags[tag2 % l2_sets], tag2))
        return tuple(plan)

    def touch_run(self, vaddrs: Sequence[int], writes: Iterable[bool], *,
                  privileged: bool, charge: Callable[[int], object]) -> None:
        """Access each of ``vaddrs`` in order (timing only), a store where
        ``writes`` yields True and a load elsewhere, and pass the summed
        cycles to ``charge``: the state and the charged cycles of one
        ``touch`` per access.  ``writes`` yields a flag per address; it may
        be longer (``itertools.repeat`` for a run of one kind).

        With the fast path and the MMU on, the fused loop of ``_data_run``
        books the run; otherwise it takes one ``touch`` per access, the
        reference.  A fault charges the accesses before it, not the
        faulting one, as the per-access loop would (docs/PERFORMANCE.md
        §2).
        """
        if self.fastpath and self.mmu.enabled:
            self._data_run(vaddrs, writes, privileged, charge)
            return
        touch = self.touch
        cyc = 0
        try:
            for w, va in zip(writes, vaddrs):
                cyc += touch(va, write=w, privileged=privileged)
        finally:
            charge(cyc)

    def read32(self, vaddr: int, *, privileged: bool) -> tuple[int, int]:
        """Functional timed read; returns (value, cycles)."""
        paddr, cycles = self.mmu.translate(vaddr, privileged=privileged,
                                           write=False)
        window = self.bus.window(paddr)
        if window is None:
            cycles += self.caches.access(paddr, write=False,
                                         kind=AccessKind.DATA)
            return self.bus.read32(paddr), cycles
        return (window.device.mmio_read(paddr - window.base) & 0xFFFF_FFFF,
                cycles + self._device_cycles)

    def write32(self, vaddr: int, value: int, *, privileged: bool) -> int:
        """Functional timed write; returns cycles."""
        paddr, cycles = self.mmu.translate(vaddr, privileged=privileged,
                                           write=True)
        window = self.bus.window(paddr)
        if window is None:
            cycles += self.caches.access(paddr, write=True,
                                         kind=AccessKind.DATA)
            self.bus.write32(paddr, value)
            return cycles
        window.device.mmio_write(paddr - window.base, value & 0xFFFF_FFFF)
        return cycles + self._device_cycles

    # -- bulk workload traffic ---------------------------------------------

    def sample_block(self, vaddrs: list[int], *, write_mask: list[bool],
                     privileged: bool, scale: int) -> int:
        """Push sampled accesses through MMU+caches; extrapolate total cycles.

        ``vaddrs``: the list of sampled virtual addresses (1/scale of the
        real stream); ``write_mask``: the list of their write flags.
        Returns extrapolated cycles for the *full* stream's memory latency.
        The sample runs as one ``touch_run``; a fault escapes with the
        accesses before it booked and nothing charged.
        """
        if not vaddrs:
            return 0
        l2 = self.caches.l2
        tlb = self.mmu.tlb
        l2_misses0 = l2.stats.misses
        tlb_misses0 = tlb.stats.misses
        sampled: list[int] = []
        self.touch_run(vaddrs, write_mask, privileged=privileged,
                       charge=sampled.append)
        total = sampled[0]
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

    def _data_run(self, vaddrs: Sequence[int], writes: Iterable[bool],
                  privileged: bool, charge: Callable[[int], object]) -> None:
        """``touch_run`` with the fast path and the MMU on: the one fused
        reformulation of the per-access ``touch`` loop for data runs.

        One Python loop body performs the TLB lookup, the flattened
        DACR/AP permission test and the L1D/L2 cache walk inline, mutating
        the exact same model state (LRU order, dirty bits, occupancy) in
        the exact same order as one ``touch`` per access would
        (docs/PERFORMANCE.md §2):

        * ``mru`` maps the vpn of TLB entries that are the front of their
          set, match the ASID (or are global), permit both a read and a
          write at this privilege and are not on a device page to their
          page base: all of them for a run longer than the TLB has sets,
          none at first for a shorter one.  An access to a mapped page is
          a TLB hit that moves nothing: one dict probe.  Any other access
          takes the lookup, walk and insert path, after which its entry is
          the front of its set, so ``mru`` drops the set's old front and
          takes the new one if it qualifies.
        * An access on a page in ``Bus.device_pages`` is translated as
          any other, then costed as ``touch``'s slow path costs it: a bus
          round-trip if an MMIO window holds the address, else
          ``CacheHierarchy.access``.  Its page never enters ``mru``.
        * Only L1D hits and misses past L1D are counted in the loop; the
          rest follow once, in the ``finally``: every translated access is
          a TLB hit or miss, every one that reached L1D here is an L1D hit
          or miss, and every L1D miss is an L2 hit or miss.  An access
          whose translation raises reached no cache.  Nothing can run
          between the accesses of one run, so batching the counts and the
          charge is unobservable.
        * An L1D miss takes its L2 tag, and a dirty L1D victim its L2 tag,
          from the L1D tag by a right shift, which needs L2 lines at least
          as long as L1D lines (``PlatformParams`` rejects the rest).
        * Faults replay ``Mmu._check``, so they carry identical reasons
          and costs, and the ``finally`` charges the accesses before the
          fault.
        """
        mmu = self.mmu
        caches = self.caches
        asid = mmu.asid
        walk = mmu._walk
        tlb = mmu.tlb
        tlb_sets = tlb._sets
        tlb_nsets = tlb._nsets
        tlb_insert = tlb.insert
        device_pages = self.bus.device_pages
        allow = mmu._allow
        ar = allow[(privileged, False)]
        aw = allow[(privileged, True)]
        mru = {}
        if len(vaddrs) > tlb_nsets:
            # Filling the map visits every TLB set; a shorter run learns
            # its pages through the lookup path instead.
            for entries in tlb_sets:
                if entries:
                    e = entries[0]
                    if ((e.global_ or e.asid == asid) and ar[e.perm]
                            and aw[e.perm] and e.pfn not in device_pages):
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
        tm = extra = 0                       # TLB misses; walk, device cycles
        h1 = free1 = wb1 = 0                 # L1D
        m2 = free2 = wb2 = 0                 # L2 lookups
        fill = freef = wbf = 0               # L1D victims filling L2
        dev = faulted = 0                    # device-page accesses; a fault
        addrs = iter(vaddrs)
        try:
            # ``writes`` first: the pair that ends the loop takes no address.
            for w, va in zip(writes, addrs):
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
                    extra += c
                    base = e.pfn << 12
                    mru.pop(front, None)
                    if e.pfn in device_pages:
                        dev += 1
                        paddr = base | (va & 0xFFF)
                        extra += (self._device_cycles
                                  if self.bus.is_device(paddr)
                                  else caches.access(paddr, write=w))
                        continue
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
            # ``addrs`` has yielded the access that raised.  It was
            # translated (a TLB hit or miss) but reached no cache.
            faulted = 1
            raise
        finally:
            done = len(vaddrs) - operator.length_hint(addrs)  # translated
            reached = done - faulted - dev      # accesses that reached L1D
            m1 = reached - h1
            s = tlb.stats
            s.hits += done - tm
            s.misses += tm
            s = l1.stats
            s.hits += h1
            if m1:
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
            charge(reached * caches._lat_l1 + m1 * caches._lat_l2
                   + m2 * caches._lat_dram + wb2 * (caches._lat_dram // 4)
                   + extra)
