"""Functional + timed MMU: 2-level walks, DACR domain checks, AP checks.

The permission pipeline follows the architecture (and Table II): a TLB hit
or page walk yields (pfn, AP, domain); the *current* DACR value then
decides whether the AP field is consulted at all.  Because DACR is checked
at access time and is not cached in the TLB, Mini-NOVA can flip a guest
between kernel-view and user-view by rewriting DACR alone — no TLB flush —
which is exactly the paper's Section III-C trick.

Fast path (docs/PERFORMANCE.md): the DACR field decode is flattened into
a 16-entry table (rebuilt on every DACR write), and successful walk
results are memoized keyed on ``(ttbr, vpn)``.  A memo hit replays the
walk's timed L2 accesses — so cache state and latency evolve exactly as
on a real walk — and only skips the functional descriptor reads and
decoding, which are pure.  The memo is invalidated on TTBR/DACR writes,
on any functional DRAM write (page tables live in DRAM; see
``Dram.write_epoch``), and explicitly on lifecycle epoch bumps via
:meth:`invalidate_walk_memo`.
"""

from __future__ import annotations

from ..cache.hierarchy import AccessKind, CacheHierarchy
from ..common.errors import DataAbort, PrefetchAbort
from ..common.params import TlbParams
from ..obs.metrics import MetricsRegistry
from .descriptors import (
    AP,
    DomainType,
    L1Type,
    decode_l1,
    decode_l2,
    l1_index,
    l2_index,
)
from .phys import Bus
from .tlb import Tlb, TlbEntry


class Mmu:
    """One MMU instance (the platform is modelled with a single active core)."""

    def __init__(self, bus: Bus, caches: CacheHierarchy, tlb_params: TlbParams,
                 metrics: MetricsRegistry) -> None:
        self.bus = bus
        self.caches = caches
        self.tlb = Tlb(tlb_params)
        self.enabled = False
        self.ttbr = 0
        self.dacr = 0
        self.asid = 0
        #: Walks performed (the paper's TLB-pressure story shows up here).
        self.walks = 0
        #: Fast-path toggle (mirrors PlatformParams.fastpath; set by
        #: MemorySystem).  Off = every walk re-reads and re-decodes its
        #: descriptors.
        self.fastpath = True
        #: Walk memo: (ttbr, vpn) -> (l1_addr, l2_addr|None, pfn, ap,
        #: domain, global_), valid while `_memo_epoch` matches the DRAM
        #: write epoch.  Successful walks only; faults always re-walk.
        self._walk_memo: dict[tuple[int, int], tuple] = {}
        self._memo_epoch = -1
        self._m_walk_hits = metrics.counter("sim.fastpath.walk_cache_hits")
        self._m_walk_invals = metrics.counter(
            "sim.fastpath.walk_cache_invalidations")
        # Flattened DACR decode (see _rebuild_dacr_tables).
        self._dacr_types: list[int] = []
        self._allow: dict[tuple[bool, bool], list[bool]] = {}
        self._rebuild_dacr_tables()

    # -- register interface (privileged; reached via CP15 or hypercalls) --

    def set_ttbr(self, ttbr: int) -> None:
        self.ttbr = ttbr & 0xFFFF_C000
        self.invalidate_walk_memo()

    def set_dacr(self, dacr: int) -> None:
        self.dacr = dacr & 0xFFFF_FFFF
        self._rebuild_dacr_tables()
        self.invalidate_walk_memo()

    def set_asid(self, asid: int) -> None:
        self.asid = asid & 0xFF

    # -- fast-path support -------------------------------------------------

    def invalidate_walk_memo(self) -> None:
        """Drop every memoized walk (TTBR/DACR write, lifecycle epoch bump)."""
        if self._walk_memo:
            self._walk_memo.clear()
            self._m_walk_invals.inc()
        self._memo_epoch = -1

    def _rebuild_dacr_tables(self) -> None:
        """Flatten the DACR into per-domain type and permission tables.

        ``_dacr_types[d]`` is the raw 2-bit field (reserved 0b10 treated
        as NO_ACCESS, matching ``dacr_get``).  ``_allow[(priv, write)]``
        is a 64-entry table indexed ``domain*4 + ap`` that is True iff
        the access is permitted — the exact truth table of ``_check``,
        so the bulk fast path can test permission with one list index.
        """
        types = []
        for d in range(16):
            raw = (self.dacr >> (d * 2)) & 0b11
            types.append(raw if raw in (0, 1, 3) else 0)
        self._dacr_types = types
        allow = {}
        for priv in (False, True):
            for wr in (False, True):
                tab = []
                for dom in range(16):
                    dt = types[dom]
                    for ap in range(4):
                        if dt == 0:
                            ok = False
                        elif dt == 3:
                            ok = True
                        elif ap == 0:
                            ok = False
                        elif ap == 1:
                            ok = priv
                        elif ap == 2:
                            ok = priv or not wr
                        else:
                            ok = True
                        tab.append(ok)
                allow[(priv, wr)] = tab
        self._allow = allow

    def allow_table(self, *, privileged: bool, write: bool) -> list[bool]:
        """Permission table for one access class (see _rebuild_dacr_tables)."""
        return self._allow[(privileged, write)]

    @property
    def walk_memo_hits(self) -> int:
        """Walks served from the memo: ``sim.fastpath.walk_cache_hits``
        (a read-only view over the registry, kept for benchmarks/e2e)."""
        return self._m_walk_hits.value

    # -- translation -------------------------------------------------------

    def translate(self, vaddr: int, *, privileged: bool, write: bool,
                  fetch: bool = False) -> tuple[int, int]:
        """Translate ``vaddr``; returns ``(paddr, latency_cycles)``.

        Raises :class:`DataAbort` / :class:`PrefetchAbort` on translation,
        domain or permission faults (with ``.cycles`` attached for the walk
        cost already paid).
        """
        if not self.enabled:
            return vaddr, 0

        vpn = vaddr >> 12
        entry = self.tlb.lookup(vpn, self.asid)
        cycles = 0
        if entry is None:
            entry, cycles = self._walk(vaddr, fetch=fetch, write=write)
            self.tlb.insert(entry)

        self._check(vaddr, entry, privileged=privileged, write=write,
                    fetch=fetch, cycles=cycles)
        return entry.pfn << 12 | (vaddr & 0xFFF), cycles

    def probe(self, vaddr: int) -> TlbEntry | None:
        """Walk without timing/permission side effects (diagnostics only)."""
        try:
            entry, _ = self._walk(vaddr, fetch=False, write=False, timed=False)
            return entry
        except (DataAbort, PrefetchAbort):
            return None

    # -- internals -----------------------------------------------------------

    def _fault(self, vaddr: int, reason: str, *, fetch: bool, write: bool,
               cycles: int):
        exc: DataAbort | PrefetchAbort
        if fetch:
            exc = PrefetchAbort(vaddr, reason)
        else:
            exc = DataAbort(vaddr, reason, write=write)
        exc.cycles = cycles  # type: ignore[attr-defined]
        raise exc

    def _walk(self, vaddr: int, *, fetch: bool, write: bool,
              timed: bool = True) -> tuple[TlbEntry, int]:
        vpn = vaddr >> 12
        use_memo = self.fastpath and timed
        if use_memo:
            epoch = self.bus.dram.write_epoch
            if epoch != self._memo_epoch:
                if self._walk_memo:
                    self._walk_memo.clear()
                    self._m_walk_invals.inc()
                self._memo_epoch = epoch
            hit = self._walk_memo.get((self.ttbr, vpn))
            if hit is not None:
                # Replay the walk's timed cache traffic (identical state
                # evolution); skip only the pure functional decode.
                l1_addr, l2_addr, pfn, ap, domain, global_ = hit
                self.walks += 1
                self._m_walk_hits.inc()
                cycles = self.caches.access(l1_addr, kind=AccessKind.WALK)
                if l2_addr is not None:
                    cycles += self.caches.access(l2_addr, kind=AccessKind.WALK)
                return TlbEntry(vpn=vpn, pfn=pfn, asid=self.asid, ap=ap,
                                domain=domain, global_=global_), cycles

        cycles = 0
        self.walks += timed
        l1_addr = self.ttbr + l1_index(vaddr) * 4
        if timed:
            cycles += self.caches.access(l1_addr, kind=AccessKind.WALK)
        l1 = decode_l1(self.bus.read32(l1_addr))

        if l1.kind == L1Type.FAULT:
            self._fault(vaddr, "translation fault (L1)", fetch=fetch,
                        write=write, cycles=cycles)
        if l1.kind == L1Type.SECTION:
            pfn = (l1.base >> 12) + ((vaddr >> 12) & 0xFF)
            if use_memo:
                self._walk_memo[(self.ttbr, vpn)] = (
                    l1_addr, None, pfn, l1.ap, l1.domain, not l1.ng)
            return TlbEntry(vpn=vpn, pfn=pfn, asid=self.asid,
                            ap=l1.ap, domain=l1.domain,
                            global_=not l1.ng), cycles

        l2_addr = l1.base + l2_index(vaddr) * 4
        if timed:
            cycles += self.caches.access(l2_addr, kind=AccessKind.WALK)
        l2 = decode_l2(self.bus.read32(l2_addr))
        if not l2.valid:
            self._fault(vaddr, "translation fault (L2)", fetch=fetch,
                        write=write, cycles=cycles)
        if use_memo:
            self._walk_memo[(self.ttbr, vpn)] = (
                l1_addr, l2_addr, l2.base >> 12, l2.ap, l1.domain, not l2.ng)
        return TlbEntry(vpn=vpn, pfn=l2.base >> 12, asid=self.asid,
                        ap=l2.ap, domain=l1.domain,
                        global_=not l2.ng), cycles

    def _check(self, vaddr: int, entry: TlbEntry, *, privileged: bool,
               write: bool, fetch: bool, cycles: int) -> None:
        dtype = self._dacr_types[entry.domain]
        if dtype == DomainType.NO_ACCESS:
            self._fault(vaddr, f"domain fault (D{entry.domain} = NA)",
                        fetch=fetch, write=write, cycles=cycles)
        if dtype == DomainType.MANAGER:
            return
        ap = entry.ap
        if ap == AP.NONE:
            self._fault(vaddr, "permission fault (AP=NONE)", fetch=fetch,
                        write=write, cycles=cycles)
        elif ap == AP.PRIV_ONLY:
            if not privileged:
                self._fault(vaddr, "permission fault (privileged only)",
                            fetch=fetch, write=write, cycles=cycles)
        elif ap == AP.PRIV_RW_USER_RO:
            if not privileged and write:
                self._fault(vaddr, "permission fault (user read-only)",
                            fetch=fetch, write=write, cycles=cycles)
        # AP.FULL: always allowed.
