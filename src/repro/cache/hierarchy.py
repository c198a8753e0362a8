"""L1I / L1D / unified-L2 hierarchy with latency accounting.

Mirrors the platform of the paper: 32 KB split L1 caches and a 512 KB
unified L2, all physically tagged, so VM switches need no cache flush
(Section III-C) — the cost of multiplexing shows up purely as capacity
and conflict misses, which is the effect Table III measures.
"""

from __future__ import annotations

from enum import Enum

from ..common.params import PlatformParams
from .level import CacheLevel, CacheStats


class AccessKind(Enum):
    """What kind of agent is touching memory."""

    FETCH = "fetch"      # instruction fetch -> L1I
    DATA = "data"        # load/store        -> L1D
    WALK = "walk"        # MMU page-table walk -> L2 only (A9-style PTW)


class CacheHierarchy:
    """Two-level hierarchy; `access` returns the latency in CPU cycles."""

    def __init__(self, params: PlatformParams) -> None:
        self.params = params
        self.l1i = CacheLevel(params.l1i, "L1I")
        self.l1d = CacheLevel(params.l1d, "L1D")
        self.l2 = CacheLevel(params.l2, "L2")
        t = params.cpu
        self._lat_l1 = t.l1_hit
        self._lat_l2 = t.l2_hit
        self._lat_dram = t.dram

    def access(self, paddr: int, *, write: bool = False,
               kind: AccessKind = AccessKind.DATA) -> int:
        """Simulate one access; returns total added latency in cycles."""
        if kind is AccessKind.WALK:
            hit2, victim = self.l2.lookup(paddr, write=False)
            if hit2:
                return self._lat_l2
            lat = self._lat_l2 + self._lat_dram
            if victim is not None:
                lat += self._wb_cost()
            return lat

        l1 = self.l1i if kind is AccessKind.FETCH else self.l1d
        hit1, victim1 = l1.lookup(paddr, write=write)
        lat = self._lat_l1
        if hit1:
            return lat
        # L1 victim writeback lands in L2 (write-back, allocate-on-write).
        if victim1 is not None:
            self.l2.fill(victim1 << (self.params.l1d.line.bit_length() - 1), write=True)
        hit2, victim2 = self.l2.lookup(paddr, write=False)
        lat += self._lat_l2
        if not hit2:
            lat += self._lat_dram
            if victim2 is not None:
                lat += self._wb_cost()
        return lat

    def _wb_cost(self) -> int:
        # A dirty L2 victim goes to DRAM; posted writes hide most latency.
        return self._lat_dram // 4

    # -- maintenance (targets of guest cache-op hypercalls) -------------

    def flush_all(self) -> int:
        """Clean+invalidate everything; returns cost in cycles."""
        wb = self.l1i.clean_invalidate_all()
        wb += self.l1d.clean_invalidate_all()
        wb += self.l2.clean_invalidate_all()
        # Cost model: fixed sweep cost plus per-writeback DRAM traffic.
        lines = (self.params.l1i.sets * self.params.l1i.ways
                 + self.params.l1d.sets * self.params.l1d.ways
                 + self.params.l2.sets * self.params.l2.ways)
        return lines // 8 + wb * self._wb_cost()

    def invalidate_line(self, paddr: int) -> int:
        self.l1i.invalidate_line(paddr)
        self.l1d.invalidate_line(paddr)
        self.l2.invalidate_line(paddr)
        return 3

    # -- introspection ---------------------------------------------------

    def snapshot(self) -> dict[str, CacheStats]:
        return {
            "l1i": self.l1i.stats.snapshot(),
            "l1d": self.l1d.stats.snapshot(),
            "l2": self.l2.stats.snapshot(),
        }
