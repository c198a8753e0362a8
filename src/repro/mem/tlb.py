"""ASID-tagged set-associative TLB model (Cortex-A9 main TLB style).

Entries cache 4 KB-granularity translations (sections are cached one 4 KB
chunk at a time, as A9 micro-TLBs do).  Non-global entries are tagged with
the ASID of the address space that installed them, so switching a VM only
requires reloading the ASID register instead of a full flush — the
mechanism Section III-C of the paper uses to make VM switches cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..common.params import TlbParams
from .descriptors import AP


@dataclass(frozen=True, slots=True)
class TlbEntry:
    """Cached result of one page walk."""

    vpn: int
    pfn: int
    asid: int          # ignored when global_
    ap: AP
    domain: int
    global_: bool = False
    #: Precomputed ``domain * 4 + ap`` — index into the MMU's flattened
    #: DACR/AP permission tables (docs/PERFORMANCE.md §2).
    perm: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "perm", self.domain * 4 + int(self.ap))


@dataclass
class TlbStats:
    hits: int = 0
    misses: int = 0
    flushes: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def snapshot(self) -> "TlbStats":
        return TlbStats(self.hits, self.misses, self.flushes)


class Tlb:
    """LRU, set-associative, ASID-aware."""

    def __init__(self, params: TlbParams) -> None:
        self.params = params
        self._sets: list[list[TlbEntry]] = [[] for _ in range(params.sets)]
        self._nsets = params.sets
        self._ways = params.ways
        # Incrementally-maintained entry count: occupancy is read on every
        # sampled access, so it must not cost an O(sets) scan.
        self._resident = 0
        self.stats = TlbStats()

    def _set_of(self, vpn: int) -> list[TlbEntry]:
        return self._sets[vpn % self._nsets]

    def lookup(self, vpn: int, asid: int) -> TlbEntry | None:
        """Find a matching entry (global, or same-ASID); LRU-refresh on hit."""
        entries = self._set_of(vpn)
        for i, e in enumerate(entries):
            if e.vpn == vpn and (e.global_ or e.asid == asid):
                self.stats.hits += 1
                if i:
                    entries.pop(i)
                    entries.insert(0, e)
                return e
        self.stats.misses += 1
        return None

    def insert(self, entry: TlbEntry) -> None:
        entries = self._set_of(entry.vpn)
        # Replace any stale entry for the same (vpn, asid/global) key.
        for i, e in enumerate(entries):
            if e.vpn == entry.vpn and (e.global_ == entry.global_) \
                    and (e.global_ or e.asid == entry.asid):
                entries.pop(i)
                self._resident -= 1
                break
        if len(entries) >= self._ways:
            entries.pop()
            self._resident -= 1
        entries.insert(0, entry)
        self._resident += 1

    # -- maintenance (targets of TLB-op hypercalls) -----------------------

    def flush_all(self) -> None:
        for s in self._sets:
            s.clear()
        self._resident = 0
        self.stats.flushes += 1

    def flush_asid(self, asid: int) -> int:
        """Drop all non-global entries of one ASID; returns count dropped."""
        n = 0
        for s in self._sets:
            keep = [e for e in s if e.global_ or e.asid != asid]
            n += len(s) - len(keep)
            s[:] = keep
        self._resident -= n
        self.stats.flushes += 1
        return n

    def flush_va(self, vpn: int, asid: int) -> bool:
        """Drop one page's entry (the kernel does this after unmapping)."""
        entries = self._set_of(vpn)
        for i, e in enumerate(entries):
            if e.vpn == vpn and (e.global_ or e.asid == asid):
                entries.pop(i)
                self._resident -= 1
                return True
        return False

    def clear_random_sets(self, frac: float, rng) -> int:
        """Statistical pressure model (see CacheLevel.clear_random_sets)."""
        n_sets = max(1, int(self._nsets * frac))
        dropped = 0
        for idx in rng.choice(self._nsets, size=n_sets, replace=False):
            dropped += len(self._sets[idx])
            self._sets[idx].clear()
        self._resident -= dropped
        return dropped

    @property
    def resident(self) -> int:
        return self._resident
