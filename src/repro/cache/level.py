"""One set-associative, physically-tagged, write-back cache level.

The model tracks tags and dirty bits only (contents live in the functional
memory model); it exists to produce *timing* — hits, misses, evictions and
writebacks — which is what Table III's trends are made of.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..common.params import CacheParams


@dataclass
class CacheStats:
    """Counters for one cache level."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def snapshot(self) -> "CacheStats":
        return CacheStats(self.hits, self.misses, self.evictions, self.writebacks)


class CacheLevel:
    """LRU set-associative cache with write-back / write-allocate policy."""

    def __init__(self, params: CacheParams, name: str = "cache") -> None:
        self.params = params
        self.name = name
        self._offset_bits = params.line.bit_length() - 1
        self._sets = params.sets
        self._ways = params.ways
        # Per set: list of line tags, most-recently-used first.
        self._tags: list[list[int]] = [[] for _ in range(self._sets)]
        # The dirty lines' tags.  A tag is the whole line number, so it
        # names its set too: one set per level, not one per cache set.
        self._dirty: set[int] = set()
        # Incrementally-maintained line count; the occupancy ratio is read
        # on every sampled access (MemorySystem.sample_block), so it must
        # not cost an O(sets) scan.
        self._resident = 0
        self.stats = CacheStats()

    # -- address helpers -------------------------------------------------

    def _index(self, paddr: int) -> tuple[int, int]:
        line = paddr >> self._offset_bits
        return line % self._sets, line

    # -- core operations ---------------------------------------------------

    def probe(self, paddr: int) -> bool:
        """True when the line is present (no state change)."""
        setidx, tag = self._index(paddr)
        return tag in self._tags[setidx]

    def fill(self, paddr: int, *, write: bool = False) -> int | None:
        """Insert/refresh a line; returns dirty victim line address if any."""
        setidx, tag = self._index(paddr)
        ways = self._tags[setidx]
        victim_wb: int | None = None
        if tag in ways:
            if ways[0] != tag:
                ways.remove(tag)
                ways.insert(0, tag)
        else:
            if len(ways) >= self._ways:
                victim = ways.pop()
                self.stats.evictions += 1
                self._resident -= 1
                if victim in self._dirty:
                    self._dirty.discard(victim)
                    self.stats.writebacks += 1
                    victim_wb = victim
            ways.insert(0, tag)
            self._resident += 1
        if write:
            self._dirty.add(tag)
        return victim_wb

    def lookup(self, paddr: int, *, write: bool = False) -> tuple[bool, int | None]:
        """Probe + fill in one step, with correct hit/miss accounting.

        Fused single-set-scan formulation of ``probe`` + ``fill`` — the
        hot path of every modelled access (docs/PERFORMANCE.md §2).
        """
        line = paddr >> self._offset_bits
        setidx = line % self._sets
        tag = line
        ways = self._tags[setidx]
        victim_wb: int | None = None
        if tag in ways:
            self.stats.hits += 1
            hit = True
            if ways[0] != tag:
                ways.remove(tag)
                ways.insert(0, tag)
        else:
            self.stats.misses += 1
            hit = False
            if len(ways) >= self._ways:
                victim = ways.pop()
                self.stats.evictions += 1
                self._resident -= 1
                if victim in self._dirty:
                    self._dirty.discard(victim)
                    self.stats.writebacks += 1
                    victim_wb = victim
            ways.insert(0, tag)
            self._resident += 1
        if write:
            self._dirty.add(tag)
        return hit, victim_wb

    # -- maintenance -------------------------------------------------------

    def invalidate_all(self) -> None:
        """Drop every line without writing back (as after a reset)."""
        for s in self._tags:
            s.clear()
        self._dirty.clear()
        self._resident = 0

    def clean_invalidate_all(self) -> int:
        """Write back all dirty lines and drop everything; returns WB count."""
        wb = len(self._dirty)
        self.stats.writebacks += wb
        self.invalidate_all()
        return wb

    def invalidate_line(self, paddr: int) -> bool:
        """Drop one line if present; returns True when it was present."""
        setidx, tag = self._index(paddr)
        ways = self._tags[setidx]
        if tag in ways:
            ways.remove(tag)
            self._dirty.discard(tag)
            self._resident -= 1
            return True
        return False

    def clear_random_sets(self, frac: float, rng) -> int:
        """Statistical pressure model: drop every line of a random ``frac``
        of the sets (used to amplify sampled workload traffic back to the
        full stream's fill rate — see MemorySystem.sample_block).  Returns
        the number of lines dropped."""
        n_sets = max(1, int(self._sets * frac))
        dropped = 0
        dirty = self._dirty
        for idx in rng.choice(self._sets, size=n_sets, replace=False):
            ways = self._tags[idx]
            dropped += len(ways)
            dirty.difference_update(ways)
            ways.clear()
        self.stats.evictions += dropped
        self._resident -= dropped
        return dropped

    @property
    def resident_lines(self) -> int:
        return self._resident
