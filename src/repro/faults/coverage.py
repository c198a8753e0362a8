"""Recovery-path coverage: fingerprint runs by which hardened paths fired.

The explorer's oracle says *nothing broke*; coverage says *the right
things were exercised*.  Each executed schedule yields a fingerprint —
the set of :data:`~repro.faults.registry.RECOVERY_PATHS` whose metrics
moved plus the set of sites that actually fired — and the tracker
accumulates them into a coverage map used three ways:

* **dedupe**: a schedule whose (site, path) pairs are all already
  covered is not *novel*; the explorer logs it but spends its remaining
  budget on schedules predicted to add coverage;
* **prioritisation**: candidate two-fault combinations are ranked by
  how many still-uncovered expected paths they would touch;
* **the gate**: the final report carries per-site and per-path fire
  counts and the coverage fraction the CI floor is asserted against.

Everything is plain counting over sorted names — deterministic by
construction.
"""

from __future__ import annotations

from typing import Any, Iterable

from .registry import ALL_SITES, RECOVERY_PATHS, SITES


def paths_fired(totals) -> tuple[str, ...]:
    """The recovery paths whose metric moved, given a ``totals`` callable
    (metric name -> label-summed total)."""
    fired = []
    for name, path in RECOVERY_PATHS.items():
        if totals(path.metric) > 0:
            fired.append(name)
    return tuple(sorted(fired))


class CoverageTracker:
    """Accumulates site/path coverage across executed schedules."""

    def __init__(self) -> None:
        self.site_fires: dict[str, int] = {s: 0 for s in ALL_SITES}
        self.path_fires: dict[str, int] = {p: 0 for p in RECOVERY_PATHS}
        #: (site, path) pairs observed together in one run.
        self.pairs: set[tuple[str, str]] = set()
        #: Distinct whole-run fingerprints (frozenset of fired paths).
        self.fingerprints: set[frozenset[str]] = set()
        self.observed = 0
        self.novel = 0

    # -- accumulation ---------------------------------------------------

    def observe(self, sites: Iterable[str], paths: Iterable[str]) -> bool:
        """Fold one run in; returns True iff it added novel coverage
        (a new (site, path) pair or a new whole-run path fingerprint)."""
        sites = tuple(sorted(set(sites)))
        paths = tuple(sorted(set(paths)))
        self.observed += 1
        new = False
        fp = frozenset(paths)
        if fp and fp not in self.fingerprints:
            self.fingerprints.add(fp)
            new = True
        for s in sites:
            self.site_fires[s] = self.site_fires.get(s, 0) + 1
        for p in paths:
            self.path_fires[p] = self.path_fires.get(p, 0) + 1
        for s in sites:
            for p in paths:
                if (s, p) not in self.pairs:
                    self.pairs.add((s, p))
                    new = True
        if new:
            self.novel += 1
        return new

    # -- prioritisation -------------------------------------------------

    def predicted_gain(self, sites: Iterable[str]) -> int:
        """How many still-uncovered expected paths a schedule over
        ``sites`` could reach (the pair-ranking score)."""
        gain = 0
        for s in sites:
            for p in SITES[s].recovery_paths:
                if self.path_fires.get(p, 0) == 0:
                    gain += 2           # a brand-new path is worth more
                elif (s, p) not in self.pairs:
                    gain += 1
        return gain

    # -- the gate -------------------------------------------------------

    def sites_covered(self) -> tuple[str, ...]:
        return tuple(s for s in ALL_SITES if self.site_fires.get(s, 0) > 0)

    def paths_covered(self) -> tuple[str, ...]:
        return tuple(p for p in RECOVERY_PATHS
                     if self.path_fires.get(p, 0) > 0)

    def site_fraction(self) -> float:
        return len(self.sites_covered()) / max(1, len(ALL_SITES))

    def path_fraction(self) -> float:
        return len(self.paths_covered()) / max(1, len(RECOVERY_PATHS))

    def report(self, *, floor: float) -> dict[str, Any]:
        """The JSON coverage report (docs/FAULTS.md §5)."""
        return {
            "sites": {s: self.site_fires.get(s, 0) for s in ALL_SITES},
            "paths": {p: self.path_fires.get(p, 0) for p in RECOVERY_PATHS},
            "uncovered_sites": [s for s in ALL_SITES
                                if self.site_fires.get(s, 0) == 0],
            "uncovered_paths": [p for p in RECOVERY_PATHS
                                if self.path_fires.get(p, 0) == 0],
            "site_fraction": round(self.site_fraction(), 4),
            "path_fraction": round(self.path_fraction(), 4),
            "distinct_fingerprints": len(self.fingerprints),
            "novel_schedules": self.novel,
            "observed_schedules": self.observed,
            "floor": floor,
            "floor_ok": (self.site_fraction() >= 1.0
                         and self.path_fraction() >= floor),
        }
