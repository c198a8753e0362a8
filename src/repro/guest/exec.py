"""Guest execution helper: timed code blocks and sampled bulk memory traffic.

Workload tasks execute millions of instructions; tracing every access is
prohibitive, so :meth:`GuestExecutor.bulk` drives a 1/``bulk_sample``
subsample of the task's memory stream through the *real* MMU/TLB/cache
models — polluting them exactly like a real working set — and extrapolates
the stream's total memory latency from the sampled mean.
:meth:`GuestExecutor.word` is one read-modify-write of a fixed word (the
uC/OS-II idle task's ``OSIdleCtr++``), and :meth:`GuestExecutor.spin` runs
that chunk back to back with the same charges, in one step
(docs/PERFORMANCE.md §2).
"""

from __future__ import annotations

import math

import numpy as np

from ..common.errors import SimulationError
from ..common.rng import make_rng
from ..cpu.core import Cpu


class GuestExecutor:
    """Bound to one guest (its address base and RNG stream)."""

    def __init__(self, cpu: Cpu, *, addr_base: int = 0, seed: int | None = None,
                 stream: str = "guest") -> None:
        self.cpu = cpu
        self.addr_base = addr_base
        self.rng = make_rng(seed, stream=stream)
        self.sample = cpu.params.bulk_sample
        self._line = cpu.params.l1d.line
        #: Offset alignment mask per draw of 0..2 (see _gen_addrs).
        self._align_masks = np.array([-4, -self._line, -self._line],
                                     dtype=np.int64)
        # Per-regions-tuple precomputed region weights: region tuples are
        # tiny and repeat for every chunk of the same task, and rebuilding
        # them cost more than the draws they weight.
        self._region_cache: dict[tuple, tuple] = {}

    def code(self, va: int, n_instr: int) -> None:
        """Timed straight-line code at a guest address."""
        self.cpu.code(self.addr_base + va, n_instr)

    def bulk(self, instrs: int, mem_accesses: int,
             regions: tuple[tuple[int, int], ...],
             write_frac: float = 0.3) -> None:
        """One workload chunk: issue cost + sampled memory stream.

        Each sampled address falls in a region picked with probability
        proportional to its size, at a uniform offset aligned to a line
        start (2 samples in 3) or to a word (the rest).  Samples are
        independent: none continues from the one before, so the sampled
        stream has no spatial locality beyond the regions' sizes.
        """
        cpu = self.cpu
        cpu.instr(instrs)
        if mem_accesses <= 0 or not regions:
            return
        n_sample = max(1, mem_accesses // self.sample)
        vaddrs = self._gen_addrs(n_sample, regions)
        writes = self.rng.random(n_sample) < write_frac
        extra = cpu.mem.sample_block(
            vaddrs.tolist(), write_mask=writes.tolist(),
            privileged=cpu.privileged,
            scale=max(1, mem_accesses // n_sample))
        # sample_block returns extrapolated latency for the whole stream.
        cpu._charge(extra)

    def word(self, instrs: int, mem_accesses: int, va: int) -> None:
        """One chunk of ``instrs`` instructions around one read-modify-write
        of the word at ``va``, sampled as one write of scale
        ``mem_accesses``.  It draws nothing."""
        cpu = self.cpu
        cpu.instr(instrs)
        cpu._charge(cpu.mem.sample_block(
            [self.addr_base + va], write_mask=[True],
            privileged=cpu.privileged, scale=mem_accesses))

    def spin(self, instrs: int, mem_accesses: int, va: int,
             until: int | float) -> int:
        """Run the chunk ``word(instrs, mem_accesses, va)`` back to back,
        without the runner's poll in between; returns how many chunks ran
        (at least one).

        The run ends after the chunk that reaches ``until`` or
        ``Simulator.next_due()``, so the caller's poll after it is the
        first that could fire anything, or after one chunk when an IRQ is
        pending, since that poll returns.  When the first chunk's write
        hits (``MemorySystem.repeat_mru_hit``), every chunk up to there
        changes the same state in the same way, so all ``k`` are booked in
        one step; otherwise that one chunk runs through ``sample_block``.
        """
        cpu = self.cpu
        mem = cpu.mem
        now = cpu.sim.now
        stop = now if cpu.irq_pending() else min(until, cpu.sim.next_due())
        if stop == math.inf:
            raise SimulationError("idle spin with no deadline and no event "
                                  "pending: it would never end")
        cycles = (cpu.timing.instr_cycles(instrs)
                  + mem.caches._lat_l1 * mem_accesses)
        k = max(1, -(-(stop - now) // cycles))
        if mem.repeat_mru_hit(self.addr_base + va, k,
                              privileged=cpu.privileged, write=True,
                              scale=mem_accesses):
            cpu._charge(k * cycles)
            return k
        self.word(instrs, mem_accesses, va)
        return 1

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
            cached = (bases, spans, cdf)
            self._region_cache[regions] = cached
        return cached

    def _gen_addrs(self, n: int, regions: tuple[tuple[int, int], ...]) -> np.ndarray:
        rng = self.rng
        # Pick a region per sample, weighted by size.  The weighted pick
        # inlines numpy's own replace=True implementation of
        # ``rng.choice(k, size=n, p=weights)`` — one uniform draw searched
        # against the weight CDF — so it consumes the identical random
        # stream while the CDF is computed once per regions tuple.  The
        # region and offset draws come from one call: the generator fills
        # an array in order, so this equals two draws of n.
        bases, spans, cdf = self._regions(regions)
        u = rng.random(2 * n)
        region_idx = cdf.searchsorted(u[:n], side="right")
        offsets = (u[n:] * spans[region_idx]).astype(np.int64)
        # Align an offset to a word when its draw of 0..2 is 0, else to a
        # line start: for o >= 0 and a power-of-two line, o & -line is
        # (o // line) * line and o & -4 is o & ~3.
        offsets &= self._align_masks[rng.integers(0, 3, size=n)]
        offsets += bases[region_idx]
        return offsets
