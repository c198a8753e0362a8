"""Guest application tasks: the heavy workloads of Section V.

Each factory returns a task function for :meth:`Ucos.create_task`.  In the
paper, GSM encoding and ADPCM compression run in each guest only as
cache-polluting background load for Table III.  Here a task is the
simulated load alone: one :class:`Compute` per work unit, sized by the
profiles in :mod:`repro.workloads.profiles`, whose working sets
``GuestExecutor.bulk`` drives through the MMU and caches.  No codec runs
on the host and no task draws random numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..guest import layout_guest as GL
from ..guest.actions import Compute, Delay
from ..guest.ucos import Ucos
from .profiles import ADPCM_BLOCK, GSM_FRAME, WorkProfile


@dataclass
class WorkloadStats:
    units: int = 0


def _regions(ws_base: int, profile: WorkProfile) -> tuple[tuple[int, int], ...]:
    return ((ws_base, profile.ws_bytes),
            (GL.KERNEL_DATA, 8 * 1024))          # OS structures it touches


def _unit_task(profile: WorkProfile, ws_base: int, rest_every: int,
               stats: WorkloadStats):
    """One ``Compute`` of ``profile`` per unit, forever, and a
    ``Delay(1)`` after every ``rest_every`` units."""
    unit = Compute(profile.instrs, profile.mem_accesses,
                   _regions(ws_base, profile), profile.write_frac)

    def fn(os: Ucos):
        n = 0
        while True:
            yield unit
            stats.units += 1
            n += 1
            if n % rest_every == 0:
                yield Delay(1)       # wait for the next input buffer

    return fn


def make_gsm_task(*, stats: WorkloadStats):
    """GSM-style speech encoding: one 20 ms frame per work unit."""
    return _unit_task(GSM_FRAME, GL.USER_BASE, 8, stats)


def make_adpcm_task(*, stats: WorkloadStats):
    """IMA-ADPCM compression: one 1024-sample block per work unit."""
    return _unit_task(ADPCM_BLOCK, GL.USER_BASE + 0x40000, 12, stats)
