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
from ..guest.actions import Compute, Delay, Finish
from ..guest.ucos import Ucos
from .profiles import ADPCM_BLOCK, GSM_FRAME, WorkProfile


@dataclass
class WorkloadStats:
    units: int = 0


def _regions(ws_base: int, profile: WorkProfile) -> tuple[tuple[int, int], ...]:
    return ((ws_base, profile.ws_bytes),
            (GL.KERNEL_DATA, 8 * 1024))          # OS structures it touches


def _unit_task(profile: WorkProfile, ws_base: int, units: int | None,
               rest_every: int, stats: WorkloadStats | None):
    """One ``Compute`` of ``profile`` per unit, a ``Delay(1)`` after every
    ``rest_every`` units, and ``Finish`` after ``units`` (never when
    ``None``)."""
    st = stats if stats is not None else WorkloadStats()
    unit = Compute(profile.instrs, profile.mem_accesses,
                   _regions(ws_base, profile), profile.write_frac)

    def fn(os: Ucos):
        n = 0
        while units is None or n < units:
            yield unit
            st.units += 1
            n += 1
            if n % rest_every == 0:
                yield Delay(1)       # wait for the next input buffer
        yield Finish()

    return fn


def make_gsm_task(*, ws_base: int = GL.USER_BASE, frames: int | None = None,
                  rest_every: int = 8, stats: WorkloadStats | None = None):
    """GSM-style speech encoding: one 20 ms frame per work unit."""
    return _unit_task(GSM_FRAME, ws_base, frames, rest_every, stats)


def make_adpcm_task(*, ws_base: int = GL.USER_BASE + 0x40000,
                    blocks: int | None = None, rest_every: int = 12,
                    stats: WorkloadStats | None = None):
    """IMA-ADPCM compression: one 1024-sample block per work unit."""
    return _unit_task(ADPCM_BLOCK, ws_base, blocks, rest_every, stats)
