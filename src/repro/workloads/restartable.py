"""Checkpoint-aware restartable DSP workloads (docs/RECOVERY.md §9).

A restartable task computes a sequence of independent DSP frames (FFT or
QAM, against the golden models of :mod:`repro.dsp`), writes each result
into a dedicated slice of the hardware-task data section, records its
progress in the OS persistence scratchpad (``os.persist``) and then asks
the hypervisor for a checkpoint (``HC_VM_CHECKPOINT``).  Because every
frame's input is regenerated from a per-frame RNG stream, the output
region is bit-identical whether the VM ran uninterrupted, was killed and
restarted fresh, or was resurrected from a checkpoint and resumed at the
recorded frame — which is exactly what the lifecycle acceptance test
asserts.  Frame ``i`` lands in slot ``i mod RESTART_SLOTS``, so an
open-ended loop (a fleet tenant's service task, docs/FLEET.md) wraps
around the finite region instead of outgrowing the section.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..common.rng import make_rng
from ..dsp import fft as fft_golden
from ..dsp import qam as qam_golden
from ..guest.actions import Delay, Finish, Hypercall, SectionWrite
from ..guest.ucos import Ucos
from ..kernel.hypercalls import Hc

#: Output slice inside the 512 KB hw-data section, above the request
#: API's DATA_IN/DATA_OUT staging areas (repro.guest.api): 384 KB base,
#: one 4 KB slot per frame.
RESTART_OUT_OFF = 0x6_0000
FRAME_SLOT = 4096
#: Slots in the 128 KB output slice (RESTART_OUT_OFF .. end of the
#: section); frame ``i`` uses slot ``i % RESTART_SLOTS``.
RESTART_SLOTS = 32

#: Per-kind frame shapes (both well under one slot).
FFT_POINTS = 256          # 256 x complex64 = 2 KB per frame
QAM_ORDER = 16
QAM_BYTES_IN = 128        # -> 256 symbols -> 2 KB of complex64 points


@dataclass
class RestartableStats:
    frames_done: int = 0
    resumed_at: int = -1     # first frame index computed by this incarnation


def _frame_bytes(kind: str, seed: int, i: int) -> bytes:
    """Golden output of frame ``i`` — a pure function of (kind, seed, i),
    so a restarted incarnation reproduces it exactly."""
    rng = make_rng(seed, stream=f"restartable-{kind}-{i}")
    if kind == "fft":
        x = (rng.standard_normal(FFT_POINTS)
             + 1j * rng.standard_normal(FFT_POINTS)).astype(np.complex64)
        return fft_golden.fft(x).astype(np.complex64).tobytes()
    if kind == "qam":
        data = rng.integers(0, 256, size=QAM_BYTES_IN,
                            dtype=np.uint8).tobytes()
        syms = qam_golden.pack_bits_to_symbols(data, QAM_ORDER)
        return qam_golden.modulate(syms, QAM_ORDER).astype(
            np.complex64).tobytes()
    raise ValueError(f"unknown restartable kind {kind!r}")


def make_restartable_task(kind: str, *, frames: int = 8, seed: int = 0,
                          checkpoint_every: int = 1,
                          stats: RestartableStats | None = None):
    """Task factory for :meth:`Ucos.create_task`.

    ``kind`` is ``"fft"`` or ``"qam"``.  Progress lives under
    ``os.persist["frame"]``; a fresh incarnation (empty persist) starts
    at frame 0, a checkpoint-restored one resumes where the last
    checkpoint left off.  ``frames`` may exceed :data:`RESTART_SLOTS`:
    later frames overwrite the slots of earlier ones.
    """
    if kind not in ("fft", "qam"):
        raise ValueError(f"unknown restartable kind {kind!r}")
    st = stats if stats is not None else RestartableStats()

    def fn(os: Ucos):
        start = int(os.persist.get("frame", 0))
        st.resumed_at = start
        for i in range(start, frames):
            out = _frame_bytes(kind, seed, i)
            slot = i % RESTART_SLOTS
            yield SectionWrite(RESTART_OUT_OFF + slot * FRAME_SLOT, out)
            os.persist["frame"] = i + 1
            st.frames_done += 1
            if checkpoint_every > 0 and (i + 1) % checkpoint_every == 0:
                # The snapshot captures the frames written so far plus
                # persist["frame"] = i + 1, so a restore resumes here.
                yield Hypercall(int(Hc.VM_CHECKPOINT), (0,))
            yield Delay(1)
        yield Finish()

    return fn


def expected_output(kind: str, *, frames: int = 8, seed: int = 0) -> bytes:
    """The full golden output region an uninterrupted run of ``frames``
    (at most :data:`RESTART_SLOTS`) produces; frame slots are
    zero-padded to ``FRAME_SLOT``."""
    chunks = []
    for i in range(frames):
        out = _frame_bytes(kind, seed, i)
        chunks.append(out + b"\x00" * (FRAME_SLOT - len(out)))
    return b"".join(chunks)


def read_output_region(kernel, pd, *, frames: int = 8) -> bytes:
    """The restartable output slice of ``pd``'s hw-data section as the
    DMA engine would see it (physical memory ground truth)."""
    base = pd.hw_data.pa + RESTART_OUT_OFF
    return bytes(kernel.mem.bus.dram.read_bytes(base, frames * FRAME_SLOT))
