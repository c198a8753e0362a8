"""T_hw: the measurement task of Section V-B.

"Each guest OS is running multiple tasks, and particularly a special task
(T_hw) programmed to invoke hardware task requests.  Each time it
executes, it randomly selects a hardware task from the hardware task set
and generates a hardware task hypercall for this task."

The task optionally verifies every hardware result against the DSP golden
model — through the whole request/map/hwMMU/DMA/IRQ pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..common.rng import make_rng
from ..dsp import fft as fft_golden
from ..dsp import qam as qam_golden
from ..guest import api
from ..guest.actions import Delay, Finish
from ..guest.ucos import Ucos
from ..kernel.hypercalls import HcStatus

#: The two hardware task sets of Fig. 8.
DEFAULT_TASK_SET = ("fft256", "fft512", "fft1024", "fft2048", "fft4096",
                    "fft8192", "qam4", "qam16", "qam64")


@dataclass
class ThwStats:
    requests: int = 0
    completions: int = 0
    busy: int = 0
    errors: int = 0
    reconfigs: int = 0
    retries: int = 0
    verified_ok: int = 0
    verified_bad: int = 0
    by_task: dict = field(default_factory=dict)


def _make_input(rng: np.random.Generator, task: str) -> bytes:
    if task.startswith("fft"):
        n = int(task[3:])
        x = (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        return x.astype(np.complex64).tobytes()
    # QAM: one 1 KB burst of bits.
    return rng.integers(0, 256, size=1024, dtype=np.uint8).tobytes()


def _verify(task: str, data_in: bytes, data_out: bytes) -> bool:
    if task.startswith("fft"):
        n = int(task[3:])
        x = np.frombuffer(data_in, dtype=np.complex64)[:n]
        got = np.frombuffer(data_out, dtype=np.complex64)[:n]
        want = fft_golden.fft(x)
        return bool(np.allclose(got, want, rtol=1e-3, atol=1e-2))
    order = int(task[3:])
    syms = qam_golden.pack_bits_to_symbols(data_in, order)
    want = qam_golden.modulate(syms, order)
    got = np.frombuffer(data_out, dtype=np.complex64)[:len(want)]
    return bool(np.allclose(got, want, rtol=1e-4, atol=1e-5))


def make_t_hw_task(task_directory: dict[str, int], *,
                   stats: ThwStats,
                   task_set: tuple[str, ...] = DEFAULT_TASK_SET,
                   seed: int = 0,
                   use_irq: bool = True,
                   verify: bool = False,
                   iterations: int | None = None):
    """Build the T_hw task function: one request every two ticks.

    ``task_directory`` maps task names to Hardware-Task-Table IDs (built by
    the scenario from the installed bitstreams).
    """

    def fn(os: Ucos):
        rng = make_rng(seed, stream=f"t_hw-{os.name}")
        sem = os.create_semaphore(f"hw-done-{os.name}") if use_irq else None
        n = 0
        while iterations is None or n < iterations:
            task = str(rng.choice(task_set))
            data_in = _make_input(rng, task)
            stats.requests += 1
            handle = yield from api.hw_task_run(
                os, task_directory[task], task, data_in, sem=sem)
            stats.retries += handle.retries
            per = stats.by_task.setdefault(task, {"ok": 0, "busy": 0, "err": 0})
            if handle.status == HcStatus.SUCCESS:
                stats.completions += 1
                per["ok"] += 1
                if handle.reconfigured:
                    stats.reconfigs += 1
                if verify:
                    if _verify(task, data_in, handle.output):
                        stats.verified_ok += 1
                    else:
                        stats.verified_bad += 1
            elif handle.status == HcStatus.BUSY:
                stats.busy += 1
                per["busy"] += 1
            else:
                stats.errors += 1
                per["err"] += 1
            n += 1
            yield Delay(2)
        yield Finish()

    return fn
