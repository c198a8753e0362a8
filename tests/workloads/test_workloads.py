"""Workload factories: profiles, task action streams, T_hw helpers."""

import itertools

import numpy as np
import pytest

from repro.dsp import fft as fft_golden
from repro.dsp import qam as qam_golden
from repro.guest import layout_guest as GL
from repro.guest.actions import Compute, Delay
from repro.workloads.profiles import (
    ADPCM_BLOCK,
    GSM_FRAME,
    fft_sw_profile,
)
from repro.workloads.t_hw import ThwStats, _make_input, _verify
from repro.workloads.tasks import WorkloadStats, make_adpcm_task, make_gsm_task
from repro.common.rng import make_rng


def test_profiles_are_sized_sanely():
    # GSM is the heavy one; both fit the L2 regime DESIGN.md §5 describes.
    assert GSM_FRAME.instrs > ADPCM_BLOCK.instrs
    assert GSM_FRAME.ws_bytes > ADPCM_BLOCK.ws_bytes
    assert 0 < GSM_FRAME.write_frac < 1


def test_fft_sw_profile_scales():
    small, big = fft_sw_profile(256), fft_sw_profile(8192)
    assert big.instrs > small.instrs * 20
    assert big.mem_accesses > small.mem_accesses
    with pytest.raises(ValueError):
        fft_sw_profile(100)


class _FakeOs:
    name = "fake"


def _first_actions_without_rng(monkeypatch, fn, n):
    """The first ``n`` actions of the task ``fn``; creating a generator
    fails."""
    def no_rng(*args, **kwargs):
        raise AssertionError("a workload task created an RNG")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    monkeypatch.setattr(np.random, "SeedSequence", no_rng)
    return list(itertools.islice(fn(_FakeOs()), n))


def _unit(profile, ws_base):
    return Compute(profile.instrs, profile.mem_accesses,
                   ((ws_base, profile.ws_bytes), (GL.KERNEL_DATA, 8 * 1024)),
                   profile.write_frac)


def test_gsm_task_yields_compute_and_rests(monkeypatch):
    stats = WorkloadStats()
    fn = make_gsm_task(stats=stats)
    frame = _unit(GSM_FRAME, GL.USER_BASE)
    assert _first_actions_without_rng(monkeypatch, fn, 18) == (
        [frame] * 8 + [Delay(1)] + [frame] * 8 + [Delay(1)])
    assert stats.units == 16


def test_adpcm_task_yields_compute_and_rests(monkeypatch):
    stats = WorkloadStats()
    fn = make_adpcm_task(stats=stats)
    block = _unit(ADPCM_BLOCK, GL.USER_BASE + 0x40000)
    assert _first_actions_without_rng(monkeypatch, fn, 26) == (
        [block] * 12 + [Delay(1)] + [block] * 12 + [Delay(1)])
    assert stats.units == 24


def test_make_input_shapes():
    rng = make_rng(1, stream="x")
    fft_in = _make_input(rng, "fft1024")
    assert len(fft_in) == 1024 * 8
    qam_in = _make_input(rng, "qam16")
    assert len(qam_in) == 1024


@pytest.mark.parametrize("task", ["fft256", "fft2048", "qam4", "qam64"])
def test_verify_accepts_golden_output(task):
    rng = make_rng(2, stream=task)
    data = _make_input(rng, task)
    if task.startswith("fft"):
        n = int(task[3:])
        x = np.frombuffer(data, dtype=np.complex64)[:n]
        out = fft_golden.fft(x).tobytes()
    else:
        order = int(task[3:])
        syms = qam_golden.pack_bits_to_symbols(data, order)
        out = qam_golden.modulate(syms, order).tobytes()
    assert _verify(task, data, out)


def test_verify_rejects_corrupted_output():
    rng = make_rng(3, stream="v")
    data = _make_input(rng, "fft256")
    x = np.frombuffer(data, dtype=np.complex64)
    bad = (fft_golden.fft(x) + 1.0).tobytes()
    assert not _verify("fft256", data, bad)


def test_thw_stats_defaults():
    st = ThwStats()
    assert st.requests == 0 and st.by_task == {}
