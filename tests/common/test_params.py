"""Platform-parameter validation."""

import pytest

from repro.common.errors import DeviceError
from repro.common.params import (
    CacheParams,
    CpuTiming,
    DEFAULT_PARAMS,
    PlatformParams,
    TlbParams,
)


def test_default_geometry_matches_paper_platform():
    p = DEFAULT_PARAMS
    assert p.cpu.hz == 660_000_000
    assert p.l1i.size == 32 * 1024 and p.l1d.size == 32 * 1024
    assert p.l2.size == 512 * 1024


def test_cache_sets_computed():
    c = CacheParams(size=32 * 1024, ways=4, line=32)
    assert c.sets == 256


def test_cache_params_validation():
    with pytest.raises(DeviceError):
        CacheParams(size=1000, ways=3, line=32)   # not divisible
    with pytest.raises(DeviceError):
        CacheParams(size=32 * 1024, ways=4, line=33)  # non-pow2 line


def test_tlb_params():
    t = TlbParams(entries=128, ways=2)
    assert t.sets == 64
    with pytest.raises(DeviceError):
        TlbParams(entries=127, ways=2)


def test_instr_cycles_uses_cpi():
    t = CpuTiming()
    assert t.instr_cycles(0) == 0
    assert t.instr_cycles(1) == 1
    # CPI 0.75: 1000 instructions -> 750 cycles.
    assert t.instr_cycles(1000) == 750


def test_with_override():
    p = DEFAULT_PARAMS.with_(bulk_sample=8)
    assert p.bulk_sample == 8
    assert DEFAULT_PARAMS.bulk_sample == 64   # original untouched
    assert isinstance(p, PlatformParams)
