"""Unit conversions and alignment helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.common import units


def test_cycles_to_us_at_660mhz():
    assert units.cycles_to_us(660) == pytest.approx(1.0)
    assert units.cycles_to_us(660_000_000) == pytest.approx(1e6)


def test_ms_to_cycles_quantum():
    # The paper's 33 ms quantum at 660 MHz.
    assert units.ms_to_cycles(33.0) == 21_780_000


def test_fpga_cycle_conversion_rounds_up():
    # 100 MHz PL on a 660 MHz CPU: 1 PL cycle = 6.6 CPU cycles -> 7.
    assert units.fpga_cycles_to_cpu_cycles(1) == 7
    assert units.fpga_cycles_to_cpu_cycles(10) == 66


def test_align_helpers():
    assert units.is_aligned(0x2000, 0x1000)
    assert not units.is_aligned(0x2004, 0x1000)


@given(st.integers(min_value=0, max_value=10**12))
def test_time_conversion_monotone(cycles):
    assert units.cycles_to_us(cycles) >= 0
    assert units.cycles_to_ms(cycles) == pytest.approx(units.cycles_to_us(cycles) / 1000)
