"""Unit helpers: cycles <-> time, sizes, and address formatting.

All simulated time is kept in integer *CPU cycles* (the finest clock in the
system); conversions to microseconds happen only at reporting boundaries so
no floating-point drift accumulates inside the simulation.
"""

from __future__ import annotations

KB = 1024
MB = 1024 * KB

#: Default CPU frequency of the modelled Zynq-7000 PS (paper: 660 MHz).
CPU_HZ_DEFAULT = 660_000_000

#: Default PL (FPGA fabric) frequency.
FPGA_HZ_DEFAULT = 100_000_000


def cycles_to_us(cycles: int, hz: int = CPU_HZ_DEFAULT) -> float:
    """Convert CPU cycles to microseconds."""
    return cycles * 1e6 / hz


def cycles_to_ms(cycles: int, hz: int = CPU_HZ_DEFAULT) -> float:
    """Convert CPU cycles to milliseconds."""
    return cycles * 1e3 / hz


def ms_to_cycles(ms: float, hz: int = CPU_HZ_DEFAULT) -> int:
    """Convert milliseconds to (rounded) CPU cycles."""
    return round(ms * hz / 1e3)


def fpga_cycles_to_cpu_cycles(fpga_cycles: int, cpu_hz: int = CPU_HZ_DEFAULT,
                              fpga_hz: int = FPGA_HZ_DEFAULT) -> int:
    """Convert PL-clock cycles into the CPU-cycle timebase (rounded up)."""
    return -(-fpga_cycles * cpu_hz // fpga_hz)


def is_aligned(addr: int, align: int) -> bool:
    """True when ``addr`` is a multiple of ``align`` (power of two)."""
    return (addr & (align - 1)) == 0


def hexaddr(addr: int) -> str:
    """Format an address the way the rest of the docs do."""
    return f"{addr:#010x}"
