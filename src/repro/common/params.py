"""Platform parameter sets (timing model + geometry) for the simulated Zynq-7000.

Every constant the timing model depends on lives here so that benches and
ablations can vary one knob at a time.  Defaults follow Section V of the
paper (660 MHz Cortex-A9, 32 KB L1 I/D, 512 KB L2, 512 MB DDR) plus public
Zynq-7000 numbers (UG585) where the paper is silent.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import DeviceError
from .units import CPU_HZ_DEFAULT, FPGA_HZ_DEFAULT, KB, MB


@dataclass(frozen=True)
class CacheParams:
    """Geometry of one cache level (hit latencies live in
    :class:`CpuTiming`)."""

    size: int
    ways: int
    line: int = 32

    def __post_init__(self) -> None:
        if self.size % (self.ways * self.line):
            raise DeviceError(f"cache size {self.size} not divisible by ways*line")
        if self.line & (self.line - 1):
            raise DeviceError("cache line size must be a power of two")

    @property
    def sets(self) -> int:
        return self.size // (self.ways * self.line)


@dataclass(frozen=True)
class TlbParams:
    """Geometry of the (main) TLB; Cortex-A9 main TLB is 2-way, 128 entries."""

    entries: int = 128
    ways: int = 2

    def __post_init__(self) -> None:
        if self.entries % self.ways:
            raise DeviceError("TLB entries must divide evenly into ways")

    @property
    def sets(self) -> int:
        return self.entries // self.ways


@dataclass(frozen=True)
class CpuTiming:
    """Instruction/memory timing model (Section 5 of DESIGN.md)."""

    hz: int = CPU_HZ_DEFAULT
    #: Cycles per straight-line instruction (dual-issue A9 approximated).
    cpi_milli: int = 750            # CPI * 1000 to keep integer math
    l1_hit: int = 1
    l2_hit: int = 8
    dram: int = 60
    #: Pipeline-flush style penalty charged on every exception entry/return.
    exception_entry: int = 18
    exception_return: int = 12

    def instr_cycles(self, n_instr: int) -> int:
        """Issue cost for ``n_instr`` straight-line instructions."""
        return max(1, (n_instr * self.cpi_milli + 999) // 1000) if n_instr else 0


@dataclass(frozen=True)
class MemoryMapParams:
    """Physical memory layout of the modelled platform."""

    dram_base: int = 0x0010_0000
    dram_size: int = 512 * MB
    #: PRR controller register window (AXI_GP mapped), one 4 KB page per PRR.
    prr_reg_base: int = 0x4000_0000


@dataclass(frozen=True)
class FpgaParams:
    """PL-side parameters."""

    hz: int = FPGA_HZ_DEFAULT
    #: PCAP effective throughput, bytes/second (measured ~145 MB/s on Zynq).
    pcap_bytes_per_sec: int = 145 * MB
    #: AXI_HP burst bandwidth, bytes per FPGA cycle.
    axi_hp_bytes_per_cycle: int = 8
    #: DMA setup latency per transfer, FPGA cycles.
    dma_setup_cycles: int = 20
    #: hwMMU bounds check, FPGA cycles per transfer (ablation knob).
    hwmmu_check_cycles: int = 2


@dataclass(frozen=True)
class PlatformParams:
    """Aggregate of every tunable in the simulated platform."""

    cpu: CpuTiming = field(default_factory=CpuTiming)
    l1i: CacheParams = field(default_factory=lambda: CacheParams(size=32 * KB, ways=4))
    l1d: CacheParams = field(default_factory=lambda: CacheParams(size=32 * KB, ways=4))
    l2: CacheParams = field(default_factory=lambda: CacheParams(size=512 * KB, ways=8))
    tlb: TlbParams = field(default_factory=TlbParams)
    memmap: MemoryMapParams = field(default_factory=MemoryMapParams)
    fpga: FpgaParams = field(default_factory=FpgaParams)
    #: Sampling divisor for bulk (workload) memory traffic; 1 = trace every access.
    bulk_sample: int = 64
    #: Simulation-engine fast path (docs/PERFORMANCE.md): fused access
    #: loops + memoized page walks.  Cycle-for-cycle identical to the slow
    #: path; off exists for differential testing, not as a safety valve.
    fastpath: bool = True

    def __post_init__(self) -> None:
        # The data-run loop (MemorySystem._data_run) takes an L2 tag from
        # an L1D tag by a right shift.
        if self.l2.line < self.l1d.line:
            raise DeviceError(f"L2 line ({self.l2.line} B) is shorter than "
                              f"the L1D line ({self.l1d.line} B)")

    def with_(self, **kw) -> "PlatformParams":
        """Return a copy with top-level fields replaced."""
        return replace(self, **kw)


DEFAULT_PARAMS = PlatformParams()
