"""Shared plumbing: units, parameters, errors, deterministic RNG."""

from .errors import (
    ArchFault,
    DataAbort,
    DeviceBusy,
    DeviceError,
    GuestPanic,
    HypercallError,
    PrefetchAbort,
    ReproError,
    ServiceCrashed,
    SimulationError,
    UndefinedInstruction,
)
from .params import (
    DEFAULT_PARAMS,
    CacheParams,
    CpuTiming,
    FpgaParams,
    MemoryMapParams,
    PlatformParams,
    TlbParams,
)
from .rng import make_rng
from .units import (
    KB,
    MB,
    cycles_to_ms,
    cycles_to_us,
    fpga_cycles_to_cpu_cycles,
    hexaddr,
    is_aligned,
    ms_to_cycles,
)

__all__ = [
    "ArchFault", "DataAbort", "DeviceBusy", "DeviceError",
    "GuestPanic", "HypercallError", "PrefetchAbort",
    "ReproError", "ServiceCrashed", "SimulationError",
    "UndefinedInstruction",
    "DEFAULT_PARAMS", "CacheParams", "CpuTiming", "FpgaParams",
    "MemoryMapParams", "PlatformParams", "TlbParams",
    "make_rng",
    "KB", "MB", "cycles_to_ms", "cycles_to_us",
    "fpga_cycles_to_cpu_cycles", "hexaddr", "is_aligned", "ms_to_cycles",
]

