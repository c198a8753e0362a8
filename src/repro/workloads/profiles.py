"""Computation/memory profiles of the guest workloads.

Each profile states how many instructions and memory accesses one unit of
work costs on the modelled 660 MHz A9 and how big its working set is; the
numbers are sized from the kernels' arithmetic (butterfly counts, LPC lag
searches, per-sample ADPCM steps) at a few instructions per inner-loop
step.  Changing a profile changes cache pressure — and therefore the
Table III entry costs — which is exactly the coupling the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dsp.fft import fft_butterfly_count


@dataclass(frozen=True)
class WorkProfile:
    name: str
    #: Instructions per work unit (e.g. one speech frame).
    instrs: int
    #: Loads+stores per work unit.
    mem_accesses: int
    #: Working-set size in bytes (buffers + tables).
    ws_bytes: int
    #: Fraction of accesses that are writes.
    write_frac: float = 0.3


#: GSM-style full-rate encoding of one 160-sample frame: windowing +
#: autocorrelation (9x160 MACs) + Levinson + 4 subframes of 80-lag LTP
#: search (4x80x40 MACs) + RPE selection.
GSM_FRAME = WorkProfile("gsm-frame", instrs=68_000, mem_accesses=21_000,
                        ws_bytes=144 * 1024, write_frac=0.25)

#: IMA-ADPCM encode of a 1024-sample block (per-sample SA quantizer).
ADPCM_BLOCK = WorkProfile("adpcm-block", instrs=16_000, mem_accesses=5_200,
                          ws_bytes=48 * 1024, write_frac=0.4)

#: Software radix-2 FFT (per 1024-point block) — the fallback when no PRR
#: is available; also the unit for CPU-vs-FPGA comparisons.
FFT_SW_1K = WorkProfile("fft-sw-1k", instrs=5 * 1024 * 10, mem_accesses=4 * 5 * 1024,
                        ws_bytes=48 * 1024, write_frac=0.5)


def qam_sw_profile(order: int, n_bytes: int) -> WorkProfile:
    """Software QAM modulator profile: bit-slice + table lookup per symbol
    (~6 instructions, 2 accesses each) over ``n_bytes`` of input."""
    if order < 4 or order & (order - 1):
        raise ValueError(f"QAM order {order} is not a power of two >= 4")
    bps = order.bit_length() - 1
    symbols = max(1, (n_bytes * 8) // bps)
    return WorkProfile(f"qam-sw-{order}", instrs=symbols * 6,
                       mem_accesses=symbols * 2,
                       ws_bytes=min(128 * 1024, symbols * 8 + 8 * 1024),
                       write_frac=0.5)


def fft_sw_profile(n: int) -> WorkProfile:
    """Software FFT profile for an N-point transform: ~10 instructions and
    4 accesses per butterfly, (N/2)log2(N) butterflies."""
    butterflies = fft_butterfly_count(n)
    return WorkProfile(f"fft-sw-{n}", instrs=butterflies * 10,
                       mem_accesses=butterflies * 4,
                       ws_bytes=min(256 * 1024, n * 16 + 16 * 1024),
                       write_frac=0.5)
