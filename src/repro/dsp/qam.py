"""QAM modulation/demodulation golden model (QAM-4/16/64, Gray-mapped).

Shared numerical contract between the QAM hardware-task IP model and the
software fallback task, as for :mod:`repro.dsp.fft`.  Square Gray-coded
constellations with unit average energy.
"""

from __future__ import annotations

import numpy as np

#: Constellation sizes offered as hardware tasks in the paper's evaluation.
QAM_ORDERS = (4, 16, 64)


def constellation(order: int) -> np.ndarray:
    """Gray-mapped square constellation, unit average symbol energy.

    Index = symbol value (bits), entry = complex point.
    """
    if order not in QAM_ORDERS:
        raise ValueError(f"unsupported QAM order {order}")
    m = int(np.sqrt(order))          # points per axis (2, 4, 8)
    bits_axis = m.bit_length() - 1
    pam = 2 * np.arange(m) - (m - 1)          # e.g. [-3,-1,1,3] for m=4
    points = np.zeros(order, dtype=np.complex128)
    for sym in range(order):
        i_bits = sym >> bits_axis
        q_bits = sym & (m - 1)
        # Gray decode each axis so adjacent points differ in one bit.
        i_idx = _gray_inverse(i_bits, bits_axis)
        q_idx = _gray_inverse(q_bits, bits_axis)
        points[sym] = pam[i_idx] + 1j * pam[q_idx]
    energy = np.mean(np.abs(points) ** 2)
    return (points / np.sqrt(energy)).astype(np.complex64)


def _gray_inverse(g: int, bits: int) -> int:
    n = 0
    for _ in range(bits + 1):
        n ^= g
        g >>= 1
    return n


def bits_per_symbol(order: int) -> int:
    return order.bit_length() - 1


def modulate(symbols: np.ndarray, order: int) -> np.ndarray:
    """Map integer symbol values [0, order) to constellation points."""
    symbols = np.asarray(symbols)
    if symbols.size and (symbols.min() < 0 or symbols.max() >= order):
        raise ValueError("symbol value out of range")
    return constellation(order)[symbols]


def demodulate(points: np.ndarray, order: int) -> np.ndarray:
    """Hard-decision nearest-neighbour demapping back to symbol values."""
    const = constellation(order)
    points = np.asarray(points, dtype=np.complex64)
    d = np.abs(points[:, None] - const[None, :])
    return np.argmin(d, axis=1).astype(np.uint32)


def pack_bits_to_symbols(data: bytes, order: int) -> np.ndarray:
    """Slice a byte stream into ``bits_per_symbol`` chunks (MSB first)."""
    bps = bits_per_symbol(order)
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    usable = (len(bits) // bps) * bps
    bits = bits[:usable].reshape(-1, bps)
    weights = 1 << np.arange(bps - 1, -1, -1)
    return (bits * weights).sum(axis=1).astype(np.uint32)
