"""IMA ADPCM codec (the 'ADPCM compression' guest workload of Section V).

A complete, standard IMA/DVI ADPCM implementation: 16-bit PCM in, 4-bit
codes out, 4:1 compression.  Encoder and decoder round-trip within the
usual ADPCM quantization error, which the tests bound.
"""

from __future__ import annotations

import numpy as np

STEP_TABLE = np.array([
    7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31,
    34, 37, 41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130, 143,
    157, 173, 190, 209, 230, 253, 279, 307, 337, 371, 408, 449, 494, 544,
    598, 658, 724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878,
    2066, 2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358, 5894,
    6484, 7132, 7845, 8630, 9493, 10442, 11487, 12635, 13899, 15289, 16818,
    18500, 20350, 22385, 24623, 27086, 29794, 32767,
], dtype=np.int32)

INDEX_TABLE = np.array([-1, -1, -1, -1, 2, 4, 6, 8], dtype=np.int32)

# The tables as plain ints, for the per-sample encode loop; the index
# adjustment is repeated so the full 4-bit code indexes it.
_STEPS = tuple(STEP_TABLE.tolist())
_INDEX_ADJUST = tuple(INDEX_TABLE.tolist()) * 2


def _clamp(v: int, lo: int, hi: int) -> int:
    return lo if v < lo else (hi if v > hi else v)


class AdpcmState:
    """Predictor state carried across blocks (one channel)."""

    __slots__ = ("predictor", "index")

    def __init__(self, predictor: int = 0, index: int = 0) -> None:
        self.predictor = predictor
        self.index = index


def encode(pcm: np.ndarray, state: AdpcmState | None = None) -> np.ndarray:
    """Encode int16 PCM samples into 4-bit codes (one code per uint8 slot)."""
    st = state or AdpcmState()
    samples = np.asarray(pcm, dtype=np.int64).tolist()
    codes = bytearray(len(samples))
    steps, adjust = _STEPS, _INDEX_ADJUST
    pred, index = st.predictor, st.index
    for i, sample in enumerate(samples):
        step = steps[index]
        diff = sample - pred
        if diff < 0:
            code = 8
            diff = -diff
        else:
            code = 0
        # Successive-approximation of diff/step into 3 magnitude bits.
        delta = step >> 3
        if diff >= step:
            code |= 4
            diff -= step
            delta += step
        step >>= 1
        if diff >= step:
            code |= 2
            diff -= step
            delta += step
        step >>= 1
        if diff >= step:
            code |= 1
            delta += step
        pred = pred - delta if code & 8 else pred + delta
        if pred > 32767:
            pred = 32767
        elif pred < -32768:
            pred = -32768
        index += adjust[code]
        if index > 88:
            index = 88
        elif index < 0:
            index = 0
        codes[i] = code
    st.predictor, st.index = pred, index
    return np.frombuffer(codes, dtype=np.uint8)


def decode(codes: np.ndarray, state: AdpcmState | None = None) -> np.ndarray:
    """Decode 4-bit codes back to int16 PCM."""
    st = state or AdpcmState()
    codes = np.asarray(codes, dtype=np.uint8)
    pcm = np.empty(len(codes), dtype=np.int16)
    pred, index = st.predictor, st.index
    for i, code in enumerate(codes.tolist()):
        step = int(STEP_TABLE[index])
        delta = step >> 3
        if code & 4:
            delta += step
        if code & 2:
            delta += step >> 1
        if code & 1:
            delta += step >> 2
        pred = _clamp(pred - delta if code & 8 else pred + delta, -32768, 32767)
        index = _clamp(index + int(INDEX_TABLE[code & 7]), 0, 88)
        pcm[i] = pred
    st.predictor, st.index = pred, index
    return pcm


def pack_codes(codes: np.ndarray) -> bytes:
    """Pack 4-bit codes two-per-byte (low nibble first)."""
    codes = np.asarray(codes, dtype=np.uint8)
    if len(codes) % 2:
        codes = np.append(codes, 0)
    return (codes[0::2] | (codes[1::2] << 4)).astype(np.uint8).tobytes()


def unpack_codes(data: bytes, n: int) -> np.ndarray:
    """Inverse of :func:`pack_codes` for ``n`` codes."""
    b = np.frombuffer(data, dtype=np.uint8)
    out = np.empty(len(b) * 2, dtype=np.uint8)
    out[0::2] = b & 0xF
    out[1::2] = b >> 4
    return out[:n]
